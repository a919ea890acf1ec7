"""Shows why lookahead matters: on sentences whose first label is decided
by the last word, a left-to-right tagger is mathematically stuck at
chance while the bidirectional one solves the task.  Exits 1 if the
bidirectional tagger's first-token accuracy stays below 0.95.

Usage: python3 scripts/future_dep_demo.py [--epochs 300]
"""

import argparse
import sys

import numpy as np

from rnntagger.architectures import ModelSpec, forward_batch, init_model
from rnntagger.corpus import build_vocab
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus
from rnntagger.representation import EmbeddingTable, FeatureConfig, encode_sentence
from rnntagger.synth import future_dep_corpus
from rnntagger.tagging import BIO2, make_tagset
from rnntagger.training import TrainConfig, train_epoch


def build(sents, arch, rng_seed, **spec_kw):
    tagset = make_tagset(["ORG", "PER"], BIO2)
    dim, v_c = 16, 1
    rng = SeededRng(rng_seed)
    table = EmbeddingTable.random(build_vocab(sents), dim, rng)
    spec = ModelSpec(arch=arch, n_in=dim * 3, hidden=16,
                     n_tags=len(tagset), **spec_kw)
    model = Model(spec=spec, params=init_model(spec, rng), table=table,
                  fconf=FeatureConfig(), tagset=tagset, scheme=BIO2, v_c=v_c)
    return model, rng


def first_token_accuracy(model, sents):
    tags = tag_corpus(model, sents)
    return float(np.mean([t[0] == s.tokens[0].gold_tag
                          for t, s in zip(tags, sents)]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sents = future_dep_corpus(size=40, seed=args.seed)
    cfg = TrainConfig(learning_rate=0.1, epochs=args.epochs, v_d=9, v_c=1,
                      hidden=16, seed=args.seed)

    model, rng = build(sents, "bidirectional", args.seed,
                       decoder_cell="ELMAN", encoder_cell="ELMAN_GRU")
    acc = 0.0
    for epoch in range(1, args.epochs + 1):
        train_epoch(model, sents, cfg, rng=rng)
        acc = first_token_accuracy(model, sents)
        if epoch % 20 == 0 or acc >= 0.95:
            print("bidirectional epoch %3d  first-token acc %.2f" % (epoch, acc))
        if acc >= 0.95:
            break

    basic, rng = build(sents, "basic", args.seed, decoder_cell="ELMAN")
    for epoch in range(1, 31):
        train_epoch(basic, sents, cfg, rng=rng)
    print("basic after 30 epochs: first-token acc %.2f"
          % first_token_accuracy(basic, sents))

    a, b = sents[0], sents[1]
    da, db = (forward_batch(basic.spec, basic.params,
                            [encode_sentence(s, basic.table, basic.fconf, basic.v_c)])[0]
              for s in (a, b))
    print("basic position-0 outputs bitwise identical across the pair:",
          np.array_equal(da[0], db[0]))
    if acc < 0.95:
        print("bidirectional tagger did not reach first-token acc 0.95 in %d epochs"
              % args.epochs)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
