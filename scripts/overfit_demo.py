"""Memorization run: a bidirectional tagger driven to span F1 = 100
on a small synthetic corpus with unambiguous lexical cues.  Exits 1 if
the corpus is not memorized within --epochs.

Usage: python3 scripts/overfit_demo.py [--size 50] [--seed 1]
"""

import argparse
import sys
import time

from rnntagger.architectures import ModelSpec, init_model
from rnntagger.corpus import build_vocab
from rnntagger.evaluation import score
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus
from rnntagger.representation import EmbeddingTable, FeatureConfig
from rnntagger.synth import memorize_corpus
from rnntagger.tagging import BIO2, make_tagset, tags_to_spans
from rnntagger.training import TrainConfig, train_epoch


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=50)
    args = ap.parse_args()

    sents = memorize_corpus(size=args.size, seed=args.seed)
    tagset = make_tagset(["LOC", "ORG", "PER"], BIO2)
    dim, v_c, hidden = 16, 1, 16
    rng = SeededRng(args.seed)
    table = EmbeddingTable.random(build_vocab(sents), dim, rng)
    fconf = FeatureConfig()
    spec = ModelSpec(arch="bidirectional", n_in=(dim + fconf.width) * 3,
                     hidden=hidden, n_tags=len(tagset),
                     decoder_cell="ELMAN", encoder_cell="ELMAN")
    model = Model(spec=spec, params=init_model(spec, rng), table=table,
                  fconf=fconf, tagset=tagset, scheme=BIO2, v_c=v_c)
    cfg = TrainConfig(learning_rate=0.06, epochs=args.epochs, v_d=9, v_c=v_c,
                      hidden=hidden, seed=args.seed)

    gold = [tags_to_spans(s.tags()) for s in sents]
    t0 = time.time()
    for epoch in range(1, args.epochs + 1):
        stats = train_epoch(model, sents, cfg, rng=rng)
        pred = [tags_to_spans(t) for t in tag_corpus(model, sents)]
        f1 = score(gold, pred).f1
        print("epoch %3d  loss %.4f  train F1 %6.2f" % (epoch, stats.mean_loss, f1))
        if f1 == 100.0:
            print("memorized after %d epochs (%.1fs)" % (epoch, time.time() - t0))
            return 0
    print("did not reach 100.00 in %d epochs" % args.epochs)
    return 1


if __name__ == "__main__":
    sys.exit(main())
