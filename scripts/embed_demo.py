"""Trains the three embedding objectives on a toy two-class corpus and
prints the resulting cosine structure.  Exits 1 if any objective's
mean within-class cosine is not above its mean cross-class cosine.

Usage: python3 scripts/embed_demo.py
"""

import os
import sys
import tempfile

import numpy as np

from rnntagger.pretrain import CBOW, CCONCAT, SKIPGRAM, EmbedConfig, train_embeddings


def cos(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def main():
    lines = []
    for w in ("a", "b", "c"):
        lines += ["cx x%s cx" % w] * 30
        lines += ["cy y%s cy" % w] * 30
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    failed = []
    try:
        for objective in (CBOW, SKIPGRAM, CCONCAT):
            cfg = EmbedConfig(dim=8, window=2, subsample=1.0, negatives=3,
                              epochs=5, learning_rate=0.05, seed=2)
            model = train_embeddings(path, objective, cfg)
            vec = lambda w: model.input_vectors[model.vocab.word_to_index[w]]
            xs = [vec("x%s" % w) for w in ("a", "b", "c")]
            ys = [vec("y%s" % w) for w in ("a", "b", "c")]
            within = np.mean(
                [cos(xs[i], xs[j]) for i in range(3) for j in range(i + 1, 3)]
                + [cos(ys[i], ys[j]) for i in range(3) for j in range(i + 1, 3)])
            cross = np.mean([cos(x, y) for x in xs for y in ys])
            print("%-9s within-class cos %+.3f   cross-class cos %+.3f"
                  % (objective, within, cross))
            if not within > cross:
                failed.append(objective)
    finally:
        os.unlink(path)
    if failed:
        print("within-class cosine not above cross-class for: %s" % ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
