"""Trained-model container and whole-corpus tagging."""

from dataclasses import dataclass

import numpy as np

from . import architectures
from .corpus import documents
from .linalg import check_size, one_blas_thread
from .representation import DocCache, encode_sentence


@dataclass
class Model:
    """A trained tagger.  Its parts must agree on its shape, whoever
    builds it: a ValueError names the key (v_c, spec.n_in, spec.n_tags
    or features.cache_tagset) that does not.  No code reads scheme: the
    model file's scheme key is detect_scheme(tagset), whatever it holds."""

    spec: architectures.ModelSpec
    params: dict
    table: object            # EmbeddingTable
    fconf: object            # FeatureConfig
    tagset: list
    scheme: str
    v_c: int = 5

    def __post_init__(self):
        check_size("v_c", self.v_c, 0)
        if len(self.tagset) != self.spec.n_tags:
            raise ValueError("tagset has %d tags, spec.n_tags is %d"
                             % (len(self.tagset), self.spec.n_tags))
        # the cache's columns are part of n_in, so a wrong cache is named
        # before the width it makes wrong
        cached = self.fconf.cache_tagset
        if cached is not None and list(cached) != list(self.tagset):
            raise ValueError("features.cache_tagset must be null or equal tagset")
        n_in = self.fconf.input_width(self.table.dim, self.v_c)
        if self.spec.n_in != n_in:
            raise ValueError("spec.n_in is %d, expected (dim %d + features %d) x (2 v_c + 1) = %d"
                             % (self.spec.n_in, self.table.dim, self.fconf.width, n_in))

    @property
    def tag_to_index(self):
        return {t: i for i, t in enumerate(self.tagset)}


def tag_sentence(model, sentence):
    """Tags of one sentence, tagged as a document of its own."""
    return tag_corpus(model, [sentence])[0]


@one_blas_thread
def tag_corpus(model, sentences):
    """Tag sentences, one tag list per sentence in corpus order.

    The label cache, when enabled, is document-scoped: each document's
    cache starts empty and is fed the model's own predictions, so
    sentence order within a document matters.  Documents do not depend
    on each other, so tagging runs in rounds: round j encodes the j-th
    sentence of every document that has one under that document's
    cache, runs them through the model as one batch, and updates the
    caches from the round's tags before round j + 1.  Each sentence gets
    bitwise the distributions it gets when tagged alone.  All rounds
    share one surface facts table (see token_features).  A distribution
    that is not finite is a FloatingPointError naming its document, its
    sentence in the document and its position, all counted from 1.
    """
    docs = documents(sentences)
    caches = [DocCache() if model.fconf.uses_cache else None for _ in docs]
    t2i = model.tag_to_index
    facts = {}
    out = [None] * len(sentences)
    # the check below finds every non-finite distribution and says where
    # it is, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(max(map(len, docs), default=0)):
            live = [(d, doc[j], cache) for d, (doc, cache) in enumerate(zip(docs, caches))
                    if j < len(doc)]
            xss = [encode_sentence(sentences[i], model.table, model.fconf, model.v_c, cache,
                                   facts)
                   for _, i, cache in live]
            dists = architectures.forward_batch(model.spec, model.params, xss)
            for (d, i, cache), dist in zip(live, dists):
                if not np.isfinite(dist).all():
                    p = np.isfinite(dist).all(axis=1).argmin()
                    raise FloatingPointError(
                        "document %d, sentence %d, position %d: non-finite output distribution"
                        % (d + 1, j + 1, p + 1))
                out[i] = architectures.argmax_tags(dist, model.tagset)
                if cache is not None:
                    cache.update_sentence(sentences[i], out[i], t2i)
    return out
