"""Trained-model container and whole-corpus tagging."""

from dataclasses import dataclass

from . import architectures
from .representation import DocCache, encode_sentence


@dataclass
class Model:
    spec: architectures.ModelSpec
    params: dict
    table: object            # EmbeddingTable
    fconf: object            # FeatureConfig
    tagset: list
    scheme: str
    v_c: int = 5

    @property
    def tag_to_index(self):
        return {t: i for i, t in enumerate(self.tagset)}

    def encode_input(self, sentence, doc_state=None):
        return encode_sentence(sentence, self.table, self.fconf, self.v_c, doc_state)


def tag_sentence(model, sentence):
    """Tags of one sentence, tagged as a document of its own."""
    return tag_corpus(model, [sentence])[0]


def tag_corpus(model, sentences):
    """Tag sentences, one tag list per sentence in corpus order.

    The label cache, when enabled, is document-scoped: a document is a
    maximal run of consecutive sentences with the same doc_id, its cache
    starts empty and is fed the model's own predictions, so sentence
    order within a document matters.  Documents do not depend on each
    other, so tagging runs in rounds: round j encodes the j-th sentence
    of every document that has one under that document's cache, runs
    them through the model as one batch, and updates the caches from the
    round's tags before round j + 1.  Each sentence gets bitwise the
    distributions it gets when tagged alone.
    """
    docs = []
    for i, sent in enumerate(sentences):
        if not docs or sent.doc_id != sentences[docs[-1][-1]].doc_id:
            docs.append([])
        docs[-1].append(i)
    caches = [DocCache() if model.fconf.uses_cache else None for _ in docs]
    t2i = model.tag_to_index
    out = [None] * len(sentences)
    for j in range(max(map(len, docs), default=0)):
        live = [(doc[j], cache) for doc, cache in zip(docs, caches) if j < len(doc)]
        xss = [model.encode_input(sentences[i], cache).xs for i, cache in live]
        dists = architectures.forward_batch(model.spec, model.params, xss)
        for (i, cache), d in zip(live, dists):
            out[i] = architectures.argmax_tags(d, model.tagset)
            if cache is not None:
                cache.update_sentence(sentences[i], out[i], t2i)
    return out
