"""Trained-model container and whole-corpus tagging."""

import io
import pickle
from dataclasses import dataclass

import numpy as np

from . import architectures, workers
from .corpus import documents
from .linalg import check_size, one_blas_thread
from .representation import DocCache, encode_sentence

# The fewest tokens worth a process of their own.  Measured on a 2 vCPU
# Xeon VM (Python 3.11, one BLAS thread) holding the four perfbench tag
# models: a fork, the child's exit and the wait take 3.9 ms, and a worker
# then runs about 6 ms slower than the caller on a 371-token group, as
# its first writes copy the pages it shares with the caller.  A group's
# rounds also shrink less than its batches, as each round steps through
# its longest sentence.  On the first k documents of the perfbench seed-1
# tag input, two processes against one ran 0.56-1.18x as fast at 371
# tokens, 0.91-1.37x at 737, 0.99-1.31x at 1117 and 1.08-1.37x at 1611
# over the four configs: the fastest break even near 1000 tokens.
MIN_TOKENS_PER_PROCESS = 500


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
    bitwise the distributions it gets when tagged alone.  A process's
    rounds share one surface facts table (see token_features).

    On Linux the documents are split into groups of near-equal token
    counts, as many as _process_count gives: the shared worker rule of
    workers.process_count, but no more than one per document or per
    MIN_TOKENS_PER_PROCESS tokens.  workers.run_parts tags each group,
    the first in the calling process and each other one in a forked
    worker, and gathers their tags.  Every process runs the same rounds
    on one BLAS thread, so the tags are the same bytes however the
    documents are split.

    A distribution that is not finite is a FloatingPointError naming its
    document, its sentence in the document and its position, all counted
    from 1: the first in round then document order.  When the documents
    are split and tagging raises, the caller tags every document again
    itself (see tag_in_process), so the exception is the in-process one:
    tagging is deterministic, so a group that raised in a worker raises
    in the caller too, unless the worker alone failed, say for want of
    memory, and then the call returns the tags.  A worker that ends
    without its tags is a WorkerError naming its documents.
    """
    docs = list(enumerate(documents(sentences)))
    groups = _groups(sentences, docs)

    def work(group, fh):
        pickle.dump(_tag_documents(model, sentences, group), fh, pickle.HIGHEST_PROTOCOL)

    def lost(group, how):
        return ("the worker tagging documents %s %s without sending its tags"
                % (", ".join(str(d + 1) for d, _ in group), how))

    sink = io.BytesIO()
    try:
        workers.run_parts(groups, work, sink, lost)
    except workers.WorkerError:
        raise
    except Exception:
        if len(groups) == 1:
            raise
        return tag_in_process(model, sentences)
    sink.seek(0)
    tags = {}
    for _ in groups:
        tags.update(pickle.load(sink))
    return _in_order(tags, sentences)


@one_blas_thread
def tag_in_process(model, sentences):
    """tag_corpus's tags, or the exception it raises, with every document
    tagged in the calling process."""
    docs = list(enumerate(documents(sentences)))
    return _in_order(_tag_documents(model, sentences, docs), sentences)


def _in_order(tags, sentences):
    """{sentence index: tags} as one tag list per sentence."""
    return [tags.get(i) for i in range(len(sentences))]


def _groups(sentences, docs):
    """docs, a list of (document index, its sentence indices), split into
    the number of groups _process_count gives: the longest document
    first, each to the group with the fewest tokens so far."""
    sizes = [sum(len(sentences[i]) for i in doc) for _, doc in docs]
    n = _process_count(len(docs), sum(sizes))
    groups = [[] for _ in range(n)]
    load = [0] * n
    for k in sorted(range(len(docs)), key=lambda k: -sizes[k]):
        g = load.index(min(load))
        groups[g].append(docs[k])
        load[g] += sizes[k]
    return [sorted(group) for group in groups]


def _process_count(n_docs, n_tokens):
    """How many processes tag n_docs documents of n_tokens tokens: the
    rule of workers.process_count, at most one per document and per
    MIN_TOKENS_PER_PROCESS tokens."""
    return workers.process_count(n_docs, n_tokens // MIN_TOKENS_PER_PROCESS)


def _tag_documents(model, sentences, docs):
    """{sentence index: tags} for the documents docs, a list of (document
    index, its sentence indices), tagged in rounds."""
    caches = [DocCache() if model.fconf.uses_cache else None for _ in docs]
    t2i = model.tag_to_index
    facts = {}
    out = {}
    # the check below finds every non-finite distribution and says where
    # it is, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(max((len(doc) for _, doc in docs), default=0)):
            live = [(d, doc[j], cache) for (d, doc), cache in zip(docs, caches)
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
