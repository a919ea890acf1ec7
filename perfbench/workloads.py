"""The three workloads, one per user path of the tagger.

Each workload writes its seeded inputs once, then exposes
  keys             the configs (or objectives) one repetition covers,
  setup()          the program's work before the first timed unit,
  run(state, key)  one unit of measured work for one key, returning its
                   item count, output and `marks`: the `clock` readings
                   at the start of the work, at its end (where writing
                   the run's output starts) and at the end of the write.
Each unit writes its output to a new file and removes it untimed, as
separate runs of the command would, rather than overwrite the file of
the unit before.
Every call into the program goes through a module attribute
(`training.train_epoch`, not a from-import) so that the traced run can
wrap it from outside.
"""

import copy
import hashlib
import os
import re
from collections import Counter

import inputs
from rnntagger import corpus, model, pretrain, representation, serialize, training
from rnntagger.architectures import ModelSpec, init_model
from rnntagger.linalg import SeededRng
from rnntagger.tagging import BIO2, make_tagset

# the `conll` profile: H=100, dim=50 (the vectors file), v_c=5, v_d=9, lr 0.06
HIDDEN = 100
V_C = 5
V_D = 9
LEARNING_RATE = 0.06

CONFIGS = {
    "basic-elman": dict(arch="basic", decoder_cell="ELMAN"),
    "contextual-elman-jordan": dict(arch="contextual", encoder_cell="ELMAN",
                                    decoder_cell="JORDAN"),
    "bidirectional-gru": dict(arch="bidirectional", encoder_cell="ELMAN_GRU",
                              decoder_cell="JORDAN_GRU"),
    "mesnil-jordan": dict(arch="mesnil", encoder_cell="JORDAN", mesnil_k=1),
}

EMBED_DIM = 50
EMBED_WINDOW = 5
EMBED_NEGATIVES = 10


class Sizes:
    """How much input a workload gets.  `full` is the measured workload;
    `canary` is a small fixed-seed input checked on every run so that
    drift from the reference shows whatever seed the run is given."""

    def __init__(self, vocab_types, train_lengths, prep_lengths, tag_docs,
                 embed_types, raw_lengths):
        self.vocab_types = vocab_types
        self.train_lengths = train_lengths
        self.prep_lengths = prep_lengths
        self.tag_docs = tag_docs
        self.embed_types = embed_types
        self.raw_lengths = raw_lengths


FULL = Sizes(vocab_types=inputs.VOCAB_TYPES,
             train_lengths=inputs.length_schedule(8),
             prep_lengths=[8, 12],
             tag_docs=24,
             embed_types=inputs.EMBED_TYPES,
             raw_lengths=inputs.length_schedule(400))
CANARY = Sizes(vocab_types=300, train_lengths=[4, 7], prep_lengths=[5],
               tag_docs=2, embed_types=200, raw_lengths=[9, 12, 6, 15] * 5)
CANARY_SEED = 0


def _tagset():
    return make_tagset(inputs.ENTITY_TYPES, BIO2)


def _fresh_copy(m):
    """An independent model sharing only the (read-only) vocabulary."""
    table = representation.EmbeddingTable(m.table.vocab, m.table.dim,
                                          m.table.matrix.copy(), m.table.trainable)
    return model.Model(spec=m.spec, params=copy.deepcopy(m.params), table=table,
                       fconf=m.fconf, tagset=m.tagset, scheme=m.scheme, v_c=m.v_c)


def _build_models(train_path, vectors_path, gazetteer_path, seed):
    """What `rnntagger train` does before its first epoch, once per config."""
    sents = corpus.load_conll(train_path)
    table = representation.load_embeddings(vectors_path)
    gaz = corpus.load_lexicon(gazetteer_path)
    tagset = _tagset()
    fconf = representation.FeatureConfig(capitalization=True, gazetteers=[gaz],
                                         cache_tagset=tagset)
    n_in = (table.dim + fconf.width) * (2 * V_C + 1)
    models = {}
    for name, kw in CONFIGS.items():
        spec = ModelSpec(n_in=n_in, hidden=HIDDEN, n_tags=len(tagset), **kw)
        own = representation.EmbeddingTable(table.vocab, table.dim, table.matrix.copy())
        models[name] = model.Model(spec=spec, params=init_model(spec, SeededRng(seed)),
                                   table=own, fconf=fconf, tagset=tagset,
                                   scheme=BIO2, v_c=V_C)
    return sents, models


def _train_config(seed):
    return training.TrainConfig(learning_rate=LEARNING_RATE, epochs=1, v_d=V_D,
                                v_c=V_C, hidden=HIDDEN, seed=seed, shuffle=True,
                                fine_tune_embeddings=True)


def _tagger_files(workdir, seed, sizes, with_tag_file):
    paths = {k: os.path.join(workdir, k + ".txt")
             for k in ("vectors", "gazetteer", "train", "prep", "tag")}
    inputs.tagger_inputs(seed, paths, sizes.vocab_types, sizes.train_lengths,
                         sizes.prep_lengths if with_tag_file else [],
                         sizes.tag_docs if with_tag_file else 0)
    return paths


class Train:
    """One epoch of per-example SGD per config, then save_model."""
    unit = "ex"
    keys = list(CONFIGS)

    def __init__(self, workdir, seed, sizes, clock):
        self.workdir = workdir
        self.seed = seed
        self.clock = clock
        self.paths = _tagger_files(workdir, seed, sizes, with_tag_file=False)

    def setup(self):
        return _build_models(self.paths["train"], self.paths["vectors"],
                             self.paths["gazetteer"], self.seed)

    def run(self, state, key):
        sents, models = state
        m = _fresh_copy(models[key])
        cfg = _train_config(self.seed)
        t0 = self.clock()
        stats = training.train_epoch(m, sents, cfg)
        t1 = self.clock()
        out = os.path.join(self.workdir, key + ".json")
        serialize.save_model(m, out)
        t2 = self.clock()
        os.remove(out)
        return {"marks": (t0, t1, t2), "items": stats.n_examples,
                "output": stats.mean_loss}


class Tag:
    """load_model, tag_corpus and write_conll per config, as `rnntagger tag`
    does; the models are trained briefly and saved, untimed, beforehand."""
    unit = "tok"
    keys = list(CONFIGS)

    def __init__(self, workdir, seed, sizes, clock):
        self.workdir = workdir
        self.clock = clock
        self.paths = _tagger_files(workdir, seed, sizes, with_tag_file=True)
        prep, models = _build_models(self.paths["prep"], self.paths["vectors"],
                                     self.paths["gazetteer"], seed)
        self.model_paths = {}
        for name, m in models.items():
            training.train_epoch(m, prep, _train_config(seed))
            self.model_paths[name] = os.path.join(workdir, name + ".model.json")
            serialize.save_model(m, self.model_paths[name])

    def setup(self):
        sents = corpus.load_conll(self.paths["tag"], tagged=False)
        return sents, {name: serialize.load_model(p)
                       for name, p in self.model_paths.items()}

    def run(self, state, key):
        sents, models = state
        t0 = self.clock()
        tags = model.tag_corpus(models[key], sents)
        t1 = self.clock()
        out = os.path.join(self.workdir, key + ".tagged")
        corpus.write_conll(sents, out, tags=tags)
        t2 = self.clock()
        os.remove(out)
        tagset = set(models[key].tagset)
        if len(tags) != len(sents) or any(
                len(t) != len(s) or not tagset.issuperset(t) for s, t in zip(sents, tags)):
            raise ValueError("tag_corpus returned tags that do not fit the input")
        return {"marks": (t0, t1, t2), "items": sum(len(s) for s in sents),
                "output": doc_digests(sents, tags)}


def doc_digests(sents, tags):
    """One short digest of the predicted tags per document."""
    docs = {}
    order = []
    for sent, sent_tags in zip(sents, tags):
        if sent.doc_id not in docs:
            docs[sent.doc_id] = hashlib.sha256()
            order.append(sent.doc_id)
        docs[sent.doc_id].update((" ".join(sent_tags) + "\n").encode())
    return [docs[d].hexdigest()[:16] for d in order]


class Embed:
    """train_embeddings then save_text, once per objective."""
    unit = "tok"
    keys = list(pretrain.OBJECTIVES)

    def __init__(self, workdir, seed, sizes, clock):
        self.workdir = workdir
        self.clock = clock
        self.path = os.path.join(workdir, "raw.txt")
        self.n_tokens = inputs.raw_text(seed, self.path, sizes.embed_types,
                                        sizes.raw_lengths)
        # the same folding the program applies, so the threshold sees its counts
        with open(self.path, encoding="utf-8") as fh:
            counts = Counter(re.sub(r"\d", "0", w.lower())
                             for line in fh for w in line.split())
        self.config = dict(dim=EMBED_DIM, window=EMBED_WINDOW,
                           negatives=EMBED_NEGATIVES, seed=seed,
                           subsample=inputs.half_keep_threshold(list(counts.values())))

    def setup(self):
        cfg = pretrain.EmbedConfig(epochs=0, **self.config)
        return pretrain.train_embeddings(self.path, pretrain.CBOW, cfg)

    def run(self, state, key):
        cfg = pretrain.EmbedConfig(epochs=1, **self.config)
        t0 = self.clock()
        m = pretrain.train_embeddings(self.path, key, cfg)
        t1 = self.clock()
        out = os.path.join(self.workdir, key + ".vec")
        pretrain.save_text(m, out)
        t2 = self.clock()
        os.remove(out)
        return {"marks": (t0, t1, t2), "items": self.n_tokens,
                "output": m.epoch_losses[0]}


WORKLOADS = {"train": Train, "tag": Tag, "embed": Embed}
