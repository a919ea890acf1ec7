"""Model persistence.

One JSON document holds everything a tagger needs to run: the shape
spec, every parameter bundle, the embedding table with its vocabulary,
the feature channel setup, and the tagset.  Keys are sorted and floats
use shortest round-trip notation, so saving the same model twice yields
byte-identical files and load(save(m)) reproduces every array exactly.

The writer streams the document: keys go out in sorted order, every
value but an array through json's encoder, and each array row by row
as float.__repr__ of its values, which is the notation json gives a
finite float.  No list copy of a whole array is made, and the bytes
are the ones json.dump(sort_keys=True, separators=(",", ":")) writes.
A NaN or infinity has no JSON form the loader accepts, so save_model
refuses an array that holds one with a FloatingPointError naming it,
before the file is opened.
"""

import json
from dataclasses import asdict, fields

import numpy as np

from . import linalg
from .architectures import ModelSpec, bundle_shapes
from .cells import CELLS, SoftmaxOutput
from .corpus import Lexicon, Vocabulary
from .model import Model
from .representation import EmbeddingTable, FeatureConfig

MODEL_FORMAT = "rnn-mention-tagger"
MODEL_VERSION = 1

# Keys every model file holds at one value: the model has no bias terms,
# a sigmoid GRU candidate, and lowercased, digit-folded tokens.  They stay
# in the format so files keep their bytes; a file with any other value
# holds a model this code cannot run.
FIXED_KEYS = (("spec", "bias", False), ("spec", "gru_candidate", "sigmoid"),
              ("vocab", "lowercase", True), ("vocab", "digits_to_zero", True))

# Every key the writer emits at the top and in the two sections whose
# keys are not otherwise checked; a key outside them would be dropped
# unread, so the loader rejects it.
KNOWN_KEYS = {
    "": {"format", "version", "spec", "tagset", "scheme", "v_c", "features",
         "vocab", "embedding", "params"},
    "spec.": {f.name for f in fields(ModelSpec)} | {"bias", "gru_candidate"},
    "vocab.": {"words", "lowercase", "digits_to_zero"},
}

# The keys the writer puts arrays at: embedding.matrix, context.S and
# the parameters of every cell and output layer.
ARRAY_KEYS = ({"matrix", "S"} | set(SoftmaxOutput.param_shapes(1, 1))
              | {k for cell in CELLS.values() for k in cell.param_shapes(1, 1, 1)})

# Every value but an array goes through json's own encoder at the file's
# settings, one value at a time.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _lexicon_obj(lex):
    return {"name": lex.name, "entries": sorted(lex.entries)}


def _model_sections(model):
    """The file's content as nested dicts, with every array left as the
    model's own ndarray for the writer to stream."""
    fconf = model.fconf
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": asdict(model.spec),
        "tagset": list(model.tagset),
        "scheme": model.scheme,
        "v_c": model.v_c,
        "features": {
            "capitalization": fconf.capitalization,
            "gazetteers": [_lexicon_obj(g) for g in fconf.gazetteers],
            "trigger": _lexicon_obj(fconf.trigger) if fconf.trigger else None,
            "cache_tagset": list(fconf.cache_tagset) if fconf.cache_tagset else None,
        },
        "vocab": {"words": list(model.table.vocab.index_to_word)},
        "embedding": {
            "dim": model.table.dim,
            "trainable": model.table.trainable,
            "matrix": model.table.matrix,
        },
        "params": model.params,
    }
    for section, key, value in FIXED_KEYS:
        obj[section][key] = value
    return obj


def _arrays(obj, where=""):
    """(dotted key, array) for every array in obj, in file order."""
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            yield from _arrays(value, where + key + ".")
        elif isinstance(value, np.ndarray):
            yield where + key, value


def _write(fh, value):
    if isinstance(value, dict):
        fh.write("{")
        for i, key in enumerate(sorted(value)):
            fh.write("," * (i > 0) + _encode(key) + ":")
            _write(fh, value[key])
        fh.write("}")
    elif isinstance(value, np.ndarray):     # every array in the file is 2-D
        fh.write("[")
        for i, row in enumerate(value):
            fh.write("," * (i > 0) + "[" + ",".join(map(float.__repr__, row.tolist())) + "]")
        fh.write("]")
    else:
        fh.write(_encode(value))


def save_model(model, path):
    """Write model to path; a non-finite array is a FloatingPointError
    that names it, raised before the file is opened."""
    obj = _model_sections(model)
    for where, arr in _arrays(obj):
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("%s holds a non-finite value" % where)
    with open(path, "w", encoding="utf-8") as fh:
        _write(fh, obj)
        fh.write("\n")


def _array(value, where, shape):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s is not a numeric array" % where) from None
    if arr.shape != tuple(shape):
        raise ValueError("%s has shape %s, expected %s" % (where, arr.shape, tuple(shape)))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s holds a non-finite value" % where)
    return arr


def _params_from_obj(raw, spec):
    """Parameter bundles, checked against the shapes the cells declare."""
    shapes = bundle_shapes(spec)
    if set(raw) != set(shapes):
        raise ValueError("params: bundles %s, expected %s" % (sorted(raw), sorted(shapes)))
    params = {}
    for bundle in sorted(shapes):
        if set(raw[bundle]) != set(shapes[bundle]):
            raise ValueError("params.%s: parameters %s, expected %s"
                             % (bundle, sorted(raw[bundle]), sorted(shapes[bundle])))
        params[bundle] = {name: _array(raw[bundle][name], "params.%s.%s" % (bundle, name), shape)
                          for name, shape in sorted(shapes[bundle].items())}
    return params


def model_from_obj(obj):
    """The model a parsed file holds; any defect is a ValueError that
    names the key."""
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ValueError("not a model file (no %r format tag)" % MODEL_FORMAT)
    version = obj.get("version")
    if not linalg.is_int(version):
        raise ValueError("version must be an integer, got %r" % (version,))
    if version != MODEL_VERSION:
        raise ValueError("unsupported model version %r" % version)
    try:
        return _model_from_obj(obj)
    except KeyError as e:
        raise ValueError("missing key %s" % e) from None
    except (TypeError, AttributeError) as e:
        raise ValueError("malformed model: %s" % e) from None


def _model_from_obj(obj):
    for section, key, value in FIXED_KEYS:
        got = obj[section][key]
        if type(got) is not type(value) or got != value:
            raise ValueError("%s.%s must be %r, got %r" % (section, key, value, got))
    for prefix, section in (("", obj), ("spec.", obj["spec"]), ("vocab.", obj["vocab"])):
        unknown = sorted(set(section) - KNOWN_KEYS[prefix])
        if unknown:
            raise ValueError("unknown key %s%s" % (prefix, unknown[0]))
    fixed = {(section, key) for section, key, _ in FIXED_KEYS}
    spec = ModelSpec(**{k: v for k, v in obj["spec"].items() if ("spec", k) not in fixed})
    vocab = Vocabulary(index_to_word=list(obj["vocab"]["words"]))
    emb = obj["embedding"]
    matrix = _array(emb["matrix"], "embedding.matrix", (len(vocab), emb["dim"]))
    table = EmbeddingTable(vocab, emb["dim"], matrix, trainable=emb["trainable"])
    f = obj["features"]
    trigger = f["trigger"]
    fconf = FeatureConfig(
        capitalization=f["capitalization"],
        gazetteers=[Lexicon(g["name"], set(g["entries"])) for g in f["gazetteers"]],
        trigger=Lexicon(trigger["name"], set(trigger["entries"])) if trigger else None,
        cache_tagset=list(f["cache_tagset"]) if f["cache_tagset"] else None,
    )
    tagset = obj["tagset"]
    if not (isinstance(tagset, list) and all(isinstance(t, str) for t in tagset)
            and len(set(tagset)) == len(tagset)):
        raise ValueError("tagset must be a list of distinct tag strings")
    return Model(spec=spec, params=_params_from_obj(obj["params"], spec), table=table,
                 fconf=fconf, tagset=tagset, scheme=obj["scheme"], v_c=obj["v_c"])


def _arrays_of(obj):
    """json's object hook: a value at an ARRAY_KEYS key becomes a float64
    array as soon as its object is parsed, so only one object's Python
    floats are alive at a time.  It is _array's own conversion, so a
    value that does not convert stays for _array to reject by name."""
    for key in ARRAY_KEYS.intersection(obj):
        try:
            obj[key] = np.array(obj[key], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def load_model(path):
    """Read and check a model file; every defect in it is a ValueError
    that names the file and the key."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_hook=_arrays_of)
        return model_from_obj(obj)
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None
