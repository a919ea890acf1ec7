"""Model persistence.

One JSON document holds everything a tagger needs to run: the shape
spec, every parameter bundle, the embedding table with its vocabulary,
the feature channel setup, and the tagset.  Keys are sorted and the
separators compact, so saving the same model twice yields byte-identical
files.

The writer writes format version 2.  Each 2-D array there is an object
{"f8le": base64 of its little-endian float64 bytes in row-major order,
"shape": [rows, cols]}, so load(save(m)) reproduces every array bit for
bit, -0.0 and subnormals included.  The writer streams the document:
keys go out in sorted order, every value but an array through json's
encoder as its ASCII bytes, and each array CHUNK_ROWS rows at a time,
base64 read straight from the array's buffer, so no copy of a whole array
is made.  The file is binary, so no platform translates its newlines.
The bytes equal json.dump(sort_keys=True,
separators=(",", ":")) of the document with each array's base64 made
whole.  The loader refuses a NaN or an infinity, so save_model refuses an
array that holds one with a FloatingPointError naming it, before the
file is opened.

The loader reads version 2 and version 1, whose arrays are nested lists
of decimal floats, as files written before version 2 hold them.  Each
version accepts only its own array form, and every defect is a
ValueError that names the file and the key.
"""

import binascii
import json
from dataclasses import asdict, fields

import numpy as np

from . import linalg
from .architectures import ModelSpec, bundle_shapes
from .cells import CELLS, SoftmaxOutput
from .corpus import PAD, UNK, Lexicon, Vocabulary, normalize
from .model import Model
from .representation import EmbeddingTable, FeatureConfig
from .tagging import detect_scheme

MODEL_FORMAT = "rnn-mention-tagger"
MODEL_VERSION = 2
READ_VERSIONS = (1, 2)

# Rows of an array the writer encodes at a time.  A multiple of 3 rows is
# a multiple of 3 bytes, so no chunk but the last ends in base64 padding
# and the chunks join into the base64 of the whole array.  Encoding each
# whole array at once raised a training run's peak RSS by about a tenth.
CHUNK_ROWS = 3072

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
# settings, one value at a time.  It escapes every non-ASCII character, so
# its text is its ASCII bytes.
_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode(value):
    return _json_encode(value).encode("ascii")


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
        fh.write(b"{")
        for i, key in enumerate(sorted(value)):
            fh.write(b"," * (i > 0) + _encode(key) + b":")
            _write(fh, value[key])
        fh.write(b"}")
    elif isinstance(value, np.ndarray):     # every array in the file is 2-D
        fh.write(b'{"f8le":"')
        for i in range(0, len(value), CHUNK_ROWS):
            # a copy only when the rows are not C-contiguous little-endian
            # float64: b2a_base64 reads the buffer as it lies
            chunk = np.ascontiguousarray(value[i:i + CHUNK_ROWS], dtype="<f8")
            fh.write(binascii.b2a_base64(chunk, newline=False))
        fh.write(b'","shape":' + _encode(list(value.shape)) + b"}")
    else:
        fh.write(_encode(value))


def save_model(model, path):
    """Write model to path; a non-finite array is a FloatingPointError
    that names it, raised before the file is opened."""
    obj = _model_sections(model)
    for where, arr in _arrays(obj):
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("%s holds a non-finite value" % where)
    with open(path, "wb") as fh:
        _write(fh, obj)
        fh.write(b"\n")


def _list_array(value, where):
    """A version-1 array: nested lists of numbers, or the float64 array
    the parser's object hook already made of them."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s is not a numeric array" % where) from None


def _bytes_array(value, where):
    """A version-2 array, {"f8le": base64, "shape": [rows, cols]}, as a
    fresh, writable, C-contiguous native float64 array."""
    if not isinstance(value, dict):
        raise ValueError("%s is not an array object (keys f8le, shape)" % where)
    if set(value) != {"f8le", "shape"}:
        raise ValueError("%s: array keys %s, expected ['f8le', 'shape']" % (where, sorted(value)))
    dims, text = value["shape"], value["f8le"]
    if not (isinstance(dims, list) and len(dims) == 2
            and all(linalg.is_int(d) and d >= 0 for d in dims)):
        raise ValueError("%s.shape must be two integers >= 0, got %r" % (where, dims))
    if not isinstance(text, str):
        raise ValueError("%s.f8le must be a base64 string" % where)
    rows, cols = dims
    # the array is made before the bytes it is filled from, so freeing
    # them leaves no hole under it in the heap; a hole per array raised a
    # tagging run's peak RSS by about 6%.  base64 holds 3 bytes per 4
    # characters, so a shape that needs more bytes than text has
    # characters is refused below without being allocated.
    arr = np.empty((rows, cols)) if rows * cols * 8 <= len(text) else None
    try:
        # b64decode(validate=True) without its ASCII copy of text; a
        # non-ASCII character is a ValueError here too
        raw = binascii.a2b_base64(text, strict_mode=True)
        # strict mode also takes padding past a full group, so a length
        # other than that of raw's one encoding is refused here
        if len(text) != (len(raw) + 2) // 3 * 4:
            raise ValueError
    except ValueError:      # a character outside the alphabet, bad padding
        raise ValueError("%s.f8le is not valid base64" % where) from None
    if len(raw) != rows * cols * 8:
        raise ValueError("%s.f8le holds %d bytes, shape %s needs %d"
                         % (where, len(raw), dims, rows * cols * 8))
    arr[...] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
    return arr


def _array(value, where, shape, version):
    arr = (_list_array if version == 1 else _bytes_array)(value, where)
    if arr.shape != tuple(shape):
        raise ValueError("%s has shape %s, expected %s" % (where, arr.shape, tuple(shape)))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s holds a non-finite value" % where)
    return arr


def _params_from_obj(raw, spec, version):
    """Parameter bundles, checked against the shapes the cells declare."""
    shapes = bundle_shapes(spec)
    if set(raw) != set(shapes):
        raise ValueError("params: bundles %s, expected %s" % (sorted(raw), sorted(shapes)))
    params = {}
    for bundle in sorted(shapes):
        if set(raw[bundle]) != set(shapes[bundle]):
            raise ValueError("params.%s: parameters %s, expected %s"
                             % (bundle, sorted(raw[bundle]), sorted(shapes[bundle])))
        params[bundle] = {name: _array(raw[bundle][name], "params.%s.%s" % (bundle, name),
                                       shape, version)
                          for name, shape in sorted(shapes[bundle].items())}
    return params


def _distinct_strings(value):
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


def model_from_obj(obj):
    """The model a parsed file holds; any defect is a ValueError that
    names the key."""
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ValueError("not a model file (no %r format tag)" % MODEL_FORMAT)
    version = obj.get("version")
    if not linalg.is_int(version):
        raise ValueError("version must be an integer, got %r" % (version,))
    if version not in READ_VERSIONS:
        raise ValueError("unsupported model version %r" % version)
    try:
        return _model_from_obj(obj, version)
    except KeyError as e:
        raise ValueError("missing key %s" % e) from None
    except (TypeError, AttributeError) as e:
        raise ValueError("malformed model: %s" % e) from None


def _model_from_obj(obj, version):
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
    words = obj["vocab"]["words"]
    if not (_distinct_strings(words) and words[:2] == [PAD, UNK]):
        raise ValueError("vocab.words must be a list of distinct strings that begins %r, %r"
                         % (PAD, UNK))
    # no token reaches the row of a word that is not one whitespace-free
    # token (files split on whitespace) or not normal (Vocabulary.index
    # normalizes a token first)
    for i, w in enumerate(words[2:], 2):
        if w.split() != [w]:
            raise ValueError("vocab.words[%d] %r is not a single token" % (i, w))
        if normalize(w) != w:
            raise ValueError("vocab.words[%d] %r is not a normalized word "
                             "(lowercase, digits as 0)" % (i, w))
    vocab = Vocabulary(index_to_word=list(words))
    emb = obj["embedding"]
    matrix = _array(emb["matrix"], "embedding.matrix", (len(vocab), emb["dim"]), version)
    table = EmbeddingTable(vocab, emb["dim"], matrix, trainable=emb["trainable"])
    f = obj["features"]
    trigger = f["trigger"]
    fconf = FeatureConfig(
        capitalization=f["capitalization"],
        gazetteers=[Lexicon(g["name"], g["entries"]) for g in f["gazetteers"]],
        trigger=Lexicon(trigger["name"], trigger["entries"]) if trigger else None,
        cache_tagset=list(f["cache_tagset"]) if f["cache_tagset"] else None,
    )
    tagset = obj["tagset"]
    if not _distinct_strings(tagset):
        raise ValueError("tagset must be a list of distinct tag strings")
    scheme = detect_scheme(tagset)
    if obj["scheme"] != scheme:
        raise ValueError("scheme must be %r, the scheme of the tagset, got %r"
                         % (scheme, obj["scheme"]))
    return Model(spec=spec, params=_params_from_obj(obj["params"], spec, version), table=table,
                 fconf=fconf, tagset=tagset, scheme=scheme, v_c=obj["v_c"])


def _arrays_of(obj):
    """json's object hook for version-1 arrays: a list at an ARRAY_KEYS
    key becomes a float64 array as soon as its object is parsed, so only
    one object's Python floats are alive at a time.  It is _list_array's
    own conversion, so a list that does not convert stays for _array to
    reject by name."""
    for key in ARRAY_KEYS.intersection(obj):
        if not isinstance(obj[key], list):
            continue
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
