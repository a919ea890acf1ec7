"""Model persistence.

One JSON document holds everything a tagger needs to run.  The writer
writes format version 3: the document on one line, json.dumps(...,
sort_keys=True, separators=(",", ":")) with each 2-D array written as
{"shape": [rows, cols]}, then a newline, then each array's little-endian
row-major float64 bytes, back to back in the order the line lists them,
and nothing after.  So equal models give equal files, and a load gives
back every bit, -0.0 and subnormals included.

The loader parses the line, then reads each array's bytes straight into
a fresh array, once its shape is known to fit in what the file has
left.  MODEL_FILE declares the document once, each key with its JSON
type or its rule.  The loader walks it and refuses a missing, unknown
or ill-typed key, or a value that breaks its rule, with a ValueError
naming the file and the key.  It also reads version 2, one JSON
document whose arrays are {"f8le": base64 of the bytes, "shape": ...},
and version 1, whose arrays are nested lists of decimal floats; only
the array leaf differs.
"""

import binascii
import io
import json
import os
import stat
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from . import linalg
from .architectures import ModelSpec, bundle_shapes
from .corpus import PAD, UNK, Lexicon, Vocabulary, normalize
from .model import Model
from .representation import EmbeddingTable, FeatureConfig
from .tagging import detect_scheme, split_tag

MODEL_FORMAT = "rnn-mention-tagger"
MODEL_VERSION = 3

# Rows of an array the writer converts at a time when they are not
# C-contiguous little-endian float64; a whole converted copy would raise
# training's peak RSS.
CHUNK_ROWS = 3072


def _shape_object(value):
    """An array's place in the header; its bytes follow the header."""
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape)}
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


# json's encoder at the file's settings escapes every non-ASCII
# character, so its text is its ASCII bytes.
_json_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                default=_shape_object).encode


def _lexicon_obj(lex):
    return {"name": lex.name, "entries": sorted(lex.entries)}


def _model_sections(model):
    """The file's content, every array left as the model's own ndarray."""
    fconf, table = model.fconf, model.table
    return {
        "format": MODEL_FORMAT, "version": MODEL_VERSION,
        "spec": dict(asdict(model.spec), **_fixed_values("spec")),
        "tagset": list(model.tagset), "scheme": detect_scheme(model.tagset), "v_c": model.v_c,
        "features": {"capitalization": fconf.capitalization,
                     "gazetteers": [_lexicon_obj(g) for g in fconf.gazetteers],
                     "trigger": _lexicon_obj(fconf.trigger) if fconf.trigger else None,
                     "cache_tagset": list(fconf.cache_tagset) if fconf.cache_tagset else None},
        "vocab": dict(words=list(table.vocab.index_to_word), **_fixed_values("vocab")),
        "embedding": {"dim": table.dim, "trainable": table.trainable, "matrix": table.matrix},
        "params": model.params,
    }


def _arrays(obj, where=""):
    """(dotted key, array) for every array in obj, in file order."""
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            yield from _arrays(value, where + key + ".")
        elif isinstance(value, np.ndarray):
            yield where + key, value


def save_model(model, path):
    """Write model to path; a non-finite array, which the loader refuses,
    is a FloatingPointError naming it, raised before the file is opened."""
    obj = _model_sections(model)
    arrays = list(_arrays(obj))
    for where, arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("%s holds a non-finite value" % where)
    header = _json_encode(obj).encode("ascii") + b"\n"
    with open(path, "wb") as fh:
        fh.write(header)
        for _, arr in arrays:       # every array in the file is 2-D
            for i in range(0, len(arr), CHUNK_ROWS):
                # a view, not a copy, when the rows are C-contiguous
                # little-endian float64: the file takes the buffer as it lies
                fh.write(np.ascontiguousarray(arr[i:i + CHUNK_ROWS], dtype="<f8"))


def _list_array(value, where):
    """A version-1 array: nested number lists, or the array _arrays_of made."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s is not a numeric array" % where) from None


def _dims(value, where, keys):
    """[rows, cols] of a version-2 or version-3 array object, whose keys
    are keys."""
    if not isinstance(value, dict):
        raise ValueError("%s is not an array object (keys %s)" % (where, ", ".join(keys)))
    if set(value) != set(keys):
        raise ValueError("%s: array keys %s, expected %s" % (where, sorted(value), keys))
    dims = value["shape"]
    if not (isinstance(dims, list) and len(dims) == 2
            and all(linalg.is_int(d) and d >= 0 for d in dims)):
        raise ValueError("%s.shape must be two integers >= 0, got %r" % (where, dims))
    return dims


def _bytes_array(value, where):
    """A version-2 array object as a fresh, writable, C-contiguous array."""
    dims = _dims(value, where, ["f8le", "shape"])
    text = value["f8le"]
    if not isinstance(text, str):
        raise ValueError("%s.f8le must be a base64 string" % where)
    rows, cols = dims
    # made before the bytes it is filled from, so freeing them leaves no
    # hole under it in the heap (6% of a tagging run's peak RSS); base64
    # holds 3 bytes per 4 characters, so a larger shape is not allocated
    arr = np.empty((rows, cols)) if rows * cols * 8 <= len(text) else None
    try:
        # b64decode(validate=True) with no ASCII copy of text (non-ASCII is a
        # ValueError too); strict mode takes excess padding, so check length
        raw = binascii.a2b_base64(text, strict_mode=True)
        if len(text) != (len(raw) + 2) // 3 * 4:
            raise ValueError
    except ValueError:      # a character outside the alphabet, bad padding
        raise ValueError("%s.f8le is not valid base64" % where) from None
    if len(raw) != rows * cols * 8:
        raise ValueError("%s.f8le holds %d bytes, shape %s needs %d"
                         % (where, len(raw), dims, rows * cols * 8))
    arr[...] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
    return arr


def _must(ok, key, what, value):
    if not ok:
        raise ValueError("%s must be %s, got %.60r" % (key, what, value))
    return value


def _array(shape, value, key, doc):
    # version 3's arrays were read from the file before the walk
    arr = (_bytes_array if doc["version"] == 2 else _list_array)(value, key)
    if arr.shape != tuple(shape):
        raise ValueError("%s has shape %s, expected %s" % (key, arr.shape, tuple(shape)))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s holds a non-finite value" % key)
    return arr


def _fixed(expected, value, key, doc):
    """A key the model has no option at, kept so that files keep their bytes."""
    return _must(type(value) is type(expected) and value == expected, key, repr(expected), value)


def _words(words, key, doc):
    """A word's place is its embedding row: the words are distinct, begin
    PAD, UNK, and each later one is a single token (files split on
    whitespace) and normal (Vocabulary.index normalizes a token), checked
    in one pass over the joined words; a list that fails is searched."""
    _must(type(words) is list and all(type(w) is str for w in words) and len(set(words))
          == len(words) and words[:2] == [PAD, UNK], key, "a list of distinct strings that "
          "begins %r, %r" % (PAD, UNK), words)
    joined = " ".join(words[2:])
    if normalize(joined) != joined or joined.split() != words[2:]:
        i, w = next((i, w) for i, w in enumerate(words[2:], 2)
                    if w.split() != [w] or normalize(w) != w)
        raise ValueError("%s[%d] %r is not %s" % (key, i, w, "a single token" if w.split() != [w]
                         else "a normalized word (lowercase, digits as 0)"))
    return words


def _tagset(tags, key, doc):
    """Distinct tags, each one that load_conll accepts."""
    _must(type(tags) is list and all(type(t) is str for t in tags)
          and len(set(tags)) == len(tags), key, "a list of distinct tag strings", tags)
    for i, tag in enumerate(tags):
        try:
            split_tag(tag)
        except ValueError as e:
            raise ValueError("%s[%d]: %s" % (key, i, e)) from None
    return tags


def _scheme(value, key, doc):
    """The tagset's scheme, which no code reads but the writer."""
    scheme = detect_scheme(doc["tagset"])
    return _must(type(value) is str and value == scheme, key,
                 "%r, the scheme of the tagset" % scheme, value)


def _spec(section):
    """The spec section's ModelSpec; ModelSpec's refusal starts with the
    field, which is the key under spec."""
    try:
        return ModelSpec(**{f.name: section[f.name] for f in fields(ModelSpec)})
    except ValueError as e:
        raise ValueError("spec.%s" % e) from None


class _Keys(dict):
    """An object whose keys the spec decides: another key set is refused
    whole, '<key>: <noun> [...], expected [...]'."""

    def __init__(self, noun, decls):
        super().__init__(decls)
        self.noun = noun


def _params(value, key, doc):
    return _walk(value, _Keys("bundles", {
        bundle: _Keys("parameters", {name: partial(_array, s) for name, s in shapes.items()})
        for bundle, shapes in bundle_shapes(_spec(doc["spec"])).items()}), key, doc)


# The model file, declared once, in walk order.  A dict is an object with
# exactly its keys; [d] a list of d; (None, d) null or d; a type a JSON
# type (int: no fraction, not a bool); anything else a rule(value, key,
# doc) that returns the value loaded or raises a ValueError naming key,
# reading from doc, the parsed file, only keys declared before its own.
LEXICON = {"name": str, "entries": [str]}
MODEL_FILE = {
    "format": partial(_fixed, MODEL_FORMAT),
    "version": lambda value, key, doc: _must(linalg.is_int(value) and 1 <= value <= MODEL_VERSION,
                                             key, "an integer in [1, %d]" % MODEL_VERSION, value),
    "spec": {"arch": str, "n_in": int, "hidden": int, "n_tags": int, "mesnil_k": int,
             "decoder_cell": (None, str), "encoder_cell": (None, str),
             "bias": partial(_fixed, False), "gru_candidate": partial(_fixed, "sigmoid")},
    "vocab": {"words": _words, "lowercase": partial(_fixed, True),
              "digits_to_zero": partial(_fixed, True)},
    "embedding": {"dim": int, "trainable": bool, "matrix": lambda value, key, doc: _array(
        (len(doc["vocab"]["words"]), linalg.check_size("embedding.dim", doc["embedding"]["dim"], 1)),
        value, key, doc)},
    "tagset": _tagset, "scheme": _scheme, "v_c": int,
    "features": {"capitalization": bool, "gazetteers": [LEXICON], "trigger": (None, LEXICON),
                 "cache_tagset": (None, [str])},
    "params": _params,
}
_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer"}


def _fixed_values(section):
    return {key: rule.args[0] for key, rule in MODEL_FILE[section].items()
            if isinstance(rule, partial) and rule.func is _fixed}


def _walk(value, decl, key, doc, in_list=False):
    """value checked against decl, with its arrays read.  A value of the
    wrong JSON type where the file has an object or a list, or in a list,
    breaks the document's shape: 'malformed model: <key> must be ...'."""
    if not isinstance(decl, (type, tuple, dict, list)):
        return decl(value, key, doc)
    nullable = isinstance(decl, tuple)
    if nullable and value is None:
        return None
    decl = decl[1] if nullable else decl
    if isinstance(value, np.ndarray):       # a list of lists _arrays_of read
        value = value.tolist()
    kind = dict if isinstance(decl, dict) else list if isinstance(decl, list) else decl
    _must(type(value) is kind, "malformed model: " * (in_list or kind in (dict, list))
          + (key or "the file"), "null or " * nullable + _NAMES[kind], value)
    if kind is list:        # a list of one JSON type is checked in one pass
        if isinstance(decl[0], type) and all(type(v) is decl[0] for v in value):
            return value
        return [_walk(v, decl[0], "%s[%d]" % (key, i), doc, True) for i, v in enumerate(value)]
    if kind is not dict:
        return value
    if isinstance(decl, _Keys) and set(value) != set(decl):
        raise ValueError("%s: %s %s, expected %s" % (key, decl.noun, sorted(value), sorted(decl)))
    out = {}
    for name, d in decl.items():
        if name not in value:
            raise ValueError("missing key %r in %s" % (name, key or "the file"))
        out[name] = _walk(value[name], d, key + "." + name if key else name, doc)
    for name in sorted(set(value) - set(decl)):
        raise ValueError("unknown key %s" % (key + "." + name if key else name))
    return out


def model_from_obj(obj):
    """The model a parsed file holds; a defect is a ValueError naming its key."""
    try:
        d = _walk(obj, MODEL_FILE, "", obj)
        emb, f = d["embedding"], d["features"]
        table = EmbeddingTable(Vocabulary(index_to_word=d["vocab"]["words"]), emb["dim"],
                               emb["matrix"], trainable=emb["trainable"])
        fconf = FeatureConfig(f["capitalization"], [Lexicon(**g) for g in f["gazetteers"]],
                              f["trigger"] and Lexicon(**f["trigger"]), f["cache_tagset"])
        return Model(spec=_spec(d["spec"]), params=d["params"], table=table, fconf=fconf,
                     tagset=d["tagset"], scheme=d["scheme"], v_c=d["v_c"])
    except KeyError as e:
        raise ValueError("missing key %s" % e) from None
    except (TypeError, AttributeError) as e:
        raise ValueError("malformed model: %s" % e) from None


def _arrays_of(obj):
    """json's object hook: a list of lists, in a valid file a version-1
    array, is read as its object is parsed, so few floats are alive at once."""
    for key, value in obj.items():
        if type(value) is list and value and type(value[0]) is list:
            try:
                obj[key] = np.array(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                pass
    return obj


def _parse(data):
    return json.loads(data.decode("utf-8"), object_hook=_arrays_of)


def _array_places(header):
    """(dotted key, object, name) of every array of a version-3 header,
    embedding.matrix and params.<bundle>.<name>, in the order it lists
    them; a section that is no object holds none, and the walk refuses it."""
    for section, value in header.items():
        if section == "embedding" and isinstance(value, dict) and "matrix" in value:
            yield "embedding.matrix", value, "matrix"
        elif section == "params" and isinstance(value, dict):
            for bundle, params in value.items():
                if isinstance(params, dict):
                    yield from (("params.%s.%s" % (bundle, name), params, name)
                                for name in params)


def _read_arrays(fh, header):
    """Put in place of each array object of header its array, read from
    fh; returns the last array's key and the bytes left after it."""
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        left = info.st_size - fh.tell()
    else:                               # a pipe's length is known once read
        fh = io.BytesIO(fh.read())
        left = len(fh.getbuffer())
    key = None
    for key, obj, name in _array_places(header):
        rows, cols = _dims(obj[name], key, ["shape"])
        need = rows * cols * 8
        if need > left:         # refused before anything is allocated
            raise ValueError("%s: shape %s needs %d bytes, the file has %d left"
                             % (key, [rows, cols], need, left))
        arr = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(arr) != need:
            raise ValueError("%s: the file ends inside its bytes" % key)
        left -= need
        obj[name] = arr.astype(np.float64, copy=False)
    return key, left


def load_model(path):
    """The model a file holds; a defect is a ValueError naming file and key."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            try:
                doc = _parse(head)
            except ValueError:      # no JSON line: version 1 on many lines, or a defect
                doc = None
            version = doc.get("version") if isinstance(doc, dict) else None
            if isinstance(doc, dict) and not (type(version) is int and version in (1, 2)):
                # version 3, or a version the walk refuses before any array
                last, left = _read_arrays(fh, doc) if version == MODEL_VERSION else (None, 0)
                model = model_from_obj(doc)
                if left:
                    raise ValueError("%s is the last array, but %d byte(s) follow it"
                                     % (last, left))
                return model
            rest = fh.read()
        if doc is None or rest.strip(b" \t\n\r"):   # json's whitespace
            doc = _parse(head + rest)
        return model_from_obj(doc)
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None
