import base64
import dataclasses
import json
import os
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger import serialize
from rnntagger.architectures import ModelSpec, init_model
from rnntagger.corpus import Lexicon, Sentence, Token, build_vocab, normalize
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus
from rnntagger.representation import EmbeddingTable, FeatureConfig
from rnntagger.serialize import CHUNK_ROWS, load_model, model_from_obj, save_model
from rnntagger.tagging import BIO2, make_tagset
from rnntagger.training import TrainConfig, train_epoch


def encoded(arr):
    """A version-2 array object, its base64 made in one piece."""
    arr = np.asarray(arr, dtype="<f8")
    return {"f8le": base64.b64encode(arr.tobytes()).decode("ascii"), "shape": list(arr.shape)}


def decoded(value):
    """The array a version-2 array object holds."""
    return np.frombuffer(base64.b64decode(value["f8le"]), dtype="<f8").reshape(value["shape"])


def v3_bytes(doc):
    """A version-3 file of doc, made apart from the writer: json.dumps of
    doc with each array as {"shape": ...}, a newline, then each array's
    little-endian float64 bytes in the order of the sorted keys."""
    arrays = []

    def header(value):
        if isinstance(value, dict):
            return {key: header(value[key]) for key in sorted(value)}
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return {"shape": list(value.shape)}
        return value

    head = json.dumps(header(doc), sort_keys=True, separators=(",", ":")).encode("ascii")
    return head + b"\n" + b"".join(arr.astype("<f8").tobytes() for arr in arrays)


def v3_doc(data):
    """The document a version-3 file holds, each {"shape": ...} object
    replaced by its array, read apart from the loader."""
    head, tail = data.split(b"\n", 1)
    doc, at = json.loads(head), 0

    def fill(obj):
        nonlocal at
        for key, value in obj.items():
            if isinstance(value, dict) and set(value) == {"shape"}:
                size = 8 * value["shape"][0] * value["shape"][1]
                obj[key] = np.frombuffer(tail[at:at + size], "<f8").reshape(value["shape"]).copy()
                at += size
            elif isinstance(value, dict):
                fill(value)

    fill(doc)
    assert at == len(tail)
    return doc


def sent(words, tags, doc="0"):
    return Sentence([Token(w, t) for w, t in zip(words, tags)], doc_id=doc)


DATA = [
    sent(["anna", "runs", "acme", "corp"], ["B-PER", "O", "B-ORG", "I-ORG"]),
    sent(["bob", "naps"], ["B-PER", "O"]),
]


def featureful_model():
    vocab = build_vocab(DATA)
    rng = SeededRng(8)
    table = EmbeddingTable.random(vocab, 3, rng)
    tagset = make_tagset(["ORG", "PER"], BIO2)
    fconf = FeatureConfig(
        capitalization=True,
        gazetteers=[Lexicon("orgs", {"acme corp", "globex"})],
        trigger=Lexicon("titles", {"mr", "dr"}),
        cache_tagset=tagset,
    )
    v_c = 1
    n_in = (3 + fconf.width) * (2 * v_c + 1)
    spec = ModelSpec(arch="contextual", n_in=n_in, hidden=5,
                     n_tags=len(tagset), decoder_cell="JORDAN_GRU",
                     encoder_cell="ELMAN")
    params = init_model(spec, rng)
    return Model(spec=spec, params=params, table=table, fconf=fconf,
                 tagset=tagset, scheme=BIO2, v_c=v_c)


def bare_model():
    vocab = build_vocab(DATA)
    rng = SeededRng(2)
    table = EmbeddingTable.random(vocab, 4, rng)
    tagset = make_tagset(["ORG", "PER"], BIO2)
    spec = ModelSpec(arch="basic", n_in=4 * 3, hidden=4,
                     n_tags=len(tagset), decoder_cell="ELMAN")
    return Model(spec=spec, params=init_model(spec, rng), table=table,
                 fconf=FeatureConfig(), tagset=tagset, scheme=BIO2, v_c=1)


def assert_models_equal(a, b):
    assert a.spec == b.spec
    assert a.tagset == b.tagset
    assert a.scheme == b.scheme
    assert a.v_c == b.v_c
    assert set(a.params) == set(b.params)
    for bundle in a.params:
        assert set(a.params[bundle]) == set(b.params[bundle])
        for name in a.params[bundle]:
            assert np.array_equal(a.params[bundle][name], b.params[bundle][name])
    assert np.array_equal(a.table.matrix, b.table.matrix)
    assert a.table.vocab.index_to_word == b.table.vocab.index_to_word
    assert a.table.trainable == b.table.trainable


def test_a_scheme_other_than_the_tagsets_saves_as_the_tagsets(tmp_path):
    bare, odd = tmp_path / "bare.json", tmp_path / "odd.json"
    save_model(bare_model(), str(bare))
    save_model(dataclasses.replace(bare_model(), scheme="nonsense"), str(odd))
    assert odd.read_bytes() == bare.read_bytes()
    assert load_model(str(odd)).scheme == BIO2

def test_round_trip_is_exact(tmp_path):
    model = featureful_model()
    # a little training makes every array carry arbitrary float values
    train_epoch(model, DATA, TrainConfig(learning_rate=0.05, v_c=1, seed=3))
    path = tmp_path / "m.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert_models_equal(model, loaded)
    assert loaded.fconf.capitalization is True
    assert [g.name for g in loaded.fconf.gazetteers] == ["orgs"]
    assert loaded.fconf.gazetteers[0].entries == {"acme corp", "globex"}
    assert loaded.fconf.trigger.entries == {"mr", "dr"}
    assert loaded.fconf.cache_tagset == model.tagset


def test_round_trip_without_features(tmp_path):
    model = bare_model()
    path = tmp_path / "m.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert_models_equal(model, loaded)
    assert loaded.fconf.gazetteers == []
    assert loaded.fconf.trigger is None
    assert loaded.fconf.cache_tagset is None


def test_loaded_model_tags_identically(tmp_path):
    model = featureful_model()
    train_epoch(model, DATA, TrainConfig(learning_rate=0.05, v_c=1, seed=3))
    path = tmp_path / "m.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert tag_corpus(loaded, DATA) == tag_corpus(model, DATA)


def test_save_is_byte_stable(tmp_path):
    model = featureful_model()
    p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    save_model(model, str(p1))
    save_model(model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    save_model(load_model(str(p1)), str(p3))
    assert p1.read_bytes() == p3.read_bytes()


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="format"):
        load_model(str(path))


def test_wrong_version_rejected(tmp_path):
    model = bare_model()
    path = tmp_path / "m.json"
    save_model(model, str(path))
    obj = v3_doc(path.read_bytes())
    obj["version"] = 99
    path.write_bytes(v3_bytes(obj))
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(str(tmp_path / "nope.json"))


# Two small trained models saved, in format version 1, by the code that
# still had the bias and GRU-candidate options (both at their defaults),
# with the tags they gave on COMPAT_INPUT at the time.  The bidirectional
# one has an ELMAN_GRU encoder and a JORDAN_GRU decoder; the contextual
# one an ELMAN encoder, a JORDAN decoder, and every feature channel.  The
# files of the same names in DATA_DIR have the same specs with bias on,
# which this code rejects; those in V2_DIR and V3_DIR are the compat
# files re-saved in format versions 2 and 3.
DATA_DIR = Path(__file__).parent / "data"
COMPAT_DIR = DATA_DIR / "compat"
V2_DIR = COMPAT_DIR / "v2"
V3_DIR = COMPAT_DIR / "v3"
COMPAT_INPUT = [
    Sentence([Token(w) for w in ["Anna", "visits", "Acme", "Corp", "today"]], doc_id="0"),
    Sentence([Token(w) for w in ["Mr.", "Bob", "naps"]], doc_id="0"),
    Sentence([Token(w) for w in ["Globex", "hires", "Anna"]], doc_id="1"),
]


@pytest.mark.parametrize("name", ["bidirectional_gru.json", "contextual_elman_jordan.json"])
def test_committed_model_files_load_tag_and_resave_identically(name, tmp_path):
    # the version-1 file and its version-2 and version-3 copies hold the
    # same model, tag as the version-1 file did when it was written, and
    # all re-save to the committed version-3 bytes, which are the model's
    # file as v3_bytes makes it
    expected = json.loads((DATA_DIR / "compat_tags.json").read_text())[name]
    v1, v2, v3 = COMPAT_DIR / name, V2_DIR / name, V3_DIR / name
    assert [json.loads(p.read_bytes().split(b"\n")[0])["version"]
            for p in (v1, v2, v3)] == [1, 2, 3]
    models = [load_model(str(p)) for p in (v1, v2, v3)]
    assert_models_equal(*models[:2])
    assert_models_equal(*models[1:])
    assert v3.read_bytes() == v3_bytes(model_doc(models[0]))
    for model in models:
        assert tag_corpus(model, COMPAT_INPUT) == expected
        save_model(model, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == v3.read_bytes()


def model_obj(**changes):
    obj = json.loads((COMPAT_DIR / "bidirectional_gru.json").read_text())
    obj.update(changes)
    return obj


@pytest.mark.parametrize("name", ["bidirectional_gru.json", "contextual_elman_jordan.json"])
def test_bias_on_model_files_rejected(name):
    path = DATA_DIR / name
    with pytest.raises(ValueError, match=r"%s: spec\.bias must be False, got True" % path):
        load_model(str(path))


@pytest.mark.parametrize("section,key,value", [
    ("spec", "bias", True),
    ("spec", "bias", 0),
    ("spec", "gru_candidate", "tanh"),
    ("vocab", "lowercase", False),
    ("vocab", "digits_to_zero", False),
])
def test_fixed_keys_hold_their_one_value(section, key, value):
    obj = model_obj()
    obj[section][key] = value
    with pytest.raises(ValueError, match=r"^%s\.%s must be " % (section, key)):
        model_from_obj(obj)
    del obj[section][key]
    with pytest.raises(ValueError, match="missing key '%s'" % key):
        model_from_obj(obj)


def test_model_file_lexicon_entries_follow_the_lexicon_file_rule():
    obj = json.loads((COMPAT_DIR / "contextual_elman_jordan.json").read_text())
    obj["features"]["gazetteers"][0]["entries"] = ["Acme  Corp", "globex", " "]
    obj["features"]["trigger"]["entries"] = ["dr.", "Mr.\t"]
    model = model_from_obj(obj)
    assert model.fconf.gazetteers[0].entries == {"acme corp", "globex"}
    assert model.fconf.trigger.entries == {"dr.", "mr."}
    expected = json.loads((DATA_DIR / "compat_tags.json").read_text())
    assert tag_corpus(model, COMPAT_INPUT) == expected["contextual_elman_jordan.json"]


def test_missing_key_is_named():
    obj = model_obj()
    del obj["vocab"]
    with pytest.raises(ValueError, match="missing key 'vocab'"):
        model_from_obj(obj)
    with pytest.raises(ValueError, match="missing key 'spec'"):
        model_from_obj({"format": "rnn-mention-tagger", "version": 1})


@pytest.mark.parametrize("section,key", [(None, "notes"), ("spec", "foo"), ("vocab", "extra")])
def test_unknown_key_is_named(section, key, tmp_path):
    obj = model_obj()
    (obj if section is None else obj[section])[key] = 1
    name = key if section is None else "%s.%s" % (section, key)
    with pytest.raises(ValueError, match=r"^unknown key %s$" % re.escape(name)):
        model_from_obj(obj)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    message = r"^%s: unknown key %s$" % (re.escape(str(path)), re.escape(name))
    with pytest.raises(ValueError, match=message):
        load_model(str(path))


def featureful_obj():
    """The version-1 compat file with every feature channel on."""
    return json.loads((COMPAT_DIR / "contextual_elman_jordan.json").read_text())


def set_at(path, value):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return mutate


GAZETTEER = ("features", "gazetteers", 0)
TRIGGER = ("features", "trigger")


@pytest.mark.parametrize("mutate,message", [
    # an unknown key in every object, not only the top, spec and vocab
    (set_at(("features", "zz"), 1), r"unknown key features\.zz"),
    (set_at(("embedding", "zz"), 1), r"unknown key embedding\.zz"),
    (set_at(GAZETTEER + ("zz",), 1), r"unknown key features\.gazetteers\[0\]\.zz"),
    (set_at(TRIGGER + ("zz",), 1), r"unknown key features\.trigger\.zz"),
    (lambda obj: obj["features"]["gazetteers"][0].pop("name"),
     r"missing key 'name' in features\.gazetteers\[0\]"),
    # flags are JSON booleans: "no" is truthy and would train the table
    (set_at(("embedding", "trainable"), "no"),
     r"embedding\.trainable must be a boolean, got 'no'"),
    (set_at(("embedding", "trainable"), None),
     r"embedding\.trainable must be a boolean, got None"),
    (set_at(("features", "capitalization"), 1),
     r"features\.capitalization must be a boolean, got 1"),
    (set_at(("features", "capitalization"), 0),
     r"features\.capitalization must be a boolean, got 0"),
    # null, or the object or list itself: [] and 0 are no longer read as null
    (set_at(TRIGGER, 0), r"malformed model: features\.trigger must be null or an object, got 0"),
    (set_at(TRIGGER, []),
     r"malformed model: features\.trigger must be null or an object, got \[\]"),
    (set_at(("features", "cache_tagset"), 0),
     r"malformed model: features\.cache_tagset must be null or a list, got 0"),
    (set_at(("features", "cache_tagset"), []),
     r"features\.cache_tagset must be null or equal tagset"),
    # a lexicon is a name and a list of strings
    (set_at(GAZETTEER + ("entries",), "acme"),
     r"malformed model: features\.gazetteers\[0\]\.entries must be a list, got 'acme'"),
    (set_at(GAZETTEER + ("entries",), [1]),
     r"malformed model: features\.gazetteers\[0\]\.entries\[0\] must be a string, got 1"),
    (set_at(("features", "gazetteers"), [1]),
     r"malformed model: features\.gazetteers\[0\] must be an object, got 1"),
    (set_at(GAZETTEER + ("name",), 1), r"features\.gazetteers\[0\]\.name must be a string, got 1"),
    (set_at(TRIGGER + ("name",), None), r"features\.trigger\.name must be a string, got None"),
    # a tag load_conll refuses, an unhashable cell name, a size as a string
    (lambda obj: obj["tagset"].__setitem__(2, "Q-X"), r"tagset\[2\]: unknown tag string: 'Q-X'"),
    (set_at(("spec", "decoder_cell"), []),
     r"spec\.decoder_cell must be null or a string, got \[\]"),
    (set_at(("embedding", "dim"), "2"), r"embedding\.dim must be an integer, got '2'"),
    # a value the dataclasses refuse is named by its key too
    (set_at(("spec", "arch"), "x"), r"spec\.arch: unknown architecture 'x'"),
    (set_at(("spec", "n_in"), 0), r"spec\.n_in must be an integer >= 1, got 0"),
    (set_at(("spec", "mesnil_k"), -1), r"spec\.mesnil_k must be an integer >= 0, got -1"),
    (set_at(("embedding", "dim"), 0), r"embedding\.dim must be an integer >= 1, got 0"),
])
def test_defect_anywhere_in_the_file_names_its_key(mutate, message):
    obj = featureful_obj()
    mutate(obj)
    with pytest.raises(ValueError, match="^" + message):
        model_from_obj(obj)


@pytest.mark.parametrize("path,value,message", [
    (("features", "gazetteers"), [[1, 2]],
     r"malformed model: features\.gazetteers\[0\] must be an object, got \[1\.0, 2\.0\]"),
    (("features", "cache_tagset"), [[1]],
     r"malformed model: features\.cache_tagset\[0\] must be a string, got \[1\.0\]"),
    (("scheme",), [[1, 2], [3, 4]], r"scheme must be 'BIO2', the scheme of the tagset, got "),
    (("v_c",), [[1]], r"v_c must be an integer, got \[\[1\.0\]\]"),
])
def test_version_1_list_of_lists_away_from_an_array_names_its_key(path, value, message, tmp_path):
    # the parser's object hook reads every list of lists as an array, as
    # only arrays have that form in a valid file; elsewhere the key is
    # still refused by its own rule
    obj = featureful_obj()
    set_at(path, value)(obj)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="^%s: %s" % (re.escape(str(model)), message)):
        load_model(str(model))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b0", "B", "7", "é", "É", "x y", "", " ", "\t", "ς", "Σ",
                                 "İ", "ǅ", "a b", " ", "٣"]), max_size=6, unique=True))
def test_joined_vocabulary_check_equals_the_word_by_word_rule(extra):
    # one pass over the joined words refuses a vocabulary exactly when
    # some word is not a single normal token, and names the first one
    words = ["<pad>", "<unk>"] + extra
    bad = [(i, w) for i, w in enumerate(words[2:], 2) if w.split() != [w] or normalize(w) != w]
    if bad:
        with pytest.raises(ValueError, match=r"^vocab\.words\[%d\] " % bad[0][0]):
            serialize._words(words, "vocab.words", {})
    else:
        assert serialize._words(words, "vocab.words", {}) == words


def test_parameter_shape_checked_against_the_cells():
    obj = model_obj()
    obj["params"]["decoder"]["T"] = obj["params"]["decoder"]["T"][:-1]
    with pytest.raises(ValueError, match=r"params\.decoder\.T has shape \(3, 5\), expected \(4, 5\)"):
        model_from_obj(obj)


def test_parameter_names_checked_against_the_cells():
    obj = model_obj()
    obj["params"]["decoder"]["W_h"] = obj["params"]["decoder"].pop("W_o")
    with pytest.raises(ValueError, match=r"params\.decoder: parameters"):
        model_from_obj(obj)
    obj = model_obj()
    del obj["params"]["encoder_bwd"]
    with pytest.raises(ValueError, match="params: bundles"):
        model_from_obj(obj)


def test_input_width_must_match_window_and_features():
    with pytest.raises(ValueError, match="n_in"):
        model_from_obj(model_obj(v_c=2))


def test_tagset_must_match_output_width():
    obj = model_obj()
    obj["tagset"] = obj["tagset"][:-1]
    with pytest.raises(ValueError, match="tagset has 4 tags, spec.n_tags is 5"):
        model_from_obj(obj)


def test_malformed_values_rejected():
    with pytest.raises(ValueError, match="malformed model"):
        model_from_obj(model_obj(spec=[1, 2]))
    obj = model_obj()
    obj["params"]["decoder_out"]["W"][1] = [0.5]
    with pytest.raises(ValueError, match=r"params\.decoder_out\.W is not a numeric array"):
        model_from_obj(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_arrays_rejected(value):
    obj = model_obj()
    obj["params"]["decoder_out"]["W"][0][0] = value
    with pytest.raises(ValueError, match=r"params\.decoder_out\.W holds a non-finite"):
        model_from_obj(obj)
    obj = model_obj()
    obj["embedding"]["matrix"][2][1] = value
    with pytest.raises(ValueError, match=r"embedding\.matrix holds a non-finite"):
        model_from_obj(obj)


def test_load_error_names_the_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"format":"rnn-mention-tagger","version":1}')
    with pytest.raises(ValueError, match="trunc.json: missing key 'spec'"):
        load_model(str(path))


def test_ragged_array_in_a_file_names_the_file_and_the_key(tmp_path):
    # the loader turns arrays into float64 as it parses; a list that does
    # not convert is still refused by name
    obj = model_obj()
    obj["params"]["decoder_out"]["W"][1] = [0.5]
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as e:
        load_model(str(path))
    assert str(e.value) == "%s: params.decoder_out.W is not a numeric array" % path


# ------------------------------------------------ version-2 array refusals

def with_bits(pattern):
    """Set the third value of the array object to the float64 whose bits
    are pattern."""
    def mutate(value):
        arr = decoded(value).copy()
        arr.view("<u8")[0, 2] = pattern
        value.update(encoded(arr))
    return mutate


def set_key(key, new):
    return lambda value: value.update({key: new})


NAN, INF = 0x7FF8000000000000, 0x7FF0000000000000
# params.decoder_out.W of the version-2 bidirectional compat file is a
# 5 x 4 array: 160 bytes, 216 base64 characters of which the last two are
# padding
V2_REFUSALS = [
    ("alphabet", lambda v: v.update(f8le="-" + v["f8le"][1:]), ".f8le is not valid base64"),
    ("url-safe alphabet", lambda v: v.update(f8le=v["f8le"][:5] + "_" + v["f8le"][6:]),
     ".f8le is not valid base64"),
    ("whitespace", lambda v: v.update(f8le=v["f8le"][:4] + "\n" + v["f8le"][4:]),
     ".f8le is not valid base64"),
    ("not ascii", lambda v: v.update(f8le="\u00e9" + v["f8le"][1:]), ".f8le is not valid base64"),
    # a fullwidth A (NFKC folds it to A) and a character past the BMP, each
    # in place of an alphabet character mid-string
    ("fullwidth letter", lambda v: v.update(f8le=v["f8le"][:9] + "\uff21" + v["f8le"][10:]),
     ".f8le is not valid base64"),
    ("not in the BMP", lambda v: v.update(f8le=v["f8le"][:9] + "\U0001d400" + v["f8le"][10:]),
     ".f8le is not valid base64"),
    ("no padding", lambda v: v.update(f8le=v["f8le"].rstrip("=")), ".f8le is not valid base64"),
    ("padding inside", lambda v: v.update(f8le=v["f8le"][:8] + "=" + v["f8le"][9:]),
     ".f8le is not valid base64"),
    ("excess padding", lambda v: v.update(f8le=v["f8le"] + "===="), ".f8le is not valid base64"),
    ("odd length", lambda v: v.update(f8le=v["f8le"][:-3]), ".f8le is not valid base64"),
    ("one group short", lambda v: v.update(f8le=v["f8le"][:-4]),
     ".f8le holds 159 bytes, shape [5, 4] needs 160"),
    ("one value short", lambda v: v.update(f8le=encoded(decoded(v).ravel()[:-1])["f8le"]),
     ".f8le holds 152 bytes, shape [5, 4] needs 160"),
    ("one value more", lambda v: v.update(f8le=encoded(np.append(decoded(v), 1.0))["f8le"]),
     ".f8le holds 168 bytes, shape [5, 4] needs 160"),
    ("empty", set_key("f8le", ""), ".f8le holds 0 bytes, shape [5, 4] needs 160"),
    ("f8le a number", set_key("f8le", 5), ".f8le must be a base64 string"),
    ("f8le a list", set_key("f8le", ["AAAA"]), ".f8le must be a base64 string"),
    ("shape past memory", set_key("shape", [2**40, 2**40]),
     ".f8le holds 160 bytes, shape [1099511627776, 1099511627776] needs %d" % 2**83),
    ("one dim", set_key("shape", [20]), ".shape must be two integers >= 0, got [20]"),
    ("three dims", set_key("shape", [5, 4, 1]), ".shape must be two integers >= 0, got [5, 4, 1]"),
    ("negative", set_key("shape", [-5, -4]), ".shape must be two integers >= 0, got [-5, -4]"),
    ("float dim", set_key("shape", [5.0, 4]), ".shape must be two integers >= 0, got [5.0, 4]"),
    ("bool dim", set_key("shape", [5, True]), ".shape must be two integers >= 0, got [5, True]"),
    ("shape a string", set_key("shape", "5x4"), ".shape must be two integers >= 0, got '5x4'"),
    ("shape null", set_key("shape", None), ".shape must be two integers >= 0, got None"),
    ("transposed", set_key("shape", [4, 5]), " has shape (4, 5), expected (5, 4)"),
    ("other size", lambda v: v.update(encoded(np.zeros((4, 4)))),
     " has shape (4, 4), expected (5, 4)"),
    ("missing key", lambda v: v.pop("shape"), ": array keys ['f8le'], expected ['f8le', 'shape']"),
    ("extra key", set_key("dtype", "<f8"),
     ": array keys ['dtype', 'f8le', 'shape'], expected ['f8le', 'shape']"),
    ("nan", with_bits(NAN), " holds a non-finite value"),
    ("negative nan", with_bits(NAN | 1 << 63), " holds a non-finite value"),
    ("signalling nan", with_bits(INF | 1), " holds a non-finite value"),
    ("inf", with_bits(INF), " holds a non-finite value"),
    ("-inf", with_bits(INF | 1 << 63), " holds a non-finite value"),
]


def v2_obj():
    return json.loads((V2_DIR / "bidirectional_gru.json").read_text())


@pytest.mark.parametrize("mutate,message", [pytest.param(m, msg, id=case)
                                            for case, m, msg in V2_REFUSALS])
def test_version_2_array_defect_names_the_file_and_the_key(mutate, message, tmp_path):
    obj = v2_obj()
    mutate(obj["params"]["decoder_out"]["W"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as e:
        load_model(str(path))
    assert str(e.value) == "%s: params.decoder_out.W%s" % (path, message)


# embedding.matrix of that file is 12 x 3: 288 bytes, whose base64 has no
# padding, so b64decode takes padding added after it
@pytest.mark.parametrize("mutate,message", [
    (lambda v: v.update(f8le=v["f8le"][:-1]), ".f8le is not valid base64"),
    (lambda v: v.update(f8le=v["f8le"] + "="), ".f8le is not valid base64"),
    (lambda v: v.update(f8le=v["f8le"] + "===="), ".f8le is not valid base64"),
    (with_bits(INF), " holds a non-finite value"),
], ids=["odd length", "padding added", "padding group added", "inf"])
def test_version_2_embedding_matrix_defect_is_named(mutate, message):
    obj = v2_obj()
    assert not obj["embedding"]["matrix"]["f8le"].endswith("=")
    mutate(obj["embedding"]["matrix"])
    with pytest.raises(ValueError) as e:
        model_from_obj(obj)
    assert str(e.value) == "embedding.matrix" + message


def test_each_version_reads_only_its_own_array_form(tmp_path):
    # a version-2 file whose array is a version-1 list, and the reverse;
    # through the file, so the version-1 parser's object hook is on
    v1, v2 = model_obj(), v2_obj()
    v1["params"]["decoder_out"]["W"], v2["params"]["decoder_out"]["W"] = (
        v2["params"]["decoder_out"]["W"], v1["params"]["decoder_out"]["W"])
    for obj, message in [(v2, "is not an array object (keys f8le, shape)"),
                         (v1, "is not a numeric array")]:
        path = tmp_path / ("v%d.json" % obj["version"])
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as e:
            load_model(str(path))
        assert str(e.value) == "%s: params.decoder_out.W %s" % (path, message)


def model_arrays(model):
    return [model.table.matrix] + [model.params[b][n] for b in sorted(model.params)
                                   for n in sorted(model.params[b])]


def edge_valued_model():
    """bare_model with -0.0, subnormals and extremes in every array."""
    model = bare_model()
    pool = np.array(EDGE_FLOATS + [2.2250738585072014e-308, -1.5e-310])
    for i, arr in enumerate(model_arrays(model)):
        arr.flat[:] = np.resize(np.roll(pool, i), arr.size)
    model.table.matrix[0] = 0.0     # the PAD row
    return model


def assert_loads_fresh_and_bit_exact(model, path):
    for a, b in zip(model_arrays(model), model_arrays(load_model(str(path))), strict=True):
        assert np.ascontiguousarray(a, "<f8").tobytes() == b.tobytes()     # -0.0 and
        assert b.dtype == np.float64 and b.dtype.isnative       # subnormals keep their bits
        assert b.flags.owndata and b.flags.writeable and b.flags.aligned
        assert b.flags.c_contiguous


def test_version_2_arrays_load_fresh_and_bit_exact(tmp_path):
    model = edge_valued_model()
    path = tmp_path / "m.json"
    path.write_bytes(json_oracle_bytes(model))
    assert json.loads(path.read_text())["version"] == 2
    assert_loads_fresh_and_bit_exact(model, path)


def test_version_3_arrays_load_fresh_and_bit_exact(tmp_path):
    # the sources include a Fortran-order, a big-endian, a transposed and a
    # strided array; each loads as a fresh C-contiguous native array
    model = edge_valued_model()
    layouts = [np.asfortranarray, lambda a: a.astype(">f8"), lambda a: a.T.copy().T]
    for (bundle, name), relayout in zip(sorted((b, n) for b in model.params
                                               for n in model.params[b]), layouts):
        model.params[bundle][name] = relayout(model.params[bundle][name])
    model.table.matrix = np.repeat(model.table.matrix, 2, axis=1)[:, ::2]
    path = tmp_path / "m.json"
    save_model(model, str(path))
    assert_loads_fresh_and_bit_exact(model, path)


# ------------------------------------------------ version-3 refusals

def header_edit(edit):
    """A mutation of a version-3 file: edit(header) on its parsed first
    line, the tail kept as it is."""
    def mutate(data):
        head, tail = data.split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + tail
    return mutate


def w_object(new):
    """The header's params.decoder_out.W object replaced by new."""
    return header_edit(lambda header: header["params"]["decoder_out"].update(W=new))


def doc_edit(edit):
    """A mutation of a version-3 file: edit(doc) on its document with the
    arrays in place, written back by v3_bytes."""
    def mutate(data):
        doc = v3_doc(data)
        edit(doc)
        return v3_bytes(doc)
    return mutate


def w_bits(pattern):
    def edit(doc):
        doc["params"]["decoder_out"]["W"].view("<u8")[0, 2] = pattern
    return doc_edit(edit)


# the bidirectional version-3 compat file: a 1092-byte header line, then
# 4256 bytes of arrays from embedding.matrix (12 x 3) to the last one,
# params.encoder_fwd.W_z (4 x 9, 288 bytes); params.decoder_out.W is 5 x 4
V3_REFUSALS = [
    ("tail one byte short", lambda d: d[:-1],
     "params.encoder_fwd.W_z: shape [4, 9] needs 288 bytes, the file has 287 left"),
    ("tail cut inside an earlier array", lambda d: d[:-300],
     "params.encoder_fwd.W_r: shape [4, 9] needs 288 bytes, the file has 276 left"),
    ("no tail", lambda d: d.split(b"\n")[0] + b"\n",
     "embedding.matrix: shape [12, 3] needs 288 bytes, the file has 0 left"),
    ("no newline", lambda d: d.split(b"\n")[0],
     "embedding.matrix: shape [12, 3] needs 288 bytes, the file has 0 left"),
    ("a byte after the last array", lambda d: d + b"\x00",
     "params.encoder_fwd.W_z is the last array, but 1 byte(s) follow it"),
    ("a newline after the last array", lambda d: d + b"\n",
     "params.encoder_fwd.W_z is the last array, but 1 byte(s) follow it"),
    ("a value after the last array", lambda d: d + bytes(8),
     "params.encoder_fwd.W_z is the last array, but 8 byte(s) follow it"),
    ("shape grown", w_object({"shape": [6, 4]}),
     "params.encoder_fwd.W_z: shape [4, 9] needs 288 bytes, the file has 256 left"),
    ("shape shrunk", w_object({"shape": [4, 4]}),
     "params.decoder_out.W has shape (4, 4), expected (5, 4)"),
    ("transposed", w_object({"shape": [4, 5]}),
     "params.decoder_out.W has shape (4, 5), expected (5, 4)"),
    ("shape past memory", w_object({"shape": [2**40, 2**40]}),
     "params.decoder_out.W: shape [1099511627776, 1099511627776] needs %d bytes, "
     "the file has 2656 left" % 2**83),
    ("one dim", w_object({"shape": [20]}), "params.decoder_out.W.shape must be two integers "
     ">= 0, got [20]"),
    ("three dims", w_object({"shape": [5, 4, 1]}),
     "params.decoder_out.W.shape must be two integers >= 0, got [5, 4, 1]"),
    ("negative", w_object({"shape": [-5, -4]}),
     "params.decoder_out.W.shape must be two integers >= 0, got [-5, -4]"),
    ("float dim", w_object({"shape": [5.0, 4]}),
     "params.decoder_out.W.shape must be two integers >= 0, got [5.0, 4]"),
    ("bool dim", w_object({"shape": [5, True]}),
     "params.decoder_out.W.shape must be two integers >= 0, got [5, True]"),
    ("shape a string", w_object({"shape": "5x4"}),
     "params.decoder_out.W.shape must be two integers >= 0, got '5x4'"),
    ("missing key", w_object({}), "params.decoder_out.W: array keys [], expected ['shape']"),
    ("extra key", w_object({"dtype": "<f8", "shape": [5, 4]}),
     "params.decoder_out.W: array keys ['dtype', 'shape'], expected ['shape']"),
    ("version-2 object", w_object({"f8le": "AAAA", "shape": [5, 4]}),
     "params.decoder_out.W: array keys ['f8le', 'shape'], expected ['shape']"),
    ("a list", w_object([[0.5] * 4] * 5),
     "params.decoder_out.W is not an array object (keys shape)"),
    ("embedding a list", header_edit(lambda h: h["embedding"].update(matrix=[[0.0] * 3] * 12)),
     "embedding.matrix is not an array object (keys shape)"),
    ("nan", w_bits(NAN), "params.decoder_out.W holds a non-finite value"),
    ("negative nan", w_bits(NAN | 1 << 63), "params.decoder_out.W holds a non-finite value"),
    ("signalling nan", w_bits(INF | 1), "params.decoder_out.W holds a non-finite value"),
    ("inf", w_bits(INF), "params.decoder_out.W holds a non-finite value"),
    ("-inf", w_bits(INF | 1 << 63), "params.decoder_out.W holds a non-finite value"),
    ("version 4", header_edit(lambda h: h.update(version=4)),
     "version must be an integer in [1, 3], got 4"),
    ("version a string", header_edit(lambda h: h.update(version="3")),
     "version must be an integer in [1, 3], got '3'"),
    ("version 3.0", header_edit(lambda h: h.update(version=3.0)),
     "version must be an integer in [1, 3], got 3.0"),
    ("version true", header_edit(lambda h: h.update(version=True)),
     "version must be an integer in [1, 3], got True"),
    ("unknown key", header_edit(lambda h: h["params"].update(zz=1)),
     "params: bundles ['decoder', 'decoder_out', 'encoder_bwd', 'encoder_fwd', 'zz'], "
     "expected ['decoder', 'decoder_out', 'encoder_bwd', 'encoder_fwd']"),
]


@pytest.mark.parametrize("mutate,message", [pytest.param(m, msg, id=case)
                                            for case, m, msg in V3_REFUSALS])
def test_version_3_defect_names_the_file_and_the_key(mutate, message, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(mutate((V3_DIR / "bidirectional_gru.json").read_bytes()))
    with pytest.raises(ValueError) as e:
        load_model(str(path))
    assert str(e.value) == "%s: %s" % (path, message)


@pytest.mark.parametrize("mutate", [
    header_edit(lambda h: h.update(version=2)),
    header_edit(lambda h: h.update(version=1)),
    lambda d: d.replace(b",", b"\n,", 1),
    lambda d: d.replace(b"}", b"", 1),
], ids=["version 2", "version 1", "header on two lines", "header not JSON"])
def test_header_that_is_not_one_version_3_json_line_is_refused(mutate, tmp_path):
    # read as a one-document file, whose tail is no JSON text
    path = tmp_path / "m.json"
    path.write_bytes(mutate((V3_DIR / "bidirectional_gru.json").read_bytes()))
    with pytest.raises(ValueError, match="^%s: " % re.escape(str(path))):
        load_model(str(path))


def test_every_version_loads_through_a_pipe(tmp_path):
    # a pipe has no size to check the header's shapes against until it is read
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for source in (COMPAT_DIR, V2_DIR, V3_DIR):
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=((source / "bidirectional_gru.json").read_bytes(),))
        writer.start()
        loaded = load_model(str(fifo))
        writer.join()
        assert_models_equal(loaded, load_model(str(V3_DIR / "bidirectional_gru.json")))


# ------------------------------------------------- the streaming writer

def model_doc(model):
    """The model's document, built apart from the writer, each array left
    as the model's own ndarray."""
    fconf = model.fconf

    def lexicon(lex):
        return {"name": lex.name, "entries": sorted(lex.entries)}

    return {
        "format": "rnn-mention-tagger",
        "version": 3,
        "spec": dict(dataclasses.asdict(model.spec), bias=False, gru_candidate="sigmoid"),
        "tagset": list(model.tagset),
        "scheme": model.scheme,
        "v_c": model.v_c,
        "features": {
            "capitalization": fconf.capitalization,
            "gazetteers": [lexicon(g) for g in fconf.gazetteers],
            "trigger": lexicon(fconf.trigger) if fconf.trigger else None,
            "cache_tagset": list(fconf.cache_tagset) if fconf.cache_tagset else None,
        },
        "vocab": {"words": list(model.table.vocab.index_to_word),
                  "lowercase": True, "digits_to_zero": True},
        "embedding": {"dim": model.table.dim, "trainable": model.table.trainable,
                      "matrix": model.table.matrix},
        "params": {bundle: dict(grads) for bundle, grads in model.params.items()},
    }


def json_oracle_bytes(model):
    """The model as a version-2 file: json.dump of its document with each
    array's base64 made in one piece."""
    obj = model_doc(model)
    obj["version"] = 2
    obj["embedding"]["matrix"] = encoded(obj["embedding"]["matrix"])
    obj["params"] = {bundle: {name: encoded(arr) for name, arr in grads.items()}
                     for bundle, grads in obj["params"].items()}
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1 + 0.2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([bare_model, featureful_model]),
       st.integers(0, 2**32 - 1),
       st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       st.sampled_from([0, 0, 0, CHUNK_ROWS]))
def test_writer_bytes_equal_json_dump(build, seed, extra_words, drawn, extra_rows):
    # the writer's bytes are v3_bytes of the model's document.  CHUNK_ROWS
    # more words give the embedding matrix more rows than the writer
    # converts at a time; the drawn words vary the rows of the last chunk
    model = build()
    for word in extra_words + ["\x00%d" % i for i in range(extra_rows)]:
        model.table.vocab.add(word)
    rng = np.random.default_rng(seed)
    model.table = EmbeddingTable(model.table.vocab, model.table.dim,
                                 rng.normal(size=(len(model.table.vocab), model.table.dim)),
                                 trainable=bool(rng.integers(2)))
    pool = np.array(EDGE_FLOATS + drawn)
    for arr in [model.table.matrix] + [a for g in model.params.values() for a in g.values()]:
        arr[:] = rng.normal(size=arr.shape) * 10.0 ** rng.integers(-300, 300)
        picks = rng.random(arr.shape) < 0.5
        arr[picks] = rng.choice(pool, size=int(picks.sum()))
    # the writer writes each array's own buffer, so arrays that are not
    # C-contiguous little-endian go in too: a Fortran-order parameter, a
    # transposed copy, a big-endian copy and a strided slice, each holding
    # the values it replaces
    slots = [(grads, n) for _, grads in sorted(model.params.items()) for n in sorted(grads)]
    for j, relayout in zip(rng.choice(len(slots), 3, replace=False),
                           [np.asfortranarray, lambda a: a.T.copy().T,
                            lambda a: a.astype(">f8")]):
        grads, name = slots[j]
        grads[name] = relayout(grads[name])
    model.table.matrix = np.repeat(model.table.matrix, 2, axis=1)[:, ::2]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, str(path))
        assert path.read_bytes() == v3_bytes(model_doc(model))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_array_refused_before_the_file_is_touched(value, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"previous contents")
    model = bare_model()
    model.params["decoder"]["U"][1, 2] = value
    with pytest.raises(FloatingPointError, match=r"^params\.decoder\.U holds a non-finite value$"):
        save_model(model, str(path))
    model = bare_model()
    model.table.matrix[3, 0] = value
    with pytest.raises(FloatingPointError, match=r"^embedding\.matrix holds a non-finite value$"):
        save_model(model, str(path))
    assert path.read_bytes() == b"previous contents"
    with pytest.raises(FloatingPointError):
        save_model(model, str(tmp_path / "new.json"))
    assert not (tmp_path / "new.json").exists()
