import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnntagger.architectures import ModelSpec, init_model
from rnntagger.corpus import Lexicon, Sentence, Token, build_vocab
from rnntagger.linalg import SeededRng
from rnntagger.model import Model, tag_corpus
from rnntagger.representation import EmbeddingTable, FeatureConfig
from rnntagger.serialize import load_model, model_from_obj, save_model
from rnntagger.tagging import BIO2, make_tagset
from rnntagger.training import TrainConfig, train_epoch


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
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(str(tmp_path / "nope.json"))


# Two small trained models saved by the code that still had the bias and
# GRU-candidate options (both at their defaults), with the tags they gave
# on COMPAT_INPUT at the time.  The bidirectional one has an ELMAN_GRU
# encoder and a JORDAN_GRU decoder; the contextual one an ELMAN encoder,
# a JORDAN decoder, and every feature channel.  The files of the same
# names in DATA_DIR have the same specs with bias on, which this code
# rejects.
DATA_DIR = Path(__file__).parent / "data"
COMPAT_DIR = DATA_DIR / "compat"
COMPAT_INPUT = [
    Sentence([Token(w) for w in ["Anna", "visits", "Acme", "Corp", "today"]], doc_id="0"),
    Sentence([Token(w) for w in ["Mr.", "Bob", "naps"]], doc_id="0"),
    Sentence([Token(w) for w in ["Globex", "hires", "Anna"]], doc_id="1"),
]


@pytest.mark.parametrize("name", ["bidirectional_gru.json", "contextual_elman_jordan.json"])
def test_committed_model_files_load_tag_and_resave_identically(name, tmp_path):
    path = COMPAT_DIR / name
    model = load_model(str(path))
    expected = json.loads((DATA_DIR / "compat_tags.json").read_text())[name]
    assert tag_corpus(model, COMPAT_INPUT) == expected
    save_model(model, str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == path.read_bytes()


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


# ------------------------------------------------- the streaming writer

def json_oracle_bytes(model):
    """The model file as json.dump writes it from list copies of every
    array: the writer's output must equal this byte for byte."""
    fconf = model.fconf

    def lexicon(lex):
        return {"name": lex.name, "entries": sorted(lex.entries)}

    obj = {
        "format": "rnn-mention-tagger",
        "version": 1,
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
                      "matrix": model.table.matrix.tolist()},
        "params": {bundle: {name: arr.tolist() for name, arr in grads.items()}
                   for bundle, grads in model.params.items()},
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1 + 0.2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([bare_model, featureful_model]),
       st.integers(0, 2**32 - 1),
       st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_writer_bytes_equal_json_dump(build, seed, extra_words, drawn):
    model = build()
    for word in extra_words:
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, str(path))
        assert path.read_bytes() == json_oracle_bytes(model)


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
