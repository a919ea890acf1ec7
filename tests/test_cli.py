"""Exit codes, config-file merging, and end-to-end command wiring."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rnntagger import cli, pretrain
from rnntagger.corpus import Sentence, load_conll, vocab_from_counts, write_conll
from rnntagger.representation import load_embeddings
from rnntagger.serialize import load_model
from rnntagger.synth import memorize_corpus
from rnntagger.tagging import IOBES, make_tagset, spans_to_tags, tags_to_spans
from rnntagger.training import GradCheckReport
from test_serialize import v3_bytes, v3_doc

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_gold(path, size=8, seed=1):
    write_conll(memorize_corpus(size=size, seed=seed), str(path))
    return str(path)


# ----------------------------------------------------------- exit codes

def test_no_command_is_usage_error(capsys):
    rc, out, err = run([], capsys)
    assert rc == 1
    assert "command is required" in err


def test_unknown_command_is_usage_error(capsys):
    rc, out, err = run(["frobnicate"], capsys)
    assert rc == 1


def test_missing_train_flag_is_usage_error(capsys):
    rc, out, err = run(["train", "--out-model", "/tmp/whatever.json"], capsys)
    assert rc == 1
    assert "--train" in err


def test_contextual_jordan_encoder_rejected(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    rc, out, err = run(["train", "--train", gold, "--arch", "contextual",
                        "--encoder", "jordan", "--out-model",
                        str(tmp_path / "m.json")], capsys)
    assert rc == 1
    assert "Elman-family" in err


def test_bad_flag_value_is_usage_error(capsys):
    rc, out, err = run(["synth", "--size", "three", "--out", "/tmp/x"], capsys)
    assert rc == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc, out, err = run(["tag", "--model", str(tmp_path / "nope.json"),
                        "--input", str(tmp_path / "also-nope"),
                        "--out", str(tmp_path / "p.conll")], capsys)
    assert rc == 2
    assert "data error" in err


def tag_with_model(tmp_path, capsys, model_text):
    """Tag with a model file of model_text, or of its bytes."""
    model = tmp_path / "m.json"
    model.write_bytes(model_text if isinstance(model_text, bytes) else model_text.encode())
    rc, out, err = run(["tag", "--model", str(model), "--input", write_gold(tmp_path / "in.conll"),
                        "--out", str(tmp_path / "p.conll")], capsys)
    return rc, err, str(model)


def test_truncated_model_file_is_data_error(tmp_path, capsys):
    rc, err, path = tag_with_model(tmp_path, capsys,
                                   '{"format":"rnn-mention-tagger","version":1}')
    assert rc == 2
    assert "%s: missing key 'spec'" % path in err


def test_wrong_parameter_shape_is_data_error(tmp_path, capsys):
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj["params"]["encoder_fwd"]["U_z"] = [[0.0]]
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: params.encoder_fwd.U_z has shape (1, 1), expected (4, 4)" % path in err


@pytest.mark.parametrize("name", ["bidirectional_gru.json", "contextual_elman_jordan.json"])
def test_bias_on_model_file_is_data_error(tmp_path, capsys, name):
    path = DATA_DIR / name
    rc, out, err = run(["tag", "--model", str(path), "--input", write_gold(tmp_path / "in.conll"),
                        "--out", str(tmp_path / "p.conll")], capsys)
    assert rc == 2
    assert "%s: spec.bias must be False" % path in err


@pytest.mark.parametrize("section,key,value", [
    ("spec", "gru_candidate", "tanh"),
    ("vocab", "lowercase", False),
    ("vocab", "digits_to_zero", False),
])
def test_model_file_fixed_key_is_data_error(tmp_path, capsys, section, key, value):
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj[section][key] = value
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: %s.%s must be " % (path, section, key) in err


def test_model_file_unknown_key_is_data_error(tmp_path, capsys):
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj["spec"]["foo"] = 1
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: unknown key spec.foo" % path in err


def huge_int_in_matrix(obj):
    obj["embedding"]["matrix"][2][0] = 10 ** 400     # no float64 holds it


def list_in_tagset(obj):
    obj["tagset"][0] = ["O"]


def null_trigger_entry(obj):
    obj["features"]["trigger"] = {"name": "t", "entries": [None]}


def repeated_vocab_word(obj):
    words = obj["vocab"]["words"]
    words[3] = words[2]         # words[3]'s row is no longer reached


def word_on_the_pad_row(obj):
    words = obj["vocab"]["words"]
    words[0], words[2] = words[2], words[0]


def unk_missing(obj):
    del obj["vocab"]["words"][1]


VOCAB_FORM = "vocab.words must be a list of distinct strings that begins '<pad>', '<unk>'"


@pytest.mark.parametrize("mutate,problem", [
    (huge_int_in_matrix, "embedding.matrix is not a numeric array"),
    (list_in_tagset, "tagset must be a list of distinct tag strings"),
    (null_trigger_entry, "malformed model: "),
    (repeated_vocab_word, VOCAB_FORM),
    (word_on_the_pad_row, VOCAB_FORM),
    (unk_missing, VOCAB_FORM),
])
def test_model_file_value_of_the_wrong_type_is_data_error(tmp_path, capsys, mutate, problem):
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    mutate(obj)
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: %s" % (path, problem) in err


@pytest.mark.parametrize("word,problem", [
    ("Bob", "is not a normalized word"),
    ("b0b1", "is not a normalized word"),
    ("", "is not a single token"),
    ("a b", "is not a single token"),
    ("x\ty", "is not a single token"),
])
def test_model_file_word_no_token_can_reach_is_data_error(tmp_path, capsys, word, problem):
    # Vocabulary.index normalizes a token before the lookup, so 'Bob' and
    # 'b0b1' both reach <unk>, never this row; token files split on
    # whitespace, so no token is empty or holds a space or a tab
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj["vocab"]["words"][2] = word
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: vocab.words[2] %r %s" % (path, word, problem) in err


@pytest.mark.parametrize("value", [42, None, "nonsense", "IOBES"])
def test_model_file_scheme_other_than_the_tagsets_is_data_error(tmp_path, capsys, value):
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj["scheme"] = value
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert ("%s: scheme must be 'BIO2', the scheme of the tagset, got %r"
            % (path, value)) in err


def trained_model(tmp_path, capsys, *flags):
    """The document of a small model trained by the CLI (v_c 0, dim 3),
    its arrays in place; v3_bytes writes it back."""
    out = tmp_path / "trained.json"
    assert run(["train", "--train", write_gold(tmp_path / "g.conll", size=4), "--dim", "3",
                "--hidden", "3", "--vc", "0", "--epochs", "1", "--out-model", str(out)]
               + list(flags), capsys)[0] == 0
    return v3_doc(out.read_bytes())


@pytest.mark.parametrize("arch,key,value", [
    ("bidirectional", "version", 1.0),
    ("bidirectional", "version", True),
    ("bidirectional", "v_c", 1.0),
    ("bidirectional", "v_c", True),
    ("bidirectional", "embedding.dim", 3.0),
    ("bidirectional", "spec.hidden", 4.0),
    ("bidirectional", "spec.n_in", 9.0),
    ("bidirectional", "spec.n_tags", 5.0),
    ("mesnil", "spec.mesnil_k", 1.0),
])
def test_model_file_integer_key_of_another_type_is_data_error(tmp_path, capsys, arch, key,
                                                                 value):
    if arch == "mesnil":
        obj = trained_model(tmp_path, capsys, "--arch", "mesnil", "--encoder", "elman")
    else:
        obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    *section, name = key.split(".")
    (obj[section[0]] if section else obj)[name] = value
    rc, err, path = tag_with_model(tmp_path, capsys,
                                   v3_bytes(obj) if arch == "mesnil" else json.dumps(obj))
    assert rc == 2
    assert "%s: %s must be an integer" % (path, key) in err


def test_model_file_negative_mesnil_k_is_data_error_for_any_architecture(tmp_path, capsys):
    obj = json.loads((DATA_DIR / "compat" / "v2" / "contextual_elman_jordan.json").read_text())
    obj["spec"]["mesnil_k"] = -1
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: spec.mesnil_k must be an integer >= 0, got -1" % path in err


def test_train_negative_mesnil_k_is_usage_error_for_any_architecture(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll", size=4),
                      "--arch", "contextual", "--mesnil-k", "-1", "--dim", "3", "--hidden", "3",
                      "--vc", "0", "--epochs", "1", "--out-model", str(out)], capsys)
    assert rc == 1
    assert "usage error: --mesnil-k must be an integer >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["first three tags", "reversed"])
def test_model_file_cache_tagset_other_than_the_tagset_is_data_error(tmp_path, capsys, how):
    obj = trained_model(tmp_path, capsys, "--cache", "true")
    tagset = obj["tagset"]
    assert obj["features"]["cache_tagset"] == tagset and len(tagset) == 7
    if how == "reversed":
        obj["features"]["cache_tagset"] = tagset[::-1]
    else:
        # with v_c 0 and no other feature, the last 4 input columns are
        # the cache columns of the tags cut off; the file stays consistent
        obj["features"]["cache_tagset"] = tagset[:3]
        obj["spec"]["n_in"] -= 4
        obj["params"]["decoder"]["U"] = obj["params"]["decoder"]["U"][:, :-4]
    rc, err, path = tag_with_model(tmp_path, capsys, v3_bytes(obj))
    assert rc == 2
    assert "%s: features.cache_tagset must be null or equal tagset" % path in err


@pytest.mark.parametrize("caps", ["false", "true"])
def test_embedding_rows_with_no_values_are_data_error(tmp_path, capsys, caps):
    vec = tmp_path / "vec.txt"
    vec.write_text("3 0\nanna\nbob\ncarl\n")
    out = tmp_path / "m.json"
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"),
                      "--embeddings", str(vec), "--caps", caps, "--hidden", "4",
                      "--vc", "0", "--epochs", "1", "--out-model", str(out)], capsys)
    assert rc == 2
    assert "data error: %s:2: row for 'anna' has no values" % vec in err
    assert not out.exists()


def test_train_dim_below_one_is_usage_error(tmp_path, capsys):
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"), "--dim", "0",
                      "--out-model", str(tmp_path / "m.json")], capsys)
    assert rc == 1
    assert "usage error: --dim must be an integer >= 1, got 0" in err


def test_eval_sentence_count_mismatch_is_data_error(tmp_path, capsys):
    a = write_gold(tmp_path / "a.conll", size=4)
    b = write_gold(tmp_path / "b.conll", size=6)
    rc, out, err = run(["eval", "--gold", a, "--pred", b], capsys)
    assert rc == 2


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    bad = GradCheckReport(blocks={"decoder.U": 0.5}, abs_diffs={"decoder.U": 0.1})
    monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: bad)
    rc, out, err = run(["gradcheck", "--arch", "basic", "--decoder", "elman"],
                       capsys)
    assert rc == 3
    assert "FAILED" in err


def test_gradcheck_with_a_nan_gradient_exits_3(monkeypatch, capsys):
    from test_training import nan_in_analytic_block
    nan_in_analytic_block(monkeypatch, "decoder", "V")
    rc, out, err = run(["gradcheck", "--arch", "basic", "--decoder", "elman", "--hidden", "2",
                        "--n-in", "2", "--n-tags", "2", "--tokens", "2"], capsys)
    assert rc == 3
    assert "FAILED" in err and "passed" not in out
    assert "max relative error: nan" in out and "max absolute difference: nan" in out


# ---------------------------------------------------------- config file

def test_config_supplies_values_and_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# run settings\nseed=9\nsize=4\n")
    out1 = tmp_path / "one.conll"
    rc, out, err = run(["synth", "--config", str(cfg), "--size", "6",
                        "--out", str(out1)], capsys)
    assert rc == 0
    lines = dict(l.split("=", 1) for l in out.splitlines()
                 if "=" in l and not l.startswith("#"))
    assert lines["seed"] == "9"   # from the file
    assert lines["size"] == "6"   # flag wins over the file

    # the same settings spelled on the command line give identical output
    out2 = tmp_path / "two.conll"
    run(["synth", "--seed", "9", "--size", "6", "--out", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sneed=9\n")
    rc, out, err = run(["synth", "--config", str(cfg), "--out",
                        str(tmp_path / "x")], capsys)
    assert rc == 1
    assert "sneed" in err


def test_config_respects_choices(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task=destroy\n")
    rc, out, err = run(["synth", "--config", str(cfg), "--out",
                        str(tmp_path / "x")], capsys)
    assert rc == 1


@pytest.mark.parametrize("line,problem", [
    ("hidden=abc", "config key 'hidden': argument --hidden: invalid int value: 'abc'"),
    ("sneed=9", "config key 'sneed' is unknown"),
    ("arch=wide", "config key 'arch': argument --arch: invalid choice: 'wide'"),
    ("clip=true", "config key 'clip' is unknown"),
    ("scheme=iobes", "config key 'scheme' is unknown"),
])
def test_config_errors_name_file_and_line(tmp_path, capsys, line, problem):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# settings\n\nepochs=1\n" + line + "\nseed=2\n")
    rc, out, err = run(["train", "--config", str(cfg), "--out-model",
                        str(tmp_path / "m.json")], capsys)
    assert rc == 1
    assert "usage error: %s:4: %s" % (cfg, problem) in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_scheme_flag_is_usage_error(tmp_path, capsys, command):
    # train reads the scheme from its tags and eval reads spans by one
    # rule, so neither takes a scheme
    gold = write_gold(tmp_path / "g.conll")
    out = tmp_path / "m.json"
    argv = {"train": ["train", "--train", gold, "--out-model", str(out)],
            "eval": ["eval", "--gold", gold, "--pred", gold]}[command]
    rc, _, err = run(argv + ["--scheme", "bio2"], capsys)
    assert rc == 1
    assert "unrecognized arguments: --scheme bio2" in err
    assert not out.exists()


def test_effective_config_is_echoed_sorted(tmp_path, capsys):
    rc, out, err = run(["synth", "--out", str(tmp_path / "x.conll")], capsys)
    keys = [l.split("=", 1)[0] for l in out.splitlines()
            if "=" in l and not l.startswith("#")]
    assert keys == sorted(keys)
    assert "seed" in keys and "task" in keys


# ------------------------------------------------------- input files

# each reader meets a byte that is not UTF-8 on line 2 of its file
READER_FILES = {
    "conll": b"anna B-PER\ncaf\xff O\n",
    "lexicon": b"acme corp\ncaf\xff\n",
    "embeddings": b"anna 0.1 0.2\ncaf\xff 0.3 0.4\n",
    "raw text": b"anna runs\ncaf\xff naps\n",
    "config": b"epochs=1\nhidden=\xff\n",
    "triggers": b"mr.\ncaf\xff\n",
}


def reader_argv(reader, path, tmp_path):
    if reader == "raw text":
        return ["embed", path, "--dim", "4", "--out", str(tmp_path / "v.txt")]
    train = ["train", "--train", write_gold(tmp_path / "g.conll"), "--dim", "4",
             "--hidden", "4", "--vc", "0", "--epochs", "1",
             "--out-model", str(tmp_path / "m.json")]
    flag = {"conll": "--train", "lexicon": "--gazetteers",
            "embeddings": "--embeddings", "config": "--config",
            "triggers": "--triggers"}[reader]
    return train + [flag, path]


@pytest.mark.parametrize("reader", sorted(READER_FILES))
def test_non_utf8_line_names_file_and_line(tmp_path, capsys, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(READER_FILES[reader])
    rc, out, err = run(reader_argv(reader, str(path), tmp_path), capsys)
    assert rc == 2
    assert "data error: %s:2: not UTF-8: 'utf-8' codec can't decode byte 0xff" % path in err


def test_unknown_tag_names_file_and_line(tmp_path, capsys):
    gold = tmp_path / "g.conll"
    gold.write_text("anna B-PER\nruns O\n\nbob X-PER\nnaps O\n")
    rc, out, err = run(["train", "--train", str(gold), "--out-model",
                        str(tmp_path / "m.json")], capsys)
    assert rc == 2
    assert "data error: %s:4: unknown tag string: 'X-PER'" % gold in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command,flag", [
    ("train", "--lr"), ("train", "--clip-threshold"),
    ("embed", "--lr"), ("embed", "--subsample"),
])
def test_rates_must_be_finite_and_positive(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--train", write_gold(tmp_path / "g.conll"), "--dim", "4",
                "--hidden", "4", "--vc", "0", "--epochs", "1",
                "--out-model", str(out)]
    else:
        argv = ["embed", corpus_file(tmp_path), "--dim", "4", "--out", str(out)]
    rc, _, err = run(argv + [flag, value], capsys)
    assert rc == 1
    assert "must be finite and > 0, got %r" % float(value) in err
    assert not out.exists()


def test_bad_rate_is_reported_before_the_data_is_read(tmp_path, capsys):
    rc, _, err = run(["train", "--train", str(tmp_path / "missing.conll"), "--lr", "nan",
                      "--out-model", str(tmp_path / "m.json")], capsys)
    assert rc == 1
    assert "usage error: --lr must be finite and > 0" in err


@pytest.mark.parametrize("command", ["train", "embed"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--train", str(tmp_path / "missing.conll"), "--out-model", str(out)]
    else:
        argv = ["embed", str(tmp_path / "missing.txt"), "--out", str(out)]
    rc, _, err = run(argv + ["--seed", "-1"], capsys)
    assert rc == 1
    assert "usage error: --seed must be an integer >= 0, got -1" in err
    assert not out.exists()


# ---------------------------------------------------------------- synth

def test_synth_same_seed_same_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.conll", tmp_path / "b.conll"
    assert run(["synth", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["synth", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.conll"
    run(["synth", "--seed", "8", "--out", str(c)], capsys)
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("task,size", [("memorize", 50), ("future-dep", 40)])
def test_synth_default_size(tmp_path, capsys, task, size):
    out = tmp_path / "s.conll"
    assert run(["synth", "--task", task, "--out", str(out)], capsys)[0] == 0
    assert len(load_conll(str(out))) == size


@pytest.mark.parametrize("task,size", [
    ("memorize", "0"), ("memorize", "-3"),
    ("future-dep", "0"), ("future-dep", "-2"), ("future-dep", "3"),
])
def test_synth_bad_size_is_usage_error(tmp_path, capsys, task, size):
    out = tmp_path / "s.conll"
    rc, _, err = run(["synth", "--task", task, "--size", size, "--out", str(out)], capsys)
    assert rc == 1
    assert "usage error: --size must be" in err
    assert not out.exists()


def test_synth_future_dep_task(tmp_path, capsys):
    out = tmp_path / "f.conll"
    rc, _, _ = run(["synth", "--task", "future-dep", "--size", "6",
                    "--out", str(out)], capsys)
    assert rc == 0
    sents = load_conll(str(out))
    assert len(sents) == 6 and all(len(s) == 5 for s in sents)


# ---------------------------------------------------------------- embed

EMBED_FLAGS = ["--objective", "cbow", "--dim", "6", "--window", "2",
               "--negatives", "3", "--subsample", "1.0", "--epochs", "2",
               "--seed", "5"]


def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the cat sat on the mat\nthe dog sat on the rug\n" * 10)
    return str(path)


def test_embed_same_seed_same_bytes(tmp_path, capsys):
    corpus = corpus_file(tmp_path)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["embed", corpus] + EMBED_FLAGS + ["--out", str(a)], capsys)[0] == 0
    assert run(["embed", corpus] + EMBED_FLAGS + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def embed_config(tmp_path, corpus):
    """A config file holding EMBED_FLAGS and corpus=corpus."""
    cfg = tmp_path / "e.cfg"
    pairs = zip(EMBED_FLAGS[::2], EMBED_FLAGS[1::2])
    cfg.write_text("".join("%s=%s\n" % (flag[2:], value) for flag, value in pairs)
                   + "corpus=%s\n" % corpus)
    return str(cfg)


def test_embed_config_corpus_is_the_positional(tmp_path, capsys):
    corpus = corpus_file(tmp_path)
    flags, cfg = tmp_path / "flags.txt", tmp_path / "cfg.txt"
    assert run(["embed", corpus] + EMBED_FLAGS + ["--out", str(flags)], capsys)[0] == 0
    rc, out, _ = run(["embed", "--config", embed_config(tmp_path, corpus),
                      "--out", str(cfg)], capsys)
    assert rc == 0
    assert "corpus=%s\n" % corpus in out
    assert cfg.read_bytes() == flags.read_bytes()


def test_embed_corpus_on_the_command_line_overrides_the_config(tmp_path, capsys):
    corpus = corpus_file(tmp_path)
    other = tmp_path / "other.txt"
    other.write_text("a dog ran by the red barn\nthe barn was red\n" * 10)
    want, got = tmp_path / "want.txt", tmp_path / "got.txt"
    assert run(["embed", str(other)] + EMBED_FLAGS + ["--out", str(want)], capsys)[0] == 0
    rc, out, _ = run(["embed", "--config", embed_config(tmp_path, corpus), str(other),
                      "--out", str(got)], capsys)
    assert rc == 0
    assert "corpus=%s\n" % other in out
    assert got.read_bytes() == want.read_bytes()


def test_embed_zero_epochs_writes_initialized_matrix(tmp_path, capsys):
    corpus = corpus_file(tmp_path)
    out = tmp_path / "init.txt"
    rc, _, _ = run(["embed", corpus, "--objective", "skipgram", "--dim", "6",
                    "--epochs", "0", "--seed", "5", "--out", str(out)], capsys)
    assert rc == 0

    from collections import Counter
    cfg = pretrain.EmbedConfig(dim=6, epochs=0, seed=5)
    counts = Counter(w for s in pretrain.read_corpus(corpus) for w in s)
    expected = pretrain.init_embed_model(
        vocab_from_counts(counts), "skipgram", cfg,
        cli.SeededRng(5))
    loaded = load_embeddings(str(out))
    assert loaded.vocab.index_to_word == expected.vocab.index_to_word
    assert np.array_equal(loaded.matrix, expected.input_vectors)


def test_embed_missing_out_is_usage_error(tmp_path, capsys):
    rc, out, err = run(["embed", corpus_file(tmp_path)], capsys)
    assert rc == 1
    assert "--out" in err


def test_embed_that_makes_no_prediction_exits_2_without_writing_the_file(tmp_path, capsys):
    # at the default --subsample and seed 2 none of these 35 words is kept
    corpus = tmp_path / "tiny.txt"
    corpus.write_text(" ".join("w" + c for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHI") + "\n")
    out = tmp_path / "vec.txt"
    rc, _, err = run(["embed", str(corpus), "--dim", "4", "--seed", "2", "--out", str(out)],
                     capsys)
    assert rc == 2
    assert "data error: %s: no epoch made a prediction: at --subsample 1e-05" % corpus in err
    assert not out.exists()


def test_embed_says_which_epochs_made_no_prediction(tmp_path, capsys):
    # at seed 4 the first epoch keeps no two words of one sentence and the
    # later two do: the run is written, and epoch 1 has no mean loss to show
    corpus = tmp_path / "two.txt"
    corpus.write_text("alpha beta\ngamma delta\nalpha beta\n")
    out = tmp_path / "vec.txt"
    rc, stdout, _ = run(["embed", str(corpus), "--objective", "cbow", "--dim", "2",
                         "--window", "1", "--negatives", "1", "--subsample", "0.05",
                         "--epochs", "3", "--seed", "4", "--out", str(out)], capsys)
    assert rc == 0
    lines = [line for line in stdout.splitlines() if line.startswith("epoch ")]
    assert lines[0] == "epoch 1  no predictions"
    assert lines[1].startswith("epoch 2  mean loss ")
    assert lines[2].startswith("epoch 3  mean loss ")
    assert out.exists()


# ------------------------------------------------------------- training

TRAIN_FLAGS = ["--arch", "basic", "--decoder", "elman", "--dim", "6",
               "--hidden", "5", "--lr", "0.05", "--vc", "1", "--vd", "3",
               "--epochs", "2", "--seed", "1"]


def test_train_tag_eval_round_trip(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    model_path = tmp_path / "m.json"
    rc, out, _ = run(["train", "--train", gold, "--dev", gold] + TRAIN_FLAGS
                     + ["--out-model", str(model_path)], capsys)
    assert rc == 0
    assert "best epoch" in out

    model = load_model(str(model_path))
    assert model.spec.hidden == 5

    pred = tmp_path / "p.conll"
    rc, _, _ = run(["tag", "--model", str(model_path), "--input", gold,
                    "--out", str(pred)], capsys)
    assert rc == 0
    for line in pred.read_text().splitlines():
        if line:
            assert len(line.split()) == 2

    rc, out, _ = run(["eval", "--gold", gold, "--pred", str(pred)], capsys)
    assert rc == 0
    assert "f1=" in out


def test_train_on_iobes_tags_writes_an_iobes_tagset(tmp_path, capsys):
    sents = memorize_corpus(size=8, seed=1)
    for s in sents:
        for tok, tag in zip(s.tokens, spans_to_tags(tags_to_spans(s.tags()), len(s), IOBES)):
            tok.gold_tag = tag
    gold, out = tmp_path / "g.conll", tmp_path / "m.json"
    write_conll(sents, str(gold))
    assert run(["train", "--train", str(gold), "--dim", "3", "--hidden", "3", "--vc", "0",
                "--epochs", "1", "--out-model", str(out)], capsys)[0] == 0
    obj = v3_doc(out.read_bytes())
    types = {sp.type for s in sents for sp in tags_to_spans(s.tags())}
    assert obj["scheme"] == IOBES
    assert obj["tagset"] == make_tagset(types, IOBES)
    assert load_model(str(out)).scheme == IOBES


def test_train_same_seed_same_model_bytes(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["train", "--train", gold] + TRAIN_FLAGS + ["--out-model", str(a)], capsys)
    run(["train", "--train", gold] + TRAIN_FLAGS + ["--out-model", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_the_same_bytes_whatever_the_blas_thread_count(tmp_path):
    # 23-35 token sentences make the input-wide products big enough for
    # a threaded BLAS to split them, and so to round them differently
    short = memorize_corpus(size=40, seed=1)
    gold = tmp_path / "g.conll"
    write_conll([Sentence([t for s in short[i:i + 6] for t in s.tokens])
                 for i in range(0, len(short), 6)], str(gold))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("m%s.json" % threads)
        subprocess.run([sys.executable, "-m", "rnntagger.cli", "train", "--train", str(gold),
                        "--arch", "bidirectional", "--encoder", "elman_gru",
                        "--decoder", "jordan_gru", "--dim", "50", "--caps", "true",
                        "--profile", "conll", "--epochs", "1", "--out-model", str(out)],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                       stdout=subprocess.DEVNULL)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# cmd_train called as a plain function, not through cli.main: the model's
# bytes rest on the library's own BLAS pins alone
LIBRARY_TRAIN = ("import sys; from rnntagger.cli import build_parser, cmd_train; "
                 "cmd_train(build_parser()[0].parse_args(sys.argv[1:]))")


def test_library_training_writes_the_same_bytes_whatever_the_blas_thread_count(tmp_path):
    short = memorize_corpus(size=40, seed=1)
    gold = tmp_path / "g.conll"
    write_conll([Sentence([t for s in short[i:i + 6] for t in s.tokens])
                 for i in range(0, len(short), 6)], str(gold))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("m%s.json" % threads)
        subprocess.run([sys.executable, "-c", LIBRARY_TRAIN, "train", "--train", str(gold),
                        "--arch", "bidirectional", "--encoder", "elman_gru",
                        "--decoder", "jordan_gru", "--dim", "50", "--caps", "true",
                        "--profile", "conll", "--epochs", "1", "--out-model", str(out)],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                       stdout=subprocess.DEVNULL)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_model_declaring_an_array_larger_than_the_file_is_refused_before_allocating(tmp_path):
    # the header asks for a 40 GB embedding matrix over a 4 kB tail; with
    # the address space of the child alone held to 2 GiB, an allocation
    # of it would end in a MemoryError
    head, tail = (DATA_DIR / "compat" / "v3" / "bidirectional_gru.json").read_bytes().split(
        b"\n", 1)
    header = json.loads(head)
    header["embedding"]["matrix"]["shape"] = [100000000, 50]
    model, out = tmp_path / "big.json", tmp_path / "p.conll"
    model.write_bytes(json.dumps(header).encode() + b"\n" + tail)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    limit = 2 * 1024 ** 3
    proc = subprocess.run([sys.executable, "-m", "rnntagger.cli", "tag", "--model", str(model),
                           "--input", write_gold(tmp_path / "in.conll"), "--out", str(out)],
                          env=env, capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("data error: %s: embedding.matrix: shape [100000000, 50] needs "
                           "40000000000 bytes, the file has %d left\n" % (model, len(tail)))
    assert not out.exists()



def run_limited(argv, cwd):
    """rnntagger argv in a child whose address space alone is held to 2 GiB,
    so that a size the machine cannot hold fails there and nowhere else."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    limit = 2 * 1024 ** 3
    return subprocess.run([sys.executable, "-m", "rnntagger.cli"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)))


@pytest.mark.parametrize("argv, what, nbytes", [
    (["embed", "raw.txt", "--window", "1000000000", "--out", "out.txt"],
     "--window 1000000000", 16000000000),
    (["embed", "raw.txt", "--dim", "1000000000", "--out", "out.txt"],
     "--dim 1000000000", 48000000000),
    (["embed", "raw.txt", "--objective", "cconcat", "--dim", "50", "--window", "100000000",
      "--out", "out.txt"], "--dim 50 with --window 100000000", 240000001200),
    (["gradcheck", "--hidden", "1000000000"],
     "--hidden 1000000000 --n-in 6 --n-tags 3", 8000000072000000000),
], ids=["embed-window", "embed-dim", "cconcat-window", "gradcheck-hidden"])
def test_size_flag_the_process_cannot_hold_is_refused_by_name(tmp_path, argv, what, nbytes):
    # the flag is checked before the corpus is read, so raw.txt need not exist
    proc = run_limited(argv, tmp_path)
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("usage error: %s needs %d bytes, more than the "
                                  % (what, nbytes)), proc.stderr
    assert proc.stderr.endswith(" this process can hold\n")
    assert list(tmp_path.iterdir()) == []


def test_memory_error_is_a_resource_error_naming_the_command(tmp_path):
    # 102 rows of 2e7 floats pass the flag check, which assumes the
    # smallest vocabulary of 3 rows, but not the allocation
    (tmp_path / "raw.txt").write_text(" ".join("w%d" % i for i in range(100)) + "\n")
    proc = run_limited(["embed", "raw.txt", "--dim", "20000000", "--out", "out.txt"], tmp_path)
    assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
    assert proc.stderr.startswith("resource error: embed: Unable to allocate "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.txt").exists()

def test_train_with_triggers_is_seeded(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    words = sorted({tok.surface for sent in load_conll(gold) for tok in sent.tokens})
    triggers = tmp_path / "triggers.txt"
    triggers.write_text("\n".join(words[:3]) + "\n")
    model_path = tmp_path / "m.json"
    rc, _, _ = run(["train", "--train", gold, "--triggers", str(triggers)] + TRAIN_FLAGS
                   + ["--out-model", str(model_path)], capsys)
    assert rc == 0
    trigger = load_model(str(model_path)).fconf.trigger
    assert trigger.name == "triggers"
    assert trigger.entries == {w.lower() for w in words[:3]}
    preds = [tmp_path / "a.conll", tmp_path / "b.conll"]
    for pred in preds:
        assert run(["tag", "--model", str(model_path), "--input", gold,
                    "--out", str(pred)], capsys)[0] == 0
    assert preds[0].read_bytes() == preds[1].read_bytes()


def test_train_config_file_equivalent_to_flags(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("train_path=%s\narch=basic\ndecoder=elman\ndim=6\n"
                   "hidden=5\nlearning_rate=0.05\nv_c=1\nv_d=3\nepochs=2\n"
                   "seed=1\nshuffle=true\n" % gold)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc, _, _ = run(["train", "--config", str(cfg), "--out-model", str(a)], capsys)
    assert rc == 0
    run(["train", "--train", gold] + TRAIN_FLAGS + ["--out-model", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_train_profile_sets_hidden_and_lr(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll", size=4)
    out = tmp_path / "m.json"
    rc, _, _ = run(["train", "--train", gold, "--profile", "conll",
                    "--dim", "4", "--vc", "0", "--vd", "2", "--epochs", "1",
                    "--out-model", str(out)], capsys)
    assert rc == 0
    assert load_model(str(out)).spec.hidden == 100


def test_train_explicit_hidden_beats_profile(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll", size=4)
    out = tmp_path / "m.json"
    rc, _, _ = run(["train", "--train", gold, "--profile", "conll",
                    "--hidden", "7", "--dim", "4", "--vc", "0", "--vd", "2",
                    "--epochs", "1", "--out-model", str(out)], capsys)
    assert rc == 0
    assert load_model(str(out)).spec.hidden == 7


def test_train_with_pretrained_embeddings(tmp_path, capsys):
    corpus = tmp_path / "raw.txt"
    sents = memorize_corpus(size=8, seed=1)
    corpus.write_text("\n".join(" ".join(s.surfaces()) for s in sents) + "\n")
    vec = tmp_path / "vec.txt"
    run(["embed", str(corpus), "--dim", "6", "--window", "2", "--negatives",
         "2", "--subsample", "1.0", "--seed", "2", "--out", str(vec)], capsys)

    gold = write_gold(tmp_path / "g.conll")
    out = tmp_path / "m.json"
    rc, _, _ = run(["train", "--train", gold, "--embeddings", str(vec),
                    "--decoder", "jordan", "--hidden", "4", "--lr", "0.05",
                    "--vc", "0", "--vd", "2", "--epochs", "1",
                    "--out-model", str(out)], capsys)
    assert rc == 0
    assert load_model(str(out)).table.dim == 6


def test_train_on_vectors_with_unnormalized_words_writes_a_model_tag_loads(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    words = sorted({w for s in load_conll(gold) for w in s.surfaces()})
    vec = tmp_path / "vec.txt"
    vec.write_text("".join("%s %d.5 -0.25 0.125\n" % (w, k)
                           for k, w in enumerate(words + ["Paris", "1999", "<UNK>"])))
    model_path, pred = tmp_path / "m.json", tmp_path / "p.conll"
    rc, _, _ = run(["train", "--train", gold, "--embeddings", str(vec), "--hidden", "4",
                    "--vc", "0", "--vd", "2", "--epochs", "1",
                    "--out-model", str(model_path)], capsys)
    assert rc == 0
    rc, _, err = run(["tag", "--model", str(model_path), "--input", gold,
                      "--out", str(pred)], capsys)
    assert (rc, err) == (0, "")
    vocab = load_model(str(model_path)).table.vocab.index_to_word
    assert {"paris", "0000"} <= set(vocab) and not {"Paris", "1999", "<UNK>"} & set(vocab)


def test_clip_threshold_on_its_own_clips(tmp_path, capsys):
    argv = ["train", "--train", write_gold(tmp_path / "g.conll"), "--dim", "4",
            "--hidden", "4", "--vc", "0", "--epochs", "1", "--out-model"]
    plain, clipped = tmp_path / "plain.json", tmp_path / "clipped.json"
    assert run(argv + [str(plain)], capsys)[0] == 0
    assert run(argv + [str(clipped), "--clip-threshold", "1e-6"], capsys)[0] == 0
    assert plain.read_bytes() != clipped.read_bytes()


def test_clip_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"),
                      "--clip", "true", "--out-model", str(out)], capsys)
    assert rc == 1
    assert "unrecognized arguments: --clip true" in err
    assert not out.exists()


@pytest.mark.parametrize("row,problem", [
    ("bob 0.1 inf 0.3", "holds a non-finite value"),
    ("bob 0.1 x 0.3", "could not convert string to float: 'x'"),
])
def test_malformed_embeddings_file_is_data_error(tmp_path, capsys, row, problem):
    vec = tmp_path / "vec.txt"
    vec.write_text("anna 0.1 0.2 0.3\n" + row + "\n")
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"),
                      "--embeddings", str(vec), "--hidden", "4", "--vc", "0",
                      "--out-model", str(tmp_path / "m.json")], capsys)
    assert rc == 2
    assert "data error: %s:2: row for 'bob'" % vec in err
    assert problem in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_weight_is_numeric_error_with_location(tmp_path, capsys, monkeypatch):
    init_model = cli.init_model

    def poisoned(spec, rng):
        params = init_model(spec, rng)
        params["decoder_out"]["W"][0, 0] = float("inf")
        return params
    monkeypatch.setattr(cli, "init_model", poisoned)
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"),
                      "--dim", "4", "--hidden", "4", "--vc", "0", "--shuffle", "false",
                      "--out-model", str(tmp_path / "m.json")], capsys)
    assert rc == 3
    assert "numeric error: epoch 1, sentence 1, position 1: non-finite" in err


def test_non_finite_model_exits_3_without_writing_the_file(tmp_path, capsys, monkeypatch):
    fit = cli.fit

    def poisoned(model, *args):
        result = fit(model, *args)
        result.model.table.matrix[2, 0] = float("inf")
        return result
    monkeypatch.setattr(cli, "fit", poisoned)
    out = tmp_path / "m.json"
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll", size=4),
                      "--dim", "4", "--hidden", "4", "--vc", "0", "--epochs", "1",
                      "--out-model", str(out)], capsys)
    assert rc == 3
    assert "numeric error: embedding.matrix holds a non-finite value" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tag_whose_outputs_overflow_exits_3_without_writing_the_file(tmp_path, capsys):
    # every weight finite, so the file loads, but W h overflows to inf
    obj = json.loads((DATA_DIR / "compat" / "bidirectional_gru.json").read_text())
    obj["params"]["decoder_out"]["W"] = [[1.7e308] * len(row)
                                         for row in obj["params"]["decoder_out"]["W"]]
    rc, err, _ = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 3
    assert ("numeric error: document 1, sentence 1, position 1: "
            "non-finite output distribution") in err
    assert not (tmp_path / "p.conll").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_embeddings_whose_mean_overflows_are_data_error(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("a 1.7e308 1.0\nb 1.7e308 2.0\n")
    out = tmp_path / "m.json"
    rc, _, err = run(["train", "--train", write_gold(tmp_path / "g.conll"),
                      "--embeddings", str(vec), "--hidden", "4", "--vc", "0",
                      "--epochs", "1", "--out-model", str(out)], capsys)
    assert rc == 2
    assert ("data error: %s: the row for '<unk>', the mean of the rows, cannot be computed: "
            "their sum overflows" % vec) in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_embed_whose_loss_is_not_finite_exits_3_without_writing_the_file(tmp_path, capsys):
    out = tmp_path / "vec.txt"
    rc, _, err = run(["embed", corpus_file(tmp_path), "--dim", "4", "--lr", "1e300",
                      "--subsample", "1", "--out", str(out)], capsys)
    assert rc == 3
    assert "numeric error: epoch 1: non-finite mean loss" in err
    assert not out.exists()


def test_train_mesnil_needs_no_decoder(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll", size=4)
    out = tmp_path / "m.json"
    rc, _, _ = run(["train", "--train", gold, "--arch", "mesnil",
                    "--encoder", "elman", "--dim", "4", "--hidden", "4",
                    "--lr", "0.05", "--vc", "0", "--vd", "2", "--epochs", "1",
                    "--out-model", str(out)], capsys)
    assert rc == 0
    assert load_model(str(out)).spec.decoder_cell is None


# ------------------------------------------------------------ gradcheck

@pytest.mark.parametrize("grid", ["true", "false"])
@pytest.mark.parametrize("flag", ["--hidden", "--n-in", "--n-tags", "--tokens"])
def test_gradcheck_size_below_one_is_usage_error(capsys, flag, grid):
    rc, out, err = run(["gradcheck", "--grid", grid, flag, "0"], capsys)
    assert rc == 1
    assert "usage error: %s must be an integer >= 1, got 0" % flag in err
    assert "passed" not in out


@pytest.mark.parametrize("bound", ["nan", "0", "-1", "inf", "-inf"])
def test_gradcheck_bound_not_finite_and_positive_is_usage_error(capsys, bound):
    rc, out, err = run(["gradcheck", "--decoder", "elman", "--bound=" + bound], capsys)
    assert rc == 1
    assert "usage error: --bound must be finite and > 0" in err
    assert "passed" not in out


def test_gradcheck_negative_window_is_usage_error(capsys):
    rc, _, err = run(["gradcheck", "--decoder", "elman", "--vd", "-1"], capsys)
    assert rc == 1
    assert "usage error: --vd must be an integer >= 0, got -1" in err


def test_bare_gradcheck_checks_an_elman_decoder_and_passes(capsys):
    rc, out, _ = run(["gradcheck"], capsys)
    assert rc == 0
    assert "basic enc=None dec=ELMAN" in out
    assert "gradient check passed" in out


def test_gradcheck_mesnil_builds_no_decoder(capsys):
    rc, out, _ = run(["gradcheck", "--arch", "mesnil", "--encoder", "elman",
                      "--hidden", "3", "--n-in", "4", "--n-tags", "2", "--tokens", "2"],
                     capsys)
    assert rc == 0
    assert "mesnil enc=ELMAN dec=None" in out
    assert "decoder." not in out


def test_gradcheck_single_combo_passes(capsys):
    rc, out, _ = run(["gradcheck", "--arch", "basic", "--decoder", "elman_gru",
                      "--hidden", "4", "--n-in", "5", "--n-tags", "3",
                      "--tokens", "3"], capsys)
    assert rc == 0
    assert "passed" in out
    assert "max absolute difference: " in out


def test_gradcheck_grid_covers_all_archs(capsys):
    rc, out, _ = run(["gradcheck", "--grid", "true", "--hidden", "3",
                      "--n-in", "4", "--n-tags", "2", "--tokens", "2"],
                     capsys)
    assert rc == 0
    for arch in ("basic", "contextual", "bidirectional", "mesnil"):
        assert arch in out


# ------------------------------------------------------------------ eval

def test_eval_gold_against_itself_is_perfect(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    rc, out, _ = run(["eval", "--gold", gold, "--pred", gold], capsys)
    assert rc == 0
    assert "f1=100.0" in out
    assert "  100.00" in out
