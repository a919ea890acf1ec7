"""Exit codes, config-file merging, and end-to-end command wiring."""

import json
from pathlib import Path

import numpy as np
import pytest

from rnntagger import cli, pretrain
from rnntagger.corpus import load_conll, vocab_from_counts, write_conll
from rnntagger.representation import load_embeddings
from rnntagger.serialize import load_model
from rnntagger.synth import memorize_corpus
from rnntagger.training import GradCheckReport

DATA_DIR = Path(__file__).parent / "data"


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
    model = tmp_path / "m.json"
    model.write_text(model_text)
    rc, out, err = run(["tag", "--model", str(model), "--input", write_gold(tmp_path / "in.conll"),
                        "--out", str(tmp_path / "p.conll")], capsys)
    return rc, err, str(model)


def test_truncated_model_file_is_data_error(tmp_path, capsys):
    rc, err, path = tag_with_model(tmp_path, capsys,
                                   '{"format":"rnn-mention-tagger","version":1}')
    assert rc == 2
    assert "%s: missing key 'spec'" % path in err


def test_wrong_parameter_shape_is_data_error(tmp_path, capsys):
    obj = json.loads((DATA_DIR / "bidirectional_gru.json").read_text())
    obj["params"]["encoder_fwd"]["U_z"] = [[0.0]]
    rc, err, path = tag_with_model(tmp_path, capsys, json.dumps(obj))
    assert rc == 2
    assert "%s: params.encoder_fwd.U_z has shape (1, 1), expected (4, 4)" % path in err


def test_eval_sentence_count_mismatch_is_data_error(tmp_path, capsys):
    a = write_gold(tmp_path / "a.conll", size=4)
    b = write_gold(tmp_path / "b.conll", size=6)
    rc, out, err = run(["eval", "--gold", a, "--pred", b], capsys)
    assert rc == 2


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    bad = GradCheckReport(blocks={"decoder.U": 0.5}, n_tokens=4, seed=42)
    monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: bad)
    rc, out, err = run(["gradcheck", "--arch", "basic", "--decoder", "elman"],
                       capsys)
    assert rc == 3
    assert "FAILED" in err


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


def test_effective_config_is_echoed_sorted(tmp_path, capsys):
    rc, out, err = run(["synth", "--out", str(tmp_path / "x.conll")], capsys)
    keys = [l.split("=", 1)[0] for l in out.splitlines()
            if "=" in l and not l.startswith("#")]
    assert keys == sorted(keys)
    assert "seed" in keys and "task" in keys


# ---------------------------------------------------------------- synth

def test_synth_same_seed_same_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.conll", tmp_path / "b.conll"
    assert run(["synth", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["synth", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.conll"
    run(["synth", "--seed", "8", "--out", str(c)], capsys)
    assert a.read_bytes() != c.read_bytes()


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


def test_train_same_seed_same_model_bytes(tmp_path, capsys):
    gold = write_gold(tmp_path / "g.conll")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["train", "--train", gold] + TRAIN_FLAGS + ["--out-model", str(a)], capsys)
    run(["train", "--train", gold] + TRAIN_FLAGS + ["--out-model", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


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

def test_gradcheck_single_combo_passes(capsys):
    rc, out, _ = run(["gradcheck", "--arch", "basic", "--decoder", "elman_gru",
                      "--hidden", "4", "--n-in", "5", "--n-tags", "3",
                      "--tokens", "3"], capsys)
    assert rc == 0
    assert "passed" in out


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
