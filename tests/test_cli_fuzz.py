"""Fuzz gate for the CLI: mutated input files and flag values end in a
documented exit code, never in an exception.

Valid model, embedding, CoNLL, config and lexicon files are written
once; each example mutates one of them (truncation, spliced bytes, or a
JSON value swapped for one of another type, an integer turned into the
float of the same value, or a list cut short) or one flag value, and runs
`cli.main` in-process.  Sizes stay on the command line at small values,
where a flag overrides the config file, so no mutation can ask for a
large model.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnntagger import cli
from rnntagger.architectures import forward_batch
from rnntagger.corpus import load_conll, write_conll
from rnntagger.representation import encode_sentence, load_embeddings
from rnntagger.serialize import load_model
from rnntagger.synth import memorize_corpus

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC}
SIZES = ["--hidden", "3", "--vc", "0", "--vd", "1", "--epochs", "1"]
# values of other JSON types, including numbers no float64 can hold
SWAPS = [None, True, "x", [], {}, 0.5, -1, [[1.0]], 10 ** 400, 1e308]


def main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    files = {"conll": d / "gold.conll", "lexicon": d / "lex.txt",
             "embeddings": d / "vec.txt", "config": d / "train.cfg", "model": d / "m.json"}
    sents = memorize_corpus(size=4, seed=1)
    write_conll(sents, str(files["conll"]))
    words = sorted({t.surface for s in sents for t in s.tokens})
    files["lexicon"].write_text("\n".join(words[:3]) + "\nacme corp\n")
    files["embeddings"].write_text("%d 2\n" % len(words) + "".join(
        "%s %.2f -%.2f\n" % (w, i / 10, i / 20) for i, w in enumerate(words)))
    files["config"].write_text("arch=contextual\nencoder=elman_gru\ndecoder=jordan\n"
                               "caps=true\nseed=3\nshuffle=false\nclip_threshold=1.0\n")
    assert main(["train", "--train", str(files["conll"]), "--dim", "2", "--caps", "true",
                 "--gazetteers", str(files["lexicon"]), "--out-model", str(files["model"])]
                + SIZES) == cli.EXIT_OK
    return {k: p.read_bytes() for k, p in files.items()}


def json_paths(value, path=()):
    """(path, value) of every value in a parsed JSON document."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from json_paths(v, path + (i,))


# which values each JSON mutation may pick
PICKS = {"json": lambda v: True, "float": lambda v: type(v) is int,
         "list": lambda v: type(v) is list and len(v) > 0}


@st.composite
def mutated(draw, data, is_json):
    """A mutation of data: truncated, spliced, or (for JSON) one value
    swapped for a value of another type, an int for the float of the
    same value, or a list for a shorter prefix of it."""
    how = draw(st.sampled_from(["truncate", "splice"] + sorted(PICKS) * is_json))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "splice":
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        return data[:at] + draw(st.binary(max_size=8)) + data[at + cut:]
    obj = json.loads(data)
    path = draw(st.sampled_from([p for p, v in list(json_paths(obj))[1:] if PICKS[how](v)]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if how == "float":
        parent[path[-1]] = float(old)
    elif how == "list":
        parent[path[-1]] = old[:draw(st.integers(0, len(old) - 1))]
    else:
        parent[path[-1]] = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(old)]))
    return json.dumps(obj).encode()


def file_argv(kind, path, files, out):
    gold, train = str(files["conll"]), ["train", "--train", str(files["conll"])]
    return {
        "model": ["tag", "--model", path, "--input", gold, "--out", out],
        "embeddings": train + ["--embeddings", path, "--out-model", out] + SIZES,
        "conll": train[:1] + ["--train", path, "--dim", "2", "--out-model", out] + SIZES,
        "tag input": ["tag", "--model", str(files["model"]), "--input", path, "--out", out],
        "eval pred": ["eval", "--gold", gold, "--pred", path],
        "config": train + ["--config", path, "--dim", "2", "--out-model", out] + SIZES,
        "gazetteer": train + ["--gazetteers", path, "--dim", "2", "--out-model", out] + SIZES,
        "triggers": train + ["--triggers", path, "--dim", "2", "--out-model", out] + SIZES,
    }[kind]


SOURCE = {"model": "model", "embeddings": "embeddings", "conll": "conll",
          "tag input": "conll", "eval pred": "conll", "config": "config",
          "gazetteer": "lexicon", "triggers": "lexicon"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_input_file_ends_in_an_exit_code(valid, data):
    kind = data.draw(st.sampled_from(sorted(SOURCE)))
    body = data.draw(mutated(valid[SOURCE[kind]], is_json=kind == "model"))
    with tempfile.TemporaryDirectory() as d:
        files = {k: Path(d, k) for k in valid}
        for k, p in files.items():
            p.write_bytes(valid[k])
        path = Path(d, "mutated")
        path.write_bytes(body)
        assert main(file_argv(kind, str(path), files, str(Path(d, "out")))) in EXIT_CODES


# one valid command per subcommand; a flag's value is what gets mutated,
# except an output path's, which could name a file outside the temporary
# directory
COMMANDS = {
    "train": ["train", "--train", "{conll}", "--out-model", "{out}", "--dim", "2",
              "--arch", "bidirectional", "--encoder", "jordan", "--decoder", "elman_gru",
              "--mesnil-k", "1", "--caps", "true", "--cache", "true", "--scheme", "bio2",
              "--profile", "conll", "--lr", "0.1", "--seed", "2", "--shuffle", "true",
              "--fine-tune-embeddings", "true", "--dev-eval-every", "1",
              "--clip-threshold", "1.0", "--dev", "{conll}"] + SIZES,
    "tag": ["tag", "--model", "{model}", "--input", "{conll}", "--out", "{out}"],
    "eval": ["eval", "--gold", "{conll}", "--pred", "{conll}", "--scheme", "iobes"],
    "embed": ["embed", "{conll}", "--objective", "skipgram", "--dim", "2", "--window", "1",
              "--negatives", "1", "--subsample", "0.5", "--epochs", "1", "--lr", "0.1",
              "--min-count", "1", "--seed", "1", "--out", "{out}"],
    "gradcheck": ["gradcheck", "--arch", "mesnil", "--encoder", "elman", "--grid", "false",
                  "--hidden", "2", "--n-in", "2", "--n-tags", "2", "--tokens", "2",
                  "--vd", "1", "--seed", "1", "--bound", "1e-4"],
    "synth": ["synth", "--task", "future-dep", "--size", "2", "--seed", "1", "--out", "{out}"],
}
OUTPUT_FLAGS = {"--out", "--out-model"}
SIZE_FLAGS = {"--hidden", "--dim", "--n-in", "--tokens", "--size", "--epochs", "--window",
              "--negatives", "--mesnil-k", "--vc", "--vd"}
SMALL_INTS = [str(i) for i in range(-2, 4)]
JUNK = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1e-320", "0x1", "", " ", "true",
                     "none", "elman", "mesnil", "iobes", "/", "/nonexistent", "--help"]),
    st.text(max_size=6).filter(lambda t: not any(c.isdigit() for c in t)))
# a size flag keeps a small value: a large model or corpus is slow, not wrong
SIZE_VALUES = st.one_of(st.sampled_from(SMALL_INTS), JUNK)
FLAG_VALUES = st.one_of(st.sampled_from(SMALL_INTS + ["99999999999999999999999"]), JUNK,
                        st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_mutated_flag_value_ends_in_an_exit_code(valid, command, data):
    argv = COMMANDS[command]
    at = data.draw(st.sampled_from([i + 1 for i, a in enumerate(argv)
                                    if a.startswith("--") and a not in OUTPUT_FLAGS]))
    value = data.draw(SIZE_VALUES if argv[at - 1] in SIZE_FLAGS else FLAG_VALUES)
    with tempfile.TemporaryDirectory() as d:
        paths = {"conll": str(Path(d, "g.conll")), "model": str(Path(d, "m.json")),
                 "out": str(Path(d, "out"))}
        Path(paths["conll"]).write_bytes(valid["conll"])
        Path(paths["model"]).write_bytes(valid["model"])
        filled = [a.format(**paths) for a in argv]
        filled[at] = value
        assert main(filled) in EXIT_CODES


# finite magnitudes, from ones a forward pass holds to ones it overflows
EXTREMES = [1e10, 1e154, 1e300, 1.7e308]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tag_with_extreme_finite_weights_exits_3_or_writes_tagset_tags(valid, data):
    """Some weight blocks at an extreme finite magnitude, signs kept: the
    file loads, and tag exits 3 naming the place, writing nothing, exactly
    when a distribution of the input is not finite; else it writes tags
    from the tagset."""
    obj = json.loads(valid["model"])
    blocks = [(b, n) for b in sorted(obj["params"]) for n in sorted(obj["params"][b])]
    for b, n in data.draw(st.lists(st.sampled_from(blocks), min_size=1, unique=True)):
        w = np.array(obj["params"][b][n])
        obj["params"][b][n] = (np.sign(w) * data.draw(st.sampled_from(EXTREMES))).tolist()
    with tempfile.TemporaryDirectory() as d:
        model, gold, out = Path(d, "m.json"), Path(d, "gold.conll"), Path(d, "out")
        model.write_text(json.dumps(obj))
        gold.write_bytes(valid["conll"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["tag", "--model", str(model), "--input", str(gold),
                           "--out", str(out)])
        m = load_model(str(model))
        assert not m.fconf.uses_cache     # so each sentence is a batch of its own
        with np.errstate(all="ignore"):
            finite = all(np.isfinite(forward_batch(m.spec, m.params, [
                encode_sentence(s, m.table, m.fconf, m.v_c)])[0]).all()
                for s in load_conll(str(gold), tagged=False))
        event("finite" if finite else "not finite")
        if finite:
            assert rc == cli.EXIT_OK
            assert {t for s in load_conll(str(out)) for t in s.tags()} <= set(m.tagset)
        else:
            assert rc == cli.EXIT_NUMERIC
            assert "non-finite output distribution" in err.getvalue()
            assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["1e-300", "1e10", "1e100", "1e200", "1e300", "1.7e308"]),
       st.sampled_from(["cbow", "skipgram", "cconcat"]), st.integers(1, 3))
def test_embed_at_extreme_rates_exits_3_or_writes_finite_vectors(valid, lr, objective, epochs):
    """embed exits 3 naming the epoch, writing nothing, or writes vectors
    that train --embeddings accepts, which requires every value finite."""
    with tempfile.TemporaryDirectory() as d:
        raw, out = Path(d, "raw.txt"), Path(d, "vec.txt")
        raw.write_bytes(valid["conll"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["embed", str(raw), "--objective", objective, "--dim", "2",
                           "--window", "1", "--negatives", "2", "--subsample", "1",
                           "--epochs", str(epochs), "--lr", lr, "--out", str(out)])
        event("exit %d" % rc)
        if rc == cli.EXIT_OK:
            load_embeddings(str(out))
        else:
            assert rc == cli.EXIT_NUMERIC
            assert "numeric error: epoch " in err.getvalue()
            assert not out.exists()
