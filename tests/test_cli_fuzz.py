"""Fuzz gate for the CLI: mutated input files and flag values end in a
documented exit code, never in an exception.

Valid model (format versions 3 and 2), embedding, CoNLL, config and
lexicon files are written once; each example mutates one of them
(truncation, spliced bytes, or a JSON value, in a version-3 model file
one of its header line, swapped for one of another type, an integer
turned into the float of the same value, a list cut short; a version-3
model's tail cut at any byte, bytes appended, a header shape changed
or a NaN or infinity put in its bytes; a version-2 array's base64
truncated, made an odd length, given a character outside its alphabet
or a NaN or infinity in its bytes) or one flag value, and runs
`cli.main` in-process.  Sizes stay on the command line at small values,
where a flag overrides the config file, so no mutation can ask for a
large model.

The model file is also mutated rule by rule: for each key that
serialize.MODEL_FILE declares, a mutation that breaks that key's rule
alone (a repeated tag, a word that is not normal, a shape off by one, a
swapped scheme, a flag that is not a boolean, an unknown key, ...) must
be refused with exit 2 naming the key.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnntagger import cli, serialize
from rnntagger.architectures import forward_batch
from rnntagger.corpus import load_conll, write_conll
from rnntagger.representation import encode_sentence, load_embeddings
from rnntagger.serialize import MODEL_FILE, load_model
from rnntagger.synth import memorize_corpus
from test_serialize import decoded, encoded, v3_bytes, v3_doc

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC}
SIZES = ["--hidden", "3", "--vc", "0", "--vd", "1", "--epochs", "1"]
# values of other JSON types, including numbers no float64 can hold
SWAPS = [None, True, "x", [], {}, 0.5, -1, [[1.0]], 10 ** 400, 1e308]
COMPAT_DIR = Path(__file__).parent / "data" / "compat"


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
    return dict({k: p.read_bytes() for k, p in files.items()},
                model_v2=(COMPAT_DIR / "v2" / "contextual_elman_jordan.json").read_bytes())


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


# bit patterns of NaNs and infinities: quiet, signalling, negative
NON_FINITE_BITS = [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000,
                   0x7FF0000000000000, 0xFFF0000000000000]


@st.composite
def base64_mutated(draw, data):
    """(model file data with one array's base64 mutated, the array's
    dotted key): truncated, made a length that is not a multiple of 4,
    given a character outside the alphabet, or re-encoded with a NaN or
    an infinity in place of one value."""
    obj = json.loads(data)
    path = draw(st.sampled_from([p[:-1] for p, _ in json_paths(obj) if p[-1:] == ("f8le",)]))
    value = obj
    for key in path:
        value = value[key]
    text = value["f8le"]
    how = draw(st.sampled_from(["truncate", "odd length", "alphabet", "non-finite"]))
    event("base64 " + how)
    if how == "truncate":
        value["f8le"] = text[:draw(st.integers(0, len(text) - 1))]
    elif how == "odd length":
        at = draw(st.integers(0, len(text) - 1))
        value["f8le"] = text[:at] + draw(st.sampled_from(["", "AB", "ABC"])) + text[at + 1:]
    elif how == "alphabet":
        at = draw(st.integers(0, len(text) - 1))
        value["f8le"] = text[:at] + draw(st.sampled_from("-_!.~ \n\t\x00\u00e9")) + text[at + 1:]
    else:
        arr = decoded(value).copy()
        arr.view("<u8").flat[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from(NON_FINITE_BITS))
        value.update(encoded(arr))
    return json.dumps(obj).encode(), ".".join(path)


def array_places(header):
    """(dotted key, shape) of every array object of a version-3 header, in
    the order the header lists them, which is the order of the tail."""
    return [(".".join(p), v["shape"]) for p, v in json_paths(header)
            if isinstance(v, dict) and set(v) == {"shape"}]


def first_past(ends, size):
    """The index of the first array whose bytes end past size, or None."""
    i = int(np.searchsorted(ends, size, side="right"))
    return i if i < len(ends) else None


@st.composite
def tail_mutated(draw, data):
    """(version-3 model file data with its tail cut at any byte, bytes
    appended, one header shape changed, or a NaN or an infinity in one
    value; the start of the refusal, which names the array: the one the
    file ends in, the last one, or the changed one, unless a later one
    then runs past the end)."""
    head, tail = data.split(b"\n", 1)
    header = json.loads(head)
    places = array_places(header)
    ends = np.cumsum([8 * rows * cols for _, (rows, cols) in places])
    assert ends[-1] == len(tail)
    how = draw(st.sampled_from(["truncate", "append", "shape", "non-finite"]))
    event("tail " + how)
    if how == "truncate":
        cut = draw(st.integers(0, len(tail) - 1))
        return head + b"\n" + tail[:cut], "%s: shape" % places[first_past(ends, cut)][0]
    if how == "append":
        extra = draw(st.binary(min_size=1, max_size=16))
        return data + extra, "%s is the last array, but %d byte(s) follow it" % (
            places[-1][0], len(extra))
    i = draw(st.integers(0, len(places) - 1))
    key, shape = places[i]
    if how == "non-finite":
        at = int(ends[i]) - 8 * draw(st.integers(1, shape[0] * shape[1]))
        bits = draw(st.sampled_from(NON_FINITE_BITS)).to_bytes(8, "little")
        return head + b"\n" + tail[:at] + bits + tail[at + 8:], "%s holds a non-finite" % key
    new = draw(st.lists(st.integers(0, 2 * max(shape) + 2), min_size=2, max_size=2)
               .filter(lambda dims: dims != shape))
    value = header
    for part in key.split("."):
        value = value[part]
    value["shape"] = new
    sizes = [8 * rows * cols for _, (rows, cols) in array_places(header)]
    past = first_past(np.cumsum(sizes), len(tail))
    expected = "%s has shape" % key if past is None else "%s: shape" % places[past][0]
    return json.dumps(header).encode() + b"\n" + tail, expected


@st.composite
def mutated(draw, data, form):
    """A mutation of data: truncated, spliced, or for a model file (form
    "json" for one JSON document, "v3" for a version-3 file, whose header
    line is the JSON) one JSON value swapped for a value of another type,
    an int for the float of the same value, a list for a shorter prefix
    of it, or a version-2 array's base64 mutated as base64_mutated does
    or a version-3 tail as tail_mutated does."""
    how = draw(st.sampled_from(["truncate", "splice"] + {
        None: [], "json": sorted(PICKS) + ["base64"], "v3": sorted(PICKS) + ["tail"]}[form]))
    if how == "base64":
        return draw(base64_mutated(data))[0]
    if how == "tail":
        return draw(tail_mutated(data))[0]
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "splice":
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 8))
        return data[:at] + draw(st.binary(max_size=8)) + data[at + cut:]
    data, newline, tail = data.partition(b"\n") if form == "v3" else (data, b"", b"")
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
    return json.dumps(obj).encode() + newline + tail


def file_argv(kind, path, files, out):
    gold, train = str(files["conll"]), ["train", "--train", str(files["conll"])]
    return {
        "model": ["tag", "--model", path, "--input", gold, "--out", out],
        "model v2": ["tag", "--model", path, "--input", gold, "--out", out],
        "embeddings": train + ["--embeddings", path, "--out-model", out] + SIZES,
        "conll": train[:1] + ["--train", path, "--dim", "2", "--out-model", out] + SIZES,
        "tag input": ["tag", "--model", str(files["model"]), "--input", path, "--out", out],
        "eval pred": ["eval", "--gold", gold, "--pred", path],
        "config": train + ["--config", path, "--dim", "2", "--out-model", out] + SIZES,
        "gazetteer": train + ["--gazetteers", path, "--dim", "2", "--out-model", out] + SIZES,
        "triggers": train + ["--triggers", path, "--dim", "2", "--out-model", out] + SIZES,
    }[kind]


SOURCE = {"model": "model", "model v2": "model_v2", "embeddings": "embeddings", "conll": "conll",
          "tag input": "conll", "eval pred": "conll", "config": "config",
          "gazetteer": "lexicon", "triggers": "lexicon"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_input_file_ends_in_an_exit_code(valid, data):
    kind = data.draw(st.sampled_from(sorted(SOURCE)))
    body = data.draw(mutated(valid[SOURCE[kind]], {"model": "v3", "model v2": "json"}.get(kind)))
    with tempfile.TemporaryDirectory() as d:
        files = {k: Path(d, k) for k in valid}
        for k, p in files.items():
            p.write_bytes(valid[k])
        path = Path(d, "mutated")
        path.write_bytes(body)
        assert main(file_argv(kind, str(path), files, str(Path(d, "out")))) in EXIT_CODES


def tag_refuses(valid, body, expected):
    """tag with a model file of body is exit 2, its message starting with
    the file and expected, and writes nothing."""
    with tempfile.TemporaryDirectory() as d:
        model, gold, out = Path(d, "m.json"), Path(d, "gold.conll"), Path(d, "out")
        model.write_bytes(body)
        gold.write_bytes(valid["conll"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["tag", "--model", str(model), "--input", str(gold),
                           "--out", str(out)])
        assert rc == cli.EXIT_DATA, err.getvalue()
        assert err.getvalue().startswith("data error: %s: %s" % (model, expected)), err.getvalue()
        assert not out.exists()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_base64_mutated_model_file_is_data_error_naming_the_array(valid, data):
    body, key = data.draw(base64_mutated(valid["model_v2"]))
    tag_refuses(valid, body, key)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tail_mutated_model_file_is_data_error_naming_the_array(valid, data):
    tag_refuses(valid, *data.draw(tail_mutated(valid["model"])))


# one valid command per subcommand; a flag's value is what gets mutated,
# except an output path's, which could name a file outside the temporary
# directory
COMMANDS = {
    "train": ["train", "--train", "{conll}", "--out-model", "{out}", "--dim", "2",
              "--arch", "bidirectional", "--encoder", "jordan", "--decoder", "elman_gru",
              "--mesnil-k", "1", "--caps", "true", "--cache", "true",
              "--profile", "conll", "--lr", "0.1", "--seed", "2", "--shuffle", "true",
              "--fine-tune-embeddings", "true", "--dev-eval-every", "1",
              "--clip-threshold", "1.0", "--dev", "{conll}"] + SIZES,
    "tag": ["tag", "--model", "{model}", "--input", "{conll}", "--out", "{out}"],
    "eval": ["eval", "--gold", "{conll}", "--pred", "{conll}"],
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


def below(least):
    return st.integers(max_value=least - 1).map(str)


def not_one_of(choices):
    return st.text(max_size=6).filter(lambda t: t not in choices)


NOT_INT = st.sampled_from(["", "x", "1.5", "1e3", "nan"])
NOT_POSITIVE = st.one_of(st.sampled_from(["", "x", "nan", "inf", "1e400"]),
                         st.floats(max_value=0).map(repr))
NOT_BOOL = st.text(max_size=6).filter(
    lambda t: t.strip().lower() not in {"1", "true", "yes", "on", "0", "false", "no", "off"})
# values each flag's rule refuses, given to a COMMANDS line
REFUSED = {
    "train": {"--dim": below(1), "--hidden": below(1), "--mesnil-k": below(0),
              "--vc": below(0), "--vd": below(0), "--epochs": below(0),
              "--dev-eval-every": below(1), "--lr": NOT_POSITIVE,
              "--clip-threshold": NOT_POSITIVE, "--seed": NOT_INT,
              "--arch": st.one_of(st.sampled_from(["basic", "contextual", "mesnil"]),
                                  not_one_of(cli.architectures.ARCHS)),
              "--encoder": not_one_of(cli.CELL_NAMES), "--decoder": not_one_of(cli.CELL_NAMES),
              "--profile": not_one_of(cli.PROFILES), "--caps": NOT_BOOL, "--cache": NOT_BOOL,
              "--shuffle": NOT_BOOL, "--fine-tune-embeddings": NOT_BOOL},
    "embed": {"--dim": below(1), "--window": below(1), "--negatives": below(1),
              "--min-count": below(1), "--epochs": below(0), "--lr": NOT_POSITIVE,
              "--subsample": NOT_POSITIVE, "--seed": NOT_INT,
              "--objective": not_one_of(cli.OBJECTIVES)},
    "gradcheck": {"--hidden": below(1), "--n-in": below(1), "--n-tags": below(1),
                  "--tokens": below(1), "--vd": below(0), "--bound": NOT_POSITIVE,
                  "--seed": NOT_INT, "--grid": NOT_BOOL,
                  "--arch": st.one_of(st.just("basic"), not_one_of(cli.architectures.ARCHS)),
                  "--encoder": not_one_of(cli.CELL_NAMES),
                  # mesnil has no decoder: every cell name is refused too
                  "--decoder": st.one_of(st.sampled_from(cli.CELL_NAMES), st.text(max_size=6))},
    "synth": {"--size": st.one_of(below(1), st.integers(0, 50).map(lambda i: str(2 * i + 1))),
              "--task": not_one_of(("memorize", "future-dep")), "--seed": NOT_INT},
}
# an architecture that the COMMANDS line's cells do not suit is refused
# under the cell's flag
BLAMED = {("train", "--arch", "basic"): "--encoder", ("train", "--arch", "contextual"): "--encoder",
          ("train", "--arch", "mesnil"): "--decoder", ("gradcheck", "--arch", "basic"): "--encoder"}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REFUSED)), st.data())
def test_refused_flag_value_is_usage_error_before_any_file_is_read(command, data):
    """Every input path is missing, so a value refused only after a read
    would be a data error; the refusal names the flag and writes nothing."""
    flag = data.draw(st.sampled_from(sorted(REFUSED[command])))
    value = data.draw(REFUSED[command][flag])
    named = BLAMED.get((command, flag, value), flag)
    with tempfile.TemporaryDirectory() as d:
        paths = {k: str(Path(d, k)) for k in ("conll", "model", "out")}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([a.format(**paths) for a in COMMANDS[command]]
                          + ["%s=%s" % (flag, value)])
        assert rc == cli.EXIT_USAGE, err.getvalue()
        assert re.match(r"usage error: (argument )?%s[: ]" % re.escape(named), err.getvalue())
        assert not any(Path(d).iterdir())


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
    obj = v3_doc(valid["model"])
    blocks = [(b, n) for b in sorted(obj["params"]) for n in sorted(obj["params"][b])]
    for b, n in data.draw(st.lists(st.sampled_from(blocks), min_size=1, unique=True)):
        w = obj["params"][b][n]
        obj["params"][b][n] = np.sign(w) * data.draw(st.sampled_from(EXTREMES))
    with tempfile.TemporaryDirectory() as d:
        model, gold, out = Path(d, "m.json"), Path(d, "gold.conll"), Path(d, "out")
        model.write_bytes(v3_bytes(obj))
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


# ------------------------------------------- one mutation per rule of the model file

# every feature channel is on in this model, so every key MODEL_FILE
# declares is in its file; one file per format version
RULE_FILES = [COMPAT_DIR / v / "contextual_elman_jordan.json" for v in ("", "v2", "v3")]


def file_version(source):
    return int(source.parent.name[1:]) if source.parent.name.startswith("v") else 1


def read_doc(source):
    """A rule file's document; a version-3 file's arrays are in place."""
    return v3_doc(source.read_bytes()) if file_version(source) == 3 else json.loads(
        source.read_text())


def file_bytes(doc, version):
    return v3_bytes(doc) if version == 3 else json.dumps(doc).encode()


def declared(decl, value, path=()):
    """(path, declaration) of every key MODEL_FILE declares, walked beside
    a valid file's parsed document; a list's first element stands for
    every element, and a list of one JSON type is a single rule."""
    yield path, decl
    if isinstance(decl, tuple):             # (None, d): the file holds d
        decl = decl[1]
    if isinstance(decl, dict):
        for key, d in decl.items():
            yield from declared(d, value[key], path + (key,))
    elif isinstance(decl, list) and not isinstance(decl[0], type):
        yield from declared(decl[0], value[0], path + (0,))


def dotted(path):
    return "".join("[%d]" % k if isinstance(k, int) else "." * (i > 0) + k
                   for i, k in enumerate(path))


def rule_mutations(decl):
    """The mutations that break decl's rule, and no other."""
    if isinstance(decl, tuple):
        decl = decl[1]
    if isinstance(decl, dict):
        return ["unknown key", "missing key", "not an object"]
    if isinstance(decl, list):
        return ["not a list", "element of another type"]
    if isinstance(decl, type):
        return ["another type"]
    if getattr(decl, "func", None) is serialize._fixed:
        return ["another value"]
    return {serialize._words: ["repeated word", "word before <pad>, <unk>", "word not a string",
                               "word not normal", "word not one token"],
            serialize._tagset: ["repeated tag", "not a tag", "tag not a string"],
            serialize._scheme: ["swapped scheme"],
            MODEL_FILE["version"]: ["unreadable version"],
            MODEL_FILE["embedding"]["matrix"]: ["shape off by one"],
            serialize._params: ["bundle renamed", "parameter renamed", "shape off by one"]}[decl]


RULE_CASES = [(f, path, how) for f in RULE_FILES
              for path, decl in declared(MODEL_FILE, read_doc(f))
              for how in rule_mutations(decl)]


def off_by_one(draw, value, version):
    """An array of one row or one column more or fewer than value's."""
    arr = decoded(value) if version == 2 else np.asarray(value)
    axis, more = draw(st.integers(0, 1)), draw(st.booleans())
    arr = np.concatenate([arr, arr.take([0], axis)], axis) if more else arr.take(
        range(arr.shape[axis] - 1), axis)
    return {1: arr.tolist(), 2: encoded(arr), 3: arr}[version]


def break_rule(draw, obj, path, decl, how):
    """Mutate obj at path so that it breaks decl's rule alone; returns the
    start of the refusal: the key, or the shape or type it breaks."""
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    at = path[-1] if path else None
    value = parent[at] if path else obj
    nullable = isinstance(decl, tuple)
    null_or = "null or " * nullable
    name = dotted(path)
    others = [v for v in [None, True, 1, 1.5, "x", [1], {"a": 1}]
              if not (v is None and nullable)]

    def pick(kinds):
        return draw(st.sampled_from([v for v in others if type(v) not in kinds]))

    if how == "unknown key":
        value["zz"] = 1
        return "unknown key %s" % dotted(path + ("zz",))
    if how == "missing key":
        del value[draw(st.sampled_from(sorted(value)))]
        missing = next(k for k in (decl[1] if nullable else decl) if k not in value)
        return "missing key %r in %s" % (missing, name or "the file")
    if how == "not an object":
        new = pick({dict})
        if not path:
            return new, "malformed model: the file must be an object"
        parent[at] = new
        return "malformed model: %s must be %san object" % (name, null_or)
    if how == "not a list":
        parent[at] = pick({list})
        return "malformed model: %s must be %sa list" % (name, null_or)
    if how == "element of another type":
        i = draw(st.integers(0, len(value) - 1))
        inner = (decl[1] if nullable else decl)[0]
        inner = dict if isinstance(inner, dict) else inner
        value[i] = pick({inner})
        return "malformed model: %s[%d] must be %s" % (name, i, serialize._NAMES[inner])
    if how == "another type":
        kind = decl[1] if nullable else decl
        parent[at] = pick({kind} | ({int, float} if kind is int else set()))
        if kind is int:
            parent[at] = draw(st.sampled_from([float(value), str(value), parent[at]]))
        return "%s must be %s%s, got" % (name, null_or, serialize._NAMES[kind])
    if how == "another value":
        expected = decl.args[0]
        parent[at] = draw(st.sampled_from(
            [not expected, int(expected), None] if type(expected) is bool
            else [expected + "x", expected.upper(), None]))
        return "%s must be %r, got" % (name, expected)
    if how == "unreadable version":
        parent[at] = draw(st.sampled_from([0, 4, float(value), True, str(value), None]))
        return "version must be an integer in [1, 3], got"
    if how == "shape off by one" and path == ("embedding", "matrix"):
        parent[at] = off_by_one(draw, value, obj["version"])
        return "embedding.matrix has shape"
    if how == "shape off by one":
        bundle = draw(st.sampled_from(sorted(value)))
        param = draw(st.sampled_from(sorted(value[bundle])))
        value[bundle][param] = off_by_one(draw, value[bundle][param], obj["version"])
        return "params.%s.%s has shape" % (bundle, param)
    if how == "bundle renamed":
        bundle = draw(st.sampled_from(sorted(value)))
        value[bundle + "x"] = value.pop(bundle)
        return "params: bundles"
    if how == "parameter renamed":
        bundle = draw(st.sampled_from(sorted(value)))
        param = draw(st.sampled_from(sorted(value[bundle])))
        value[bundle][param + "x"] = value[bundle].pop(param)
        return "params.%s: parameters" % bundle
    if how == "swapped scheme":
        parent[at] = draw(st.sampled_from(["IOBES", "bio2", "", 42, None]))
        return "scheme must be 'BIO2', the scheme of the tagset, got"
    # the vocabulary and tagset rules, on the lists they judge
    i = draw(st.integers(2 if at == "words" else 0, len(value) - 1))
    j = draw(st.integers(0, len(value) - 1).filter(lambda j: j != i))
    if how in ("repeated word", "repeated tag"):
        value[i] = value[j]
    elif how == "word before <pad>, <unk>":
        value[i], value[i % 2] = value[i % 2], value[i]
    elif how in ("word not a string", "tag not a string"):
        value[i] = draw(st.sampled_from([None, 1, ["x"]]))
    elif how == "word not normal":
        value[i] += draw(st.sampled_from(["X", "7", "É"]))
        return "vocab.words[%d] %r is not a normalized word" % (i, value[i])
    elif how == "word not one token":
        value[i] = draw(st.sampled_from(["", " ", value[i] + " x", "x\ty", " " + value[i]]))
        return "vocab.words[%d] %r is not a single token" % (i, value[i])
    elif how == "not a tag":
        value[i] = draw(st.sampled_from(["Q-X", "B", "BX-ORG", "b-ORG", "-ORG", "", "o"]))
        return "tagset[%d]: unknown tag string" % i
    return ("vocab.words must be a list of distinct strings that begins '<pad>', '<unk>'"
            if at == "words" else "tagset must be a list of distinct tag strings")


@pytest.mark.parametrize("source,path,how", [
    pytest.param(f, p, how, id="v%d-%s-%s" % (file_version(f), dotted(p) or "file", how))
    for f, p, how in RULE_CASES])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_semantic_mutation_is_data_error_naming_its_key(valid, source, path, how, data):
    """Each rule MODEL_FILE declares, broken alone in a valid file of
    any version, is exit 2 with the refusal naming the key, and no
    output is written."""
    obj = read_doc(source)
    decl = dict(declared(MODEL_FILE, obj))[path]
    expected = break_rule(data.draw, obj, path, decl, how)
    body, expected = expected if isinstance(expected, tuple) else (obj, expected)
    with tempfile.TemporaryDirectory() as d:
        model, gold, out = Path(d, "m.json"), Path(d, "gold.conll"), Path(d, "out")
        model.write_bytes(file_bytes(body, file_version(source)))
        gold.write_bytes(valid["conll"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["tag", "--model", str(model), "--input", str(gold),
                           "--out", str(out)])
        assert (rc, not out.exists()) == (cli.EXIT_DATA, True), err.getvalue()
        assert "data error: %s: %s" % (model, expected) in err.getvalue()


def test_rule_files_hold_every_declared_key_and_load():
    # the semantic gate reaches a rule only through a key that every file
    # holds (declared() fails on a key a file lacks), and unmutated they load
    for source in RULE_FILES:
        paths = {p for p, _ in declared(MODEL_FILE, read_doc(source))}
        assert ("features", "trigger", "entries") in paths and ("params",) in paths
        load_model(str(source))
