"""Batch command-line surface: embed, train, tag, eval, gradcheck, synth.

Every flag has a config-file equivalent (flat key=value lines, keyed by
the flag's dest name); explicit command-line flags override the file,
and the merged, effective configuration is echoed at startup.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import contextlib
import ctypes
import os
import sys

import numpy as np

from . import architectures
from .architectures import ModelSpec, init_model
from .corpus import build_vocab, load_conll, load_lexicon, read_lines, write_conll
from .evaluation import format_kv, format_table, score
from .linalg import SeededRng
from .model import Model, tag_corpus
from .pretrain import OBJECTIVES, EmbedConfig, save_text, train_embeddings
from .representation import EmbeddingTable, FeatureConfig, load_embeddings
from .serialize import load_model, save_model
from .synth import future_dep_corpus, memorize_corpus
from .tagging import BIO2, IOBES, detect_scheme, make_tagset, tags_to_spans
from .training import TrainConfig, fit, gradient_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# dataset-style presets: hidden size and learning rate travel together
PROFILES = {
    "ace": {"hidden": 200, "learning_rate": 0.01},
    "conll": {"hidden": 100, "learning_rate": 0.06},
}

CELL_NAMES = ("elman", "jordan", "elman_gru", "jordan_gru")
SCHEME_NAMES = {"bio2": BIO2, "iobes": IOBES}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: --clip must not pass for --clip-threshold
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError("expected a boolean, got %r" % text)


def build_parser():
    top = _Parser(prog="rnntagger",
                  description="recurrent mention tagger: pre-train embeddings, "
                              "train, tag, and score")
    sub = top.add_subparsers(dest="command", metavar="command",
                             parser_class=_Parser)

    p = sub.add_parser("embed", help="pre-train word embeddings on raw text")
    p.add_argument("corpus", nargs="?", help="plain text, one sentence per line")
    p.add_argument("--config")
    p.add_argument("--objective", choices=OBJECTIVES, default="cbow")
    p.add_argument("--dim", type=int, default=EmbedConfig.dim)
    p.add_argument("--window", type=int, default=EmbedConfig.window)
    p.add_argument("--negatives", type=int, default=EmbedConfig.negatives)
    p.add_argument("--subsample", type=float, default=EmbedConfig.subsample)
    p.add_argument("--epochs", type=int, default=EmbedConfig.epochs)
    p.add_argument("--lr", dest="learning_rate", type=float,
                   default=EmbedConfig.learning_rate)
    p.add_argument("--min-count", dest="min_count", type=int, default=EmbedConfig.min_count)
    p.add_argument("--seed", type=int, default=EmbedConfig.seed)
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train a tagger on CoNLL-style columns")
    p.add_argument("--config")
    p.add_argument("--train", dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--arch", choices=architectures.ARCHS, default="basic")
    p.add_argument("--encoder", choices=CELL_NAMES)
    p.add_argument("--decoder", choices=CELL_NAMES)
    p.add_argument("--mesnil-k", dest="mesnil_k", type=int, default=1)
    p.add_argument("--embeddings", help="pre-trained embedding text file")
    p.add_argument("--dim", type=int, default=50,
                   help="random embedding width when --embeddings is absent")
    p.add_argument("--gazetteers", nargs="*", default=[])
    p.add_argument("--triggers")
    p.add_argument("--caps", type=_bool, default=False, metavar="BOOL")
    p.add_argument("--cache", type=_bool, default=False, metavar="BOOL")
    p.add_argument("--scheme", choices=sorted(SCHEME_NAMES))
    p.add_argument("--profile", choices=sorted(PROFILES), default="ace")
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--vc", dest="v_c", type=int, default=TrainConfig.v_c)
    p.add_argument("--vd", dest="v_d", type=int, default=TrainConfig.v_d)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--shuffle", type=_bool, default=TrainConfig.shuffle, metavar="BOOL")
    p.add_argument("--fine-tune-embeddings", dest="fine_tune_embeddings",
                   type=_bool, default=TrainConfig.fine_tune_embeddings, metavar="BOOL")
    p.add_argument("--dev-eval-every", dest="dev_eval_every", type=int,
                   default=TrainConfig.dev_eval_every)
    p.add_argument("--clip-threshold", dest="clip_threshold", type=float)
    p.add_argument("--out-model", dest="out_model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a token file with a trained model")
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="span precision/recall/F1 of pred vs gold")
    p.add_argument("--config")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--scheme", choices=sorted(SCHEME_NAMES))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config")
    p.add_argument("--arch", choices=architectures.ARCHS, default="basic")
    p.add_argument("--encoder", choices=CELL_NAMES)
    p.add_argument("--decoder", choices=CELL_NAMES)
    p.add_argument("--grid", type=_bool, default=False, metavar="BOOL",
                   help="check every architecture/cell combination")
    p.add_argument("--hidden", type=int, default=5)
    p.add_argument("--n-in", dest="n_in", type=int, default=6)
    p.add_argument("--n-tags", dest="n_tags", type=int, default=3)
    p.add_argument("--tokens", type=int, default=4)
    p.add_argument("--vd", dest="v_d", type=int, default=9)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bound", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="emit a deterministic synthetic corpus")
    p.add_argument("--config")
    p.add_argument("--task", choices=("memorize", "future-dep"),
                   default="memorize")
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    return top, sub


def _read_config_file(path):
    """key -> (value, line number); a later line for a key wins."""
    entries = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value" % (path, lineno))
        key, val = line.split("=", 1)
        entries[key.strip()] = (val.strip(), lineno)
    return entries


def _namespace_from_config(cmd_parser, path):
    entries = _read_config_file(path)
    actions = {a.dest: a for a in cmd_parser._actions}
    ns = argparse.Namespace()
    for key, (val, lineno) in entries.items():
        where = "%s:%d: config key %r" % (path, lineno, key)
        if key not in actions or key in ("help", "config"):
            raise UsageError("%s is unknown" % where)
        a = actions[key]
        try:
            if a.nargs in ("*", "+"):
                value = [a.type(v) if a.type else v for v in val.split()]
            elif a.type:
                value = a.type(val)
            else:
                value = val
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise UsageError("%s: %s" % (where, e))
        if a.choices and value not in a.choices:
            raise UsageError("%s: %r is not one of %s"
                             % (where, value, sorted(a.choices)))
        setattr(ns, key, value)
    return ns


def _echo_config(args):
    print("# effective config")
    for key in sorted(vars(args)):
        if key in ("func", "command"):
            continue
        value = getattr(args, key)
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print("%s=%s" % (key, "" if value is None else value))


_FLAG_NAMES = {"train_path": "--train", "dev_path": "--dev",
               "learning_rate": "--lr", "corpus": "corpus"}


def _require(args, *names):
    for name in names:
        if getattr(args, name) in (None, ""):
            flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
            raise UsageError("%s is required" % flag)


def _cell_kind(name):
    return name.upper() if name else None


def _openblas_thread_fns():
    """(get, set) of the OpenBLAS thread count bundled with numpy's wheel,
    found with ctypes; None when numpy ships no such library."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libdir) if "openblas" in f)
    except OSError:
        return None
    for fname in names:
        try:
            lib = ctypes.CDLL(os.path.join(libdir, fname))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, prefix + "get_num_threads" + suffix, None)
            put = getattr(lib, prefix + "set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread, restoring the previous count on exit: a
    product split across threads rounds differently, and seeded runs
    must write the same bytes whatever the machine's thread count.
    As a decorator it does so for each call."""
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, put = fns
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


@_one_blas_thread()
def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    top, sub = build_parser()
    try:
        args = top.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a command is required "
                             "(embed, train, tag, eval, gradcheck, synth)")
        if getattr(args, "config", None):
            # re-parse with the subparser itself: the top-level parser hands
            # subcommands a fresh namespace, which would drop config values
            cmd_parser = sub.choices[args.command]
            ns = _namespace_from_config(cmd_parser, args.config)
            ns.command = args.command
            rest = argv[argv.index(args.command) + 1:]
            args = cmd_parser.parse_args(rest, namespace=ns)
        _echo_config(args)
        return args.func(args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as e:
        print("numeric error: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA


# ---------------------------------------------------------------- embed

def cmd_embed(args):
    _require(args, "corpus", "out")
    try:
        cfg = EmbedConfig(dim=args.dim, window=args.window,
                          subsample=args.subsample, negatives=args.negatives,
                          epochs=args.epochs, learning_rate=args.learning_rate,
                          min_count=args.min_count, seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e))
    model = train_embeddings(args.corpus, args.objective, cfg)
    save_text(model, args.out)
    for i, loss in enumerate(model.epoch_losses, 1):
        print("epoch %d  mean loss %.6f" % (i, loss))
    print("wrote %d vectors (dim %d) to %s" % (len(model.vocab), model.dim, args.out))
    return EXIT_OK


# ---------------------------------------------------------------- train

def _detect_or_named_scheme(name, sentences):
    if name:
        return SCHEME_NAMES[name]
    tags = [t for s in sentences for t in s.tags()]
    return detect_scheme(tags)


def cmd_train(args):
    _require(args, "train_path", "out_model")
    if args.dim < 1:
        raise UsageError("dim must be >= 1, got %d" % args.dim)
    hidden = args.hidden if args.hidden is not None else PROFILES[args.profile]["hidden"]
    lr = (args.learning_rate if args.learning_rate is not None
          else PROFILES[args.profile]["learning_rate"])
    try:
        tcfg = TrainConfig(learning_rate=lr, epochs=args.epochs, v_d=args.v_d,
                           v_c=args.v_c, hidden=hidden, seed=args.seed,
                           shuffle=args.shuffle,
                           fine_tune_embeddings=args.fine_tune_embeddings,
                           dev_eval_every=args.dev_eval_every,
                           clip_threshold=args.clip_threshold)
    except ValueError as e:
        raise UsageError(str(e))

    train_sents = load_conll(args.train_path)
    if not train_sents:
        raise ValueError("no sentences in %s" % args.train_path)
    dev_sents = load_conll(args.dev_path) if args.dev_path else []

    scheme = _detect_or_named_scheme(args.scheme, train_sents)
    types = sorted({sp.type for s in train_sents + dev_sents
                    for sp in tags_to_spans(s.tags(), scheme)})
    if not types:
        raise ValueError("training data contains no mention spans")
    tagset = make_tagset(types, scheme)

    rng = SeededRng(args.seed)
    if args.embeddings:
        table = load_embeddings(args.embeddings)
    else:
        table = EmbeddingTable.random(build_vocab(train_sents), args.dim, rng)

    fconf = FeatureConfig(
        capitalization=args.caps,
        gazetteers=[load_lexicon(p) for p in args.gazetteers],
        trigger=load_lexicon(args.triggers) if args.triggers else None,
        cache_tagset=tagset if args.cache else None,
    )

    decoder = args.decoder
    if args.arch != "mesnil" and decoder is None:
        decoder = "elman"
    try:
        spec = ModelSpec(arch=args.arch, n_in=fconf.input_width(table.dim, args.v_c),
                         hidden=hidden, n_tags=len(tagset),
                         decoder_cell=_cell_kind(decoder),
                         encoder_cell=_cell_kind(args.encoder),
                         mesnil_k=args.mesnil_k)
    except ValueError as e:
        raise UsageError(str(e))

    model = Model(spec=spec, params=init_model(spec, rng), table=table,
                  fconf=fconf, tagset=tagset, scheme=scheme, v_c=args.v_c)

    print("epoch      loss        P        R       F1")
    result = fit(model, train_sents, dev_sents, tcfg)
    for row in result.history:
        if "dev_f1" in row:
            print("%5d %9.6f %8.2f %8.2f %8.2f"
                  % (row["epoch"], row["mean_loss"], row["dev_p"],
                     row["dev_r"], row["dev_f1"]))
        else:
            print("%5d %9.6f        -        -        -"
                  % (row["epoch"], row["mean_loss"]))
    print("best epoch: %d" % result.best_epoch)
    save_model(result.model, args.out_model)
    print("wrote model to %s" % args.out_model)
    return EXIT_OK


# ------------------------------------------------------------------ tag

def cmd_tag(args):
    _require(args, "model", "input", "out")
    model = load_model(args.model)
    sents = load_conll(args.input, tagged=False)
    tags = tag_corpus(model, sents)
    write_conll(sents, args.out, tags=tags)
    print("tagged %d sentences into %s" % (len(sents), args.out))
    return EXIT_OK


# ----------------------------------------------------------------- eval

def cmd_eval(args):
    _require(args, "gold", "pred")
    gold = load_conll(args.gold)
    pred = load_conll(args.pred)
    if len(gold) != len(pred):
        raise ValueError("gold has %d sentences but pred has %d"
                         % (len(gold), len(pred)))
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ValueError("sentence %d: %d gold tokens vs %d predicted"
                             % (i + 1, len(g), len(p)))
    scheme = _detect_or_named_scheme(args.scheme, gold)
    report = score([tags_to_spans(s.tags(), scheme) for s in gold],
                   [tags_to_spans(s.tags(), scheme) for s in pred])
    print(format_table(report))
    print()
    print(format_kv(report))
    return EXIT_OK


# ------------------------------------------------------------ gradcheck

def _grid_specs(hidden, n_in, n_tags):
    """Every (architecture, encoder, decoder) that ModelSpec accepts."""
    kinds = [None] + [k.upper() for k in CELL_NAMES]
    specs = []
    for arch in architectures.ARCHS:
        for enc in kinds:
            for dec in kinds:
                try:
                    specs.append(ModelSpec(arch=arch, n_in=n_in, hidden=hidden,
                                           n_tags=n_tags, decoder_cell=dec,
                                           encoder_cell=enc))
                except ValueError:
                    pass
    return specs


def _spec_label(spec):
    return "%s enc=%s dec=%s" % (spec.arch, spec.encoder_cell, spec.decoder_cell)


def cmd_gradcheck(args):
    for flag, value, least in (("--hidden", args.hidden, 1), ("--n-in", args.n_in, 1),
                               ("--n-tags", args.n_tags, 1), ("--tokens", args.tokens, 1),
                               ("--vd", args.v_d, 0)):
        if value < least:
            raise UsageError("%s must be >= %d, got %d" % (flag, least, value))
    if args.grid:
        specs = _grid_specs(args.hidden, args.n_in, args.n_tags)
    else:
        try:
            specs = [ModelSpec(arch=args.arch, n_in=args.n_in,
                               hidden=args.hidden, n_tags=args.n_tags,
                               decoder_cell=_cell_kind(args.decoder),
                               encoder_cell=_cell_kind(args.encoder))]
        except ValueError as e:
            raise UsageError(str(e))
    worst = worst_abs = 0.0
    failed = False
    print("%-45s %-22s %-9s %s" % ("spec", "block", "rel err", "max |analytic - numeric|"))
    for spec in specs:
        report = gradient_check(spec, args.seed, args.tokens, v_d=args.v_d)
        for block in sorted(report.blocks):
            diff = report.abs_diffs[block]
            print("%-45s %-22s %.3e %.3e" % (_spec_label(spec), block,
                                             report.blocks[block], diff))
            worst_abs = max(worst_abs, diff)
        worst = max(worst, report.max_error)
        if not report.ok(args.bound):
            failed = True
    print("max relative error: %.3e (bound %.1e)" % (worst, args.bound))
    print("max absolute difference: %.3e" % worst_abs)
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print("gradient check passed")
    return EXIT_OK


# ---------------------------------------------------------------- synth

def cmd_synth(args):
    _require(args, "out")
    make = memorize_corpus if args.task == "memorize" else future_dep_corpus
    size = {} if args.size is None else {"size": args.size}
    try:
        sents = make(seed=args.seed, **size)
    except ValueError as e:
        raise UsageError(str(e))
    write_conll(sents, args.out)
    print("wrote %d sentences to %s" % (len(sents), args.out))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
