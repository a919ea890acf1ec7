"""Benchmark for rnntagger: one workload per user path (train, tag,
embed), end-to-end metrics untraced, per-layer metrics from a traced pass.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

The workload seed decides the generated inputs; the program only ever
sees the files written under .bench_work/.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 untraced and traced units alternate and
the JSON holds the per-layer metrics and the tracing overhead.
Times are in reference seconds (see probe.py).  The exit code is 0 only
when every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

# One BLAS thread on every side of every comparison, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
LOSS_RTOL = 1e-12          # the ROADMAP aim-1 drift bound on a one-epoch loss
SETUP_SHARE = 0.1          # of the measured time, spent on repeated set-ups
MIN_SETUPS = 5
MAX_SETUPS = 25
ITEM_METRIC = {"train": "train_ex_per_s", "tag": "tag_tok_per_s",
               "embed": "embed_tok_per_s"}
KEY_METRIC = {"train": "training.%s.ex_per_s", "tag": "model.%s.tok_per_s",
              "embed": "pretrain.%s.tok_per_s"}


def parse_args(argv, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(ITEM_METRIC) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


# ------------------------------------------------------------ checking

def _same(workload, got, want, rtol):
    if workload == "tag":
        return [g == w for g, w in zip(got, want)] if len(got) == len(want) \
            else [False] * len(got)
    return [got is not None and math.isfinite(got)
            and abs(got - want) <= rtol * abs(want)]


class Checker:
    """Counts operations and failures; an operation is one config's epoch
    (train), one tagged document (tag) or one objective's run (embed)."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference       # key -> output, or None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def _ops(self, output):
        return len(output) if self.workload == "tag" else 1

    def check(self, label, key, result, first=None):
        """result: a unit's dict or an exception; first: the output of the
        key's first untraced unit, which every later unit must equal
        exactly."""
        if isinstance(result, BaseException):
            n = self._ops(first) if first is not None else 1
            self._fail(n, "%s %s raised %r" % (label, key, result))
            return
        out = result["output"]
        self.attempted += self._ops(out)
        oks = [True] * self._ops(out)
        if self.workload != "tag" and not math.isfinite(out):
            oks = [False]
        for want, what, rtol in ((first, "first unit", 0.0),
                                 ((self.reference or {}).get(key), "reference",
                                  LOSS_RTOL)):
            if want is None:
                continue
            same = _same(self.workload, out, want, rtol)
            if not all(same):
                self.notes.append("%s %s differs from the %s: %r vs %r"
                                  % (label, key, what, out, want))
            oks = [a and b for a, b in zip(oks, same)]
        self.failed += oks.count(False)

    def _fail(self, n, note):
        self.attempted += n
        self.failed += n
        self.notes.append(note)


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ measuring

def run_unit(wl, key):
    try:
        return wl.run(wl.state, key)
    except Exception as e:               # a failing operation is counted, not fatal
        return e


def run_each(wl):
    return {key: run_unit(wl, key) for key in wl.keys}


def _ok(r):
    return not isinstance(r, BaseException)


def measure(wl, seconds, machine):
    """Closed loop, one client: every key runs once, then each next unit
    goes to the key with the least units x time spent, among those whose
    next unit is expected to end within `seconds` (counted without the
    probe's time).  Stops when no key's next unit fits.  A key whose units
    take c seconds so gets a number of units proportional to 1/sqrt(c),
    which for the time given makes the noise of a mean over keys of
    per-key medians least.

    Set-ups are spread evenly through the same time: the first builds the
    state the first unit uses, and each later one replaces the state
    between two units, about SETUP_SHARE of the run in all.  Returns the
    units per key and the clock() interval of each set-up."""
    units = {key: [] for key in wl.keys}
    spent = dict.fromkeys(wl.keys, 0.0)
    setups = []

    def setup():
        wl.state = None                  # the old state is freed before the next is built
        t0 = machine.clock()
        wl.state = wl.setup()
        setups.append((t0, machine.clock()))

    start = machine.clock()
    setup()
    first_s = setups[0][1] - setups[0][0]
    n_setups = max(MIN_SETUPS, min(MAX_SETUPS, int(SETUP_SHARE * seconds / first_s)))
    while True:
        if len(setups) < n_setups and \
                machine.clock() - start >= len(setups) * seconds / n_setups:
            setup()
            continue
        elapsed = machine.clock() - start
        fits = [k for k in wl.keys
                if not units[k] or elapsed + spent[k] / len(units[k]) <= seconds]
        if not fits:
            break
        key = min(fits, key=lambda k: len(units[k]) * spent[k])
        t0 = machine.clock()
        units[key].append(run_unit(wl, key))
        spent[key] += machine.clock() - t0
    while len(setups) < n_setups:
        setup()
    return units, setups


class Timer:
    """Turns clock() intervals into seconds: each divided by the machine's
    slowdown around it (probe.local_slowdown), so that it reads in
    reference seconds, or as it is (raw wall-clock)."""

    def __init__(self, machine, raw=False):
        self.machine = machine
        self.raw = raw

    def seconds(self, t0, t1):
        return (t1 - t0) if self.raw else (t1 - t0) / self.machine.local_slowdown(t0, t1)

    def work_s(self, r):
        return self.seconds(r["marks"][0], r["marks"][1])

    def save_s(self, r):
        return self.seconds(r["marks"][1], r["marks"][2])

    def rate(self, r):
        return r["items"] / self.work_s(r)


def summarize(units, setups, timer):
    """The end-to-end metrics of one run, and the per-key median rates."""
    per_key, saves = {}, []
    for key, rs in units.items():
        good = [r for r in rs if _ok(r)]
        per_key[key] = statistics.median(timer.rate(r) for r in good) if good else 0.0
        if good:
            saves.append(statistics.median(timer.save_s(r) for r in good))
    return {"items_per_s": geomean([v for v in per_key.values() if v > 0]),
            "setup_s": statistics.median(timer.seconds(*iv) for iv in setups),
            "save_s": sum(saves)}, per_key


# ------------------------------------------------------------ environment

def _blas():
    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        import ctypes
        for fname in sorted(os.listdir(libdir)):
            if "openblas" not in fname:
                continue
            lib = ctypes.CDLL(os.path.join(libdir, fname))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    if info["threads"] is None:
        info["threads"] = int(BLAS_THREADS)
    return info


def _src_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "rnntagger")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root, seed):
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": _commit(root),
            "src_sha256": _src_digest(root), "seed": seed}


# ------------------------------------------------------------ main

def run_all(argv):
    """--workload all: each workload in its own process, one after another."""
    rest = []
    skip = False
    for a in argv:
        if skip:
            skip = False
        elif a == "--workload":
            skip = True
        elif not a.startswith("--workload="):
            rest.append(a)
    code = 0
    for name in sorted(ITEM_METRIC, key=["train", "tag", "embed"].index):
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name] + rest)
        code = max(code, done.returncode)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json in %s: %s" % (root, e),
              file=sys.stderr)
        return 2
    args = parse_args(argv, spec["run_seconds"])
    if args.workload == "all":
        return run_all(argv)

    sys.path[:0] = [os.path.join(root, "src"), HERE]
    try:
        import probe
        import tracing
        import workloads
    except ImportError as e:
        print("perfbench: the program is not importable from %s/src: %s" % (root, e),
              file=sys.stderr)
        return 2

    scratch = os.path.join(root, ".bench_work")
    workdir = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return bench(args, root, workdir, spec, workloads, tracing, probe.Probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass                         # another run is still using it


def bench(args, root, workdir, spec, workloads, tracing, machine):
    cls = workloads.WORKLOADS[args.workload]
    wref = load_reference().get(args.workload, {})

    # the canary: a small fixed-seed input, checked against the reference
    # on every run, untimed
    canary_dir = os.path.join(workdir, "canary")
    os.makedirs(canary_dir)
    canary = cls(canary_dir, workloads.CANARY_SEED, workloads.CANARY, machine.clock)
    canary.state = canary.setup()
    canary_check = Checker(args.workload, wref.get("canary"))
    for key, r in run_each(canary).items():
        canary_check.check("canary", key, r)

    wl = cls(workdir, args.seed, workloads.FULL, machine.clock)
    seed_ref = wref.get("seeds", {}).get(str(args.seed))
    check = Checker(args.workload, seed_ref)
    env = environment(root, args.seed)
    print("# workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, problems = traced_run(wl, args, machine, tracing, workloads,
                                       spec["per_layer"], check)
        wanted = spec["per_layer"]
    else:
        metrics = untraced_run(wl, args, machine, check)
        wanted = spec["end_to_end"]
        problems = []
    if seed_ref is None:
        print("# no stored reference for seed %d: units checked against each "
              "other and the canary against its reference" % args.seed)

    notes = canary_check.notes + check.notes + problems
    for note in notes:
        print("# check failed: " + note)
    failed = canary_check.failed + check.failed + len(problems)
    attempted = canary_check.attempted + check.attempted + len(problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_slowdown(machine):
    print("# machine slowdown %.4f: median of %d probes %.5f s over reference %.5f s; "
          "times below are in reference seconds"
          % (machine.slowdown(), len(machine.samples), statistics.median(machine.samples),
             machine.reference_s))


def untraced_run(wl, args, machine, check):
    """The end-to-end metrics, after checking every unit."""
    with machine.running():
        units, setups = measure(wl, args.seconds, machine)
    for key, rs in units.items():
        first = rs[0]["output"] if _ok(rs[0]) else None
        for i, r in enumerate(rs):
            check.check("unit %d of" % (i + 1), key, r, first if i else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics, per_key = summarize(units, setups, Timer(machine))
    raw, raw_per_key = summarize(units, setups, Timer(machine, raw=True))
    metrics["peak_rss_mb"] = peak_rss_mb

    _print_slowdown(machine)
    print("# raw wall-clock values in brackets")
    unit = "%s/s" % wl.unit
    print("%-24s %12.3f %-6s [%.3f] geometric mean over %d keys of the median "
          "over each key's units, %d units"
          % (ITEM_METRIC[args.workload], metrics["items_per_s"], unit,
             raw["items_per_s"], len(per_key), sum(map(len, units.values()))))
    for key, v in per_key.items():
        print("  %-22s %12.3f %-6s [%.3f] median of %d"
              % (key, v, unit, raw_per_key[key], len(units[key])))
    print("%-24s %12.4f %-6s [%.4f] median of %d spread through the run"
          % ("setup_s", metrics["setup_s"], "s", raw["setup_s"], len(setups)))
    print("%-24s %12.4f %-6s [%.4f] sum over keys of the median per key"
          % ("save_s", metrics["save_s"], "s", raw["save_s"]))
    print("%-24s %12.1f %-6s" % ("peak_rss_mb", peak_rss_mb, "MB"))
    return metrics


def traced_run(wl, args, machine, tracing, workloads, per_layer, check):
    """Per-layer metrics.  One traced set-up, then pairs: an untraced and
    a traced unit of one key back to back, in an order that swaps from
    one pair of the key to the next.  Every key gets one pair, then the
    keys take turns among those whose next pair is expected to end within
    `seconds`.  The layer metrics come from the set-up and each key's
    first traced unit; the tracing overhead is the median over all pairs
    of the traced unit's time over the untraced one's, minus 1.  Returns
    the metrics and the self-check failures: an attribute left wrapped,
    or a traced unit whose output differs from the untraced one."""
    layer = tracing.Tracer()
    tracers = [layer]
    plain = {key: [] for key in wl.keys}
    traced = {key: [] for key in wl.keys}
    spent = dict.fromkeys(wl.keys, 0.0)
    with machine.running():
        start = machine.clock()
        with layer.installed():
            wl.state = wl.setup()
        while True:
            elapsed = machine.clock() - start
            fits = [k for k in wl.keys if not traced[k]
                    or elapsed + spent[k] / len(traced[k]) <= args.seconds]
            if not fits:
                break
            key = min(fits, key=lambda k: len(traced[k]))
            if traced[key]:
                tracers.append(tracing.Tracer())
            t0 = machine.clock()
            for with_trace in (False, True) if len(traced[key]) % 2 == 0 else (True, False):
                if with_trace:
                    with tracers[-1].installed():
                        traced[key].append(run_unit(wl, key))
                else:
                    plain[key].append(run_unit(wl, key))
            spent[key] += machine.clock() - t0

    problems = ["attribute not restored: " + a
                for a in sorted({a for t in tracers for a in t.unrestored()})]
    for key in wl.keys:
        first = plain[key][0]["output"] if _ok(plain[key][0]) else None
        for i, r in enumerate(plain[key]):
            check.check("unit %d of" % (i + 1), key, r, first if i else None)
        for i, r in enumerate(traced[key]):
            check.check("traced unit %d of" % (i + 1), key, r, first)

    timer = Timer(machine)
    values = normalized(tracing.layer_values(layer), per_layer, machine.slowdown())
    per_key = {key: statistics.median(timer.rate(r) for r in rs if _ok(r))
               for key, rs in plain.items() if any(map(_ok, rs))}
    ratios = [timer.work_s(t) / timer.work_s(p)
              for key in wl.keys for p, t in zip(plain[key], traced[key])
              if _ok(p) and _ok(t)]
    values["bench.items_per_s_untraced"] = geomean(list(per_key.values()))
    values["bench.items_per_s_traced"] = geomean(
        [statistics.median(timer.rate(r) for r in rs if _ok(r))
         for rs in traced.values() if any(map(_ok, rs))])
    values["bench.trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) \
        if ratios else 0.0
    values["bench.machine_slowdown"] = machine.slowdown()
    # per-key throughputs come from the untraced units
    for name, pattern in KEY_METRIC.items():
        for key in workloads.WORKLOADS[name].keys:
            values[pattern % key] = per_key.get(key, 0.0) if name == args.workload else 0.0

    _print_slowdown(machine)
    print("# trace overhead %+.1f%%: median over %d pairs of a traced unit's time "
          "over the untraced unit's next to it, minus 1 (%s pairs)"
          % (values["bench.trace_overhead_pct"], len(ratios),
             ", ".join("%s %d" % (k, len(rs)) for k, rs in traced.items())))
    return values, problems


def normalized(values, metrics, slowdown):
    """Times divided and rates multiplied by the run's slowdown, so they
    read in reference seconds; counts and shares as they are."""
    units = {m["name"]: m["unit"] for m in metrics}
    out = dict(values)
    for name, value in values.items():
        if units.get(name) in ("s", "ms"):
            out[name] = value / slowdown
        elif units.get(name, "").endswith("/s"):
            out[name] = value * slowdown
    return out


if __name__ == "__main__":
    sys.exit(main())
