"""Closed-loop benchmark of the ``hypersched`` command line.

    python3 perfbench/run.py --workload chi_f_lp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script generates the seeded
instances of one workload (see ``workloads.py``), writes them in the
package's file formats under ``perfbench/_runs/``, and then calls
``hypersched.cli.main(argv)`` in process, one call after another (one
client, one process), until ``--seconds`` have passed and every call has run
at least once.  Every report is checked by ``verify.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with span tracing installed at the layer boundaries
(``tracing.py``) and prints the per-layer metrics, including the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from generate import write_instance  # noqa: E402
from verify import Rejected, verify  # noqa: E402
from workloads import WORKLOADS, record_properties  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10

# Which checked value two calls on one instance must agree on.
AGREE = {"chi-f": "chi_f", "feasible": "chi_f", "metrics": "sigma", "beta": "sigma", "star": "sigma"}


# --------------------------------------------------------------------------
# machine speed

# What reference_seconds() takes on the machine the baseline was recorded
# on.  Call and set-up times are reported at that speed: each wall time is
# multiplied by REF_SECONDS over the median of the reference runs around it.
# On a shared machine a fixed Python loop's time swings up to 2x within
# seconds and by 15% between back-to-back 30 s runs; the calls slow down
# with it, so the scaled times vary far less than the raw ones.
REF_SECONDS = 0.005


def reference_seconds():
    """Time a fixed pure-Python computation of the kind hypersched spends its
    time in (rational arithmetic, hashing small frozensets)."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    table = {frozenset((i % 13, i % 7)): i for i in range(3000)}
    del total, table  # only the time matters
    return perf_counter() - t0


# --------------------------------------------------------------------------
# setup


def _purge():
    for name in [m for m in sys.modules if m == "hypersched" or m.startswith("hypersched.")]:
        del sys.modules[name]


def load_all(files):
    """Import ``hypersched`` and load every instance file through its
    ``formats`` layer (parse + ``validate_hypergraph``)."""
    cli = importlib.import_module("hypersched.cli")
    formats = importlib.import_module("hypersched.formats")
    hypergraph = importlib.import_module("hypersched.hypergraph")
    for paths in files:
        h, _ = formats.parse_hypergraph_text(paths["hg"].read_text(encoding="utf-8"), str(paths["hg"]))
        hypergraph.validate_hypergraph(h)
        if "demand" in paths:
            formats.parse_demand_text(paths["demand"].read_text(encoding="utf-8"), str(paths["demand"]))
        if "w" in paths:
            formats.parse_weight_text(paths["w"].read_text(encoding="utf-8"), str(paths["w"]), h.num_links)
    return cli


def measure_setup(files):
    """Median over SETUP_REPEATS fresh imports + loads, each scaled to the
    reference speed like the call times; returns (median s, cli)."""
    ref = [reference_seconds()]
    times = []
    for _ in range(SETUP_REPEATS):
        _purge()
        t0 = perf_counter()
        cli = load_all(files)
        elapsed = perf_counter() - t0
        ref.append(reference_seconds())
        times.append(elapsed * REF_SECONDS / statistics.median(ref[-3:]))
    return statistics.median(times), cli


def build_argv(call, paths):
    """The ``hypersched`` argv of ``call`` on the instance files ``paths``."""
    argv = [call.command, str(paths["hg"]), "--json"]
    if "demand" in paths and call.command not in ("metrics", "beta", "star"):
        argv += ["--demand", str(paths["demand"])]
    if "rule" in call.opts:
        argv += ["--rule", call.opts["rule"]]
    if call.opts.get("w") is not None:
        argv += ["--w", str(paths["w"])]
    if call.opts.get("order") is not None:
        argv += ["--order", ",".join(str(v + 1) for v in call.opts["order"])]
    return argv


# --------------------------------------------------------------------------
# the closed loop


class Checker:
    """Verifies each call's output; a repeat of an already accepted output
    is accepted without re-deriving it.  Calls on one instance must agree on
    their shared value (chi_f, sigma)."""

    def __init__(self):
        self.accepted = {}
        self.values = {}
        self.failures = []

    def check(self, call, code, stdout):
        key = call.key
        if self.accepted.get(key) == (code, stdout):
            return True
        try:
            value = verify(call.command, call.inst, call.opts, code, stdout)
            group = AGREE.get(call.command)
            if group is not None:
                seen = self.values.setdefault((call.inst.name, group), value)
                if seen != value:
                    raise Rejected(f"{call.command} gives {group} = {value}, another call gave {seen}")
        except Rejected as e:
            self.failures.append(f"{call.command} {call.inst.name} {call.opts}: {e}")
            return False
        self.accepted[key] = (code, stdout)
        return True


def execute(main, call, checker):
    """Time one ``main(argv)`` call; returns (seconds, ok).  A call fails
    when it raises, or when its exit code or report is rejected."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = main(call.argv)
            elapsed = perf_counter() - t0
    except Exception as e:  # any escape from the CLI is a failed call
        checker.failures.append(f"{call.command} {call.inst.name}: raised {e!r}")
        return None, False
    return elapsed, checker.check(call, code, out.getvalue())


class LoopResult:
    def __init__(self, ncalls):
        self.samples = [[] for _ in range(ncalls)]  # per call, speed-scaled
        self.raw = [[] for _ in range(ncalls)]  # per call, wall time
        self.reference = []  # every reference run, in order
        self.passes = 0  # full passes
        self.attempted = 0
        self.failed = 0


def closed_loop(main, calls, seconds, checker, on_pass=None):
    """Run passes over ``calls`` until ``seconds`` have elapsed and at least
    one full pass is done, timing the reference computation before each call
    and after the last.  ``on_pass`` is called after each full pass."""
    res = LoopResult(len(calls))
    ref = res.reference
    ref.append(reference_seconds())
    timed = []  # (call index, wall seconds, index of the reference run before it)
    deadline = perf_counter() + seconds
    while not res.passes or perf_counter() < deadline:
        for idx, call in enumerate(calls):
            if res.passes and perf_counter() >= deadline:
                break
            elapsed, ok = execute(main, call, checker)
            res.attempted += 1
            if not ok:
                res.failed += 1
            if elapsed is not None:
                timed.append((idx, elapsed, len(ref) - 1))
            ref.append(reference_seconds())
        else:
            res.passes += 1
            if on_pass is not None:
                on_pass()
    for idx, elapsed, k in timed:
        speed = statistics.median(ref[max(0, k - 2) : k + 4])
        res.samples[idx].append(elapsed * REF_SECONDS / speed)
        res.raw[idx].append(elapsed)
    return res


def call_medians(samples):
    """Each call's median latency over the passes that reached it."""
    return [statistics.median(s) for s in samples if s]


def calls_per_s(samples):
    """Calls per second over the fixed call list: list length over the sum
    of the calls' median latencies."""
    meds = call_medians(samples)
    return len(meds) / sum(meds)


def tail(samples):
    """(value, percentile) of the highest whole percentile that still has at
    least TAIL_BEYOND samples above its nearest-rank position."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return ordered[-1], 100


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# runs


def end_to_end(cli, calls, seconds, setup_s):
    checker = Checker()
    res = closed_loop(cli.main, calls, seconds, checker)
    # One sample per call in the list, its median over the passes: the
    # sample count does not depend on how many passes fit in the time, and
    # the tail spans as many distinct calls as possible.
    samples = call_medians(res.samples)
    tail_value, tail_p = tail(samples)
    metrics = {
        "calls_per_s": (calls_per_s(res.samples), "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{tail_p} of {len(samples)} per-call medians over {res.passes} full passes",
        "failed_frac": res.failed / res.attempted,
        "wall time": f"{calls_per_s(res.raw):.4g} calls/s unscaled, reference run median"
        f" {statistics.median(res.reference) * 1000:.3f} ms (scaled to {REF_SECONDS * 1000:g} ms)",
    }
    return res, checker, metrics, notes


def traced(cli, calls, seconds):
    import tracing

    checker = Checker()
    plain = closed_loop(cli.main, calls, seconds / 2, checker)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    counts, times = [], []

    def on_pass():
        counts.append(tracing.layer_counts(tracer))
        times.append(tracing.layer_times(tracer))
        tracer.reset()

    def traced_main(argv):
        tracer.call_id += 1
        return main_span(argv)

    main_span = tracer.wrap("cli.main", cli.main)
    try:
        res = closed_loop(traced_main, calls, seconds / 2, checker, on_pass=on_pass)
    finally:
        uninstall()
    if any(c != counts[0] for c in counts):
        checker.failures.append("per-layer counts differ between passes of the same calls")
    metrics = {name: (statistics.median(t[name] for t in times), "s") for name in tracing.TIME_METRICS}
    for name, value in counts[0].items():
        metrics[name] = (value, "ratio" if name == "feasibility.column_use" else "count")
    base, with_trace = calls_per_s(plain.samples), calls_per_s(res.samples)
    metrics["trace.untraced_calls_per_s"] = (base, "1/s")
    metrics["trace.traced_calls_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_frac"] = (base / with_trace - 1, "ratio")
    combined = LoopResult(0)
    combined.attempted = plain.attempted + res.attempted
    combined.failed = plain.failed + res.failed
    notes = {"passes": f"{plain.passes} untraced + {res.passes} traced full passes"}
    return combined, checker, metrics, notes


def layer_map_notes(workload):
    """The entries of layer_map.json that make a prediction for ``workload``."""
    entries = json.loads((BENCH_DIR / "layer_map.json").read_text(encoding="utf-8"))["map"]
    notes = {}
    for e in entries:
        if workload in e["on"]:
            verdict = "should move " + ", ".join(e["moves"])
        elif workload in e["no_change"]:
            verdict = "should leave every end-to-end metric unchanged"
        else:
            continue
        notes["map " + " + ".join(e["layer"])] = f"{verdict} ({e['why']})"
    return notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypersched" / "cli.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no hypersched source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rng = random.Random(f"{args.workload}:{args.seed}")
    calls = WORKLOADS[args.workload](rng, ROOT / "data")
    props = record_properties(calls)

    runs = BENCH_DIR / "_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        files = {}
        for call in calls:
            if call.inst.name not in files:
                files[call.inst.name] = write_instance(call.inst, workdir)
            call.argv = build_argv(call, files[call.inst.name])
        setup_s, cli = measure_setup(files.values())
        loaded = Path(cli.__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            print(f"error: imported hypersched from {loaded}, not from {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            res, checker, metrics, notes = traced(cli, calls, args.seconds)
            notes.update(layer_map_notes(args.workload))
        else:
            res, checker, metrics, notes = end_to_end(cli, calls, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(calls)} calls on {len(props)} instances")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    notes["properties"] = json.dumps(props, separators=(",", ":"))
    for name, note in notes.items():
        print(f"  {name}: {note}")
    for failure in checker.failures[:20]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not checker.failures,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
