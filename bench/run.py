"""Benchmark command for windubins.

Usage (from the root of a checkout):

    python3 bench/run.py --workload plan-mixed --seed 1 --seconds 35 --trace 0

Workloads: plan-mixed, roots-direct, batch-csv (see bench/README.md).  The
package is imported from the checkout's own ``src/``.

Every run first makes one untimed check pass: each operation runs once and
its output is checked against computations made apart from the planner.
With ``--trace 0`` it then makes timed passes over the corpus, alternately
forward and backward, and stops at the end of the pass nearest to
``--seconds``; after each pass the slowest 3 % of the operations are called
again for a while.  An operation's latency is its fastest call: the machine
the reference figures come from switches between a fast and a slow speed
every few tenths of a second to minutes, and interference only ever adds
time.  p50 and p99 are taken over those per-operation latencies and
throughput is the number of operations over their sum.  Every timed call's
output must equal the check pass's output.  ``setup_s`` comes from fresh interpreters, spread evenly over
the run between passes, each timed from importing the package to the end of
the workload's first operation, which is fixed and does not depend on the
seed: it is the median over ten groups of three samples, a third of the run
apart, of each group's fastest.

With ``--trace 1`` it alternates untraced and traced passes instead and
reports the per-layer metrics, derived from spans recorded around each
layer's public functions (bench/spans.py).  The spans of the last traced pass
are written to bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every check passed, 1 when a check failed and 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_PASSES = 3
TAIL_SHARE = 0.03
TAIL_TIME = 0.15
SETUP_GROUPS = 10
SETUP_SAMPLES = 3 * SETUP_GROUPS
SETUP_TIMEOUT_S = 60


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "windubins", "__init__.py")):
        die(f"no windubins sources under {SRC}")
    sys.path.insert(0, SRC)
    import windubins

    if not os.path.abspath(windubins.__file__).startswith(SRC + os.sep):
        die(f"windubins imported from {windubins.__file__}, not from {SRC}")


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        if len(self.problems) <= 20:
            print(f"check failed: {text}", file=sys.stderr)


def run_op(op, x, tally: Tally, failed):
    """One call: (ns, output), or (None, None) when the operation failed."""
    tally.attempted += 1
    try:
        t0 = time.perf_counter_ns()
        out = op(x)
        t1 = time.perf_counter_ns()
    except Exception as exc:  # an operation that raises counts as failed
        tally.failed += 1
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, None
    if failed(out):
        tally.failed += 1
        return None, None
    return t1 - t0, out


def check_pass(wl, tally: Tally) -> list:
    """Run each operation once, untimed, and check its output."""
    ref = []
    for i, x in enumerate(wl.inputs):
        _, out = run_op(wl.op, x, tally, wl.failed)
        ref.append(None if out is None else wl.digest(out))
        if out is not None:
            for p in wl.check(i, out):
                tally.problem(f"op {i}: {p}")
    for p in wl.finish():
        tally.problem(p)
    return ref


def timed_pass(wl, op, ref, tally: Tally, order) -> list:
    """Call the operations at the indices in ``order``, in that order; their
    ns (None where one failed), aligned with ``order``."""
    times = []
    for i in order:
        ns, out = run_op(op, wl.inputs[i], tally, wl.failed)
        times.append(ns)
        if out is not None and wl.digest(out) != ref[i]:
            tally.problem(f"op {i}: output differs from the check pass")
    return times


def lower(best: list, order, times) -> None:
    """Lower each operation's fastest time in ``best`` by its new calls."""
    for i, ns in zip(order, times):
        if ns is not None and ns < best[i]:
            best[i] = ns


def finite_median(best: list) -> float:
    return statistics.median(ns for ns in best if ns < math.inf)


class SetupProbe:
    """Times fresh interpreters from importing the package to the end of the
    workload's first operation.  ``warm`` runs one unmeasured interpreter so
    that every measured one finds the bytecode caches written."""

    def __init__(self, wl) -> None:
        self.argv = [sys.executable, "-I", os.path.join(BENCH, "first_op.py"), ROOT, wl.name,
                     json.dumps(wl.first_op())]
        self.samples: list[float] = []

    def _run(self) -> float:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["ok"]:
            die("the first operation failed in a fresh interpreter")
        return result["seconds"]

    def warm(self) -> None:
        self._run()

    def catch_up(self, share: float) -> None:
        """Take samples until ``share`` of the SETUP_SAMPLES are taken."""
        while len(self.samples) < min(SETUP_SAMPLES, math.ceil(share * SETUP_SAMPLES)):
            self.samples.append(self._run())

    def median(self) -> float:
        """The median over SETUP_GROUPS groups of the fastest of each group's
        three samples, which lie a third of the run apart: interference only
        ever adds time, as for the operations' calls."""
        self.catch_up(1.0)
        return statistics.median(min(self.samples[k::SETUP_GROUPS]) for k in range(SETUP_GROUPS))


def more_passes(t_start: float, done: int, seconds: float, minimum: int) -> bool:
    """Whether another pass (or pair of passes) ends nearer to ``seconds``
    than stopping now; at least ``minimum`` are made."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / done < seconds


def measure(wl, ref, tally: Tally, seconds: float, setup: SetupProbe) -> dict:
    """Timed passes over the corpus, alternately forward and backward, so
    that the calls of one operation do not all fall at the same offset of a
    pass.  After each pass the slowest TAIL_SHARE of the operations, ranked
    anew by their fastest call so far, are called again and again for
    TAIL_TIME of the pass's duration: the p99 rests on those few operations,
    and a pass gives each only one call.  Then the set-up samples due by then
    are taken, so that they are spread over the run like the operations'
    calls."""
    n = len(wl.inputs)
    forward = list(range(n))
    best = [math.inf] * n
    passes = 0
    t_start = time.perf_counter()
    while more_passes(t_start, passes, seconds, MIN_PASSES):
        gc.collect()
        t_pass = time.perf_counter()
        order = forward if passes % 2 == 0 else forward[::-1]
        lower(best, order, timed_pass(wl, wl.op, ref, tally, order))
        passes += 1
        t_tail = time.perf_counter()
        while time.perf_counter() - t_tail < TAIL_TIME * (t_tail - t_pass):
            tail = sorted(forward, key=best.__getitem__)[-math.ceil(TAIL_SHARE * n):]
            lower(best, tail, timed_pass(wl, wl.op, ref, tally, tail))
        setup.catch_up((time.perf_counter() - t_start) / seconds)
    best = sorted(ns for ns in best if ns < math.inf)
    print(f"{passes} passes over {n} ops", file=sys.stderr)
    return {
        "latency_p50_us": (statistics.median(best) / 1e3, "us"),
        "latency_p99_us": (nearest_rank(best, 0.99) / 1e3, "us"),
        "throughput_per_s": (len(best) / (math.fsum(best) / 1e9), "1/s"),
        "setup_s": (setup.median(), "s"),
    }


def trace(wl, ref, tally: Tally, seconds: float, spans_path: str) -> dict:
    """Untraced and traced passes in turn; per-layer metrics from the spans."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    n = len(wl.inputs)
    order = range(n)
    untraced, traced, totals = [math.inf] * n, [math.inf] * n, []
    t_start = time.perf_counter()
    while more_passes(t_start, len(totals), seconds, 1):
        gc.collect()
        lower(untraced, order, timed_pass(wl, wl.op, ref, tally, order))
        recorder.clear()
        recorder.install()
        gc.collect()
        try:
            lower(traced, order, timed_pass(wl, recorder.traced_op(wl.op), ref, tally, order))
        finally:
            recorder.uninstall()
        totals.append(recorder.totals())
    recorder.write(spans_path)
    print(f"{len(totals)} traced passes over {n} ops; spans in {spans_path}", file=sys.stderr)

    counts = [{name: (t["calls"], t["size"]) for name, t in pass_totals.items()} for pass_totals in totals]
    if any(c != counts[0] for c in counts):
        tally.problem("span counts differ between traced passes of the same corpus")
    for name in wl.layers:
        if totals[0][name]["calls"] == 0:
            die(f"layer {name} recorded no calls on {wl.name}, where it does work")
    overhead_us = (finite_median(traced) - finite_median(untraced)) / 1e3
    return layer_metrics(totals, n, overhead_us, getattr(wl, "bytes", []))


def layer_metrics(totals, n: int, overhead_us: float, out_bytes) -> dict:
    """Per-operation layer figures: counts from the first traced pass (they
    are equal in every pass), times as the median over traced passes."""
    first = totals[0]

    def per_op(name, key):
        return first[name][key] / n

    def us_per_op(name, key):
        return statistics.median(t[name][key] for t in totals) / n / 1e3

    m = {}
    for shape in ("quadcos", "sinusoid", "envelope"):
        name = f"rootfind.{shape}"
        m[f"{name}.calls"] = (per_op(name, "calls"), "calls/op")
        m[f"{name}.roots"] = (per_op(name, "size"), "roots/op")
        m[f"{name}.self_us"] = (us_per_op(name, "self"), "us/op")
    p99 = [nearest_rank(sorted(t["rootfind.envelope"]["durations"]), 0.99) / 1e3
           for t in totals if t["rootfind.envelope"]["durations"]]
    m["rootfind.envelope.call_p99_us"] = (statistics.median(p99) if p99 else 0.0, "us")
    for fam in ("sc", "cc", "ccc", "csc"):
        m[f"families.{fam}.self_us"] = (us_per_op(f"families.{fam}", "self"), "us/op")
    m["families.candidates"] = (per_op("families.all", "size"), "candidates/op")
    roots = sum(first[f"rootfind.{s}"]["size"] for s in ("quadcos", "sinusoid", "envelope"))
    kept = sum(first[f"families.{f}"]["size"] for f in ("sc", "cc", "ccc", "csc"))
    m["families.kept_per_root"] = (kept / roots if roots else 0.0, "ratio")
    m["geometry.integrate.calls"] = (per_op("geometry.integrate", "calls"), "calls/op")
    m["geometry.integrate.self_us"] = (us_per_op("geometry.integrate", "self"), "us/op")
    m["geometry.normalize.self_us"] = (us_per_op("geometry.normalize", "self"), "us/op")
    m["planner.plan.self_us"] = (us_per_op("planner.plan", "self"), "us/op")
    m["planner.plan.us"] = (us_per_op("planner.plan", "total"), "us/op")
    m["planner.sample.us"] = (us_per_op("planner.sample", "total"), "us/op")
    m["planner.sample.rows"] = (per_op("planner.sample", "size"), "rows/op")
    m["geometry.state_at.calls"] = (per_op("geometry.state_at", "calls"), "calls/op")
    m["geometry.state_at.self_us"] = (us_per_op("geometry.state_at", "self"), "us/op")
    m["cli.self_us"] = (us_per_op("cli", "self"), "us/op")
    m["cli.bytes"] = (sum(out_bytes) / n, "B/op")
    m["trace.overhead_us"] = (overhead_us, "us")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        if args.trace:
            ref = check_pass(wl, tally)
            spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.csv")
            metrics = trace(wl, ref, tally, args.seconds, spans_path)
        else:
            setup = SetupProbe(wl)
            setup.warm()
            ref = check_pass(wl, tally)
            metrics = measure(wl, ref, tally, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
