"""Interleaved in-process A/B timing of two source trees on one benchmark
workload.

    python3 tests/interleave.py TREE_A TREE_B --workload W --seed S --reps R

Each tree's ``src/windubins`` is copied into a temporary directory under a
package name of its own, ``windubins_a`` and ``windubins_b``, so that both
load in one interpreter.  W's corpus is built by this repository's
``bench/workloads.py``, which is only read, from the same seed as
``bench/run.py --seed S`` builds it.  Each of R reps calls A and B on every
operation in turn, swapping which of the two goes first from one operation
and rep to the next, and keeps each operation's fastest call per tree.  The
machine's speed can drift by more than the change being measured between two
runs of ``bench/run.py``; here both trees see the same drift.

Prints p50, p99 and the sum of the per-operation fastest calls for each tree,
the change from A to B, how many operations were faster in B and how many
gave a different output.  A ``plan-mixed`` output is every candidate's
label, params, time and residual, in plan order, so a candidate that moves
counts even when the best does not; a ``roots-direct`` output is each
solver's roots and tangential flags.  For ``batch-csv`` the two trees must
also write identical bytes for every line; the exit status is 1 when they
do not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

_SUBMODULES = ("geometry", "rootfind", "families", "planner", "cli")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tree(tree: str, name: str, into: str):
    """TREE's ``src/windubins`` copied to ``into/name`` and imported as ``name``."""
    shutil.copytree(
        os.path.join(tree, "src", "windubins"), os.path.join(into, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    pkg = importlib.import_module(name)
    for sub in _SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return pkg


def load_workloads(pkg):
    """``bench/workloads.py``, with ``pkg`` standing in for the ``windubins``
    that its ``ops`` module imports."""
    sys.modules["windubins"] = pkg
    for sub in _SUBMODULES:
        sys.modules[f"windubins.{sub}"] = getattr(pkg, sub)
    sys.path.insert(0, BENCH)
    return importlib.import_module("workloads")


def plan_mixed(wl, pkg, workdir, tag):
    def make(wx, wy, x, y, theta_f, rho, start):
        return pkg.Scenario(
            wind=pkg.WindVector(wx, wy), target_x=x, target_y=y, theta_f=theta_f, rho=rho,
            start=tuple(start),
        )

    def digest(result):
        return tuple(
            (c.variant.label, tuple(c.params), c.total_time, c.residual)
            for c in result.all_candidates
        )

    return pkg.planner.plan, [make(*raw) for raw in wl.raw], digest


def roots_direct(wl, pkg, workdir, tag):
    rootfind = pkg.rootfind

    def op(coeffs):
        q, s, e = coeffs
        return rootfind.solve_quadcos(q), rootfind.solve_sinusoid(s), rootfind.solve_envelope(e)

    inputs = [
        (pkg.QuadCosCoeffs(*q), pkg.SinusoidCoeffs(*s), pkg.EnvelopeCoeffs(*e)) for q, s, e in wl.raw
    ]
    return op, inputs, lambda out: tuple((rs.roots, rs.tangential) for rs in out)


def batch_csv(wl, pkg, workdir, tag):
    out_path = os.path.join(workdir, f"out-{tag}.txt")
    run = pkg.cli.run

    def op(path):
        return run(wl.argv(path, out_path))

    def digest(status):
        with open(out_path, "rb") as fh:
            return status, fh.read()

    return op, list(wl.inputs), digest


ADAPTERS = {"plan-mixed": plan_mixed, "roots-direct": roots_direct, "batch-csv": batch_csv}


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summary(best: list[int]) -> tuple[float, float, float]:
    """(p50, p99, sum) of the per-operation fastest calls, in us."""
    ordered = sorted(best)
    return statistics.median(ordered) / 1e3, nearest_rank(ordered, 0.99) / 1e3, sum(ordered) / 1e3


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--workload", required=True, choices=sorted(ADAPTERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=8)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkg_a = load_tree(args.tree_a, "windubins_a", tmp)
        pkg_b = load_tree(args.tree_b, "windubins_b", tmp)
        workloads = load_workloads(pkg_a)
        workdir = os.path.join(tmp, "work")
        os.mkdir(workdir)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        adapt = ADAPTERS[args.workload]
        sides = [adapt(wl, pkg, workdir, tag) for pkg, tag in ((pkg_a, "a"), (pkg_b, "b"))]
        n = len(sides[0][1])

        # One untimed call of each: the outputs, compared between the trees.
        digests = [[digest(op(x)) for x in inputs] for op, inputs, digest in sides]
        differ = sum(1 for da, db in zip(*digests) if da != db)

        best = [[math.inf] * n, [math.inf] * n]
        perf_counter_ns = time.perf_counter_ns
        for rep in range(args.reps):
            gc.collect()
            for i in range(n):
                for k in ((0, 1) if (i + rep) % 2 == 0 else (1, 0)):
                    op, inputs, _ = sides[k]
                    x = inputs[i]
                    t0 = perf_counter_ns()
                    op(x)
                    ns = perf_counter_ns() - t0
                    if ns < best[k][i]:
                        best[k][i] = ns

    faster = sum(1 for a, b in zip(*best) if b < a)
    (a50, a99, asum), (b50, b99, bsum) = summary(best[0]), summary(best[1])
    print(f"{args.workload} seed {args.seed}: {n} ops, {args.reps} reps, fastest call of each")
    for label, a, b in (("p50", a50, b50), ("p99", a99, b99), ("sum", asum, bsum)):
        print(f"  {label:4} A {a:12.1f} us  B {b:12.1f} us  change {100.0 * (b / a - 1.0):+6.1f} %")
    print(f"  B faster on {faster} of {n} ops; outputs differ on {differ} of {n}")
    if args.workload == "batch-csv" and differ:
        print("error: the two trees wrote different bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
