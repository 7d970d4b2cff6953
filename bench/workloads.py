"""The three seeded workloads: their corpora, their operation, and the checks
run on every output.

A corpus is drawn from ``random.Random(seed)`` as plain numbers, then turned
into the planner's input objects before anything is timed.  The operations
themselves are in ``ops.py``.  Each workload's first operation, the one the
set-up probe times, is fixed and does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import checks
import ops
from ops import START, make_scenario

PLAN_LAYERS = (
    "geometry.normalize", "geometry.integrate",
    "rootfind.quadcos", "rootfind.sinusoid", "rootfind.envelope",
    "families.sc", "families.cc", "families.ccc", "families.csc", "families.all",
    "planner.plan",
)


def _draw_scenario(rng, speed, distance, posed):
    """(wx, wy, X, Y, theta_f, rho, start): the goal `distance` from the start
    in a uniform direction, a wind of `speed` in a uniform bearing."""
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    direction = rng.uniform(0.0, 2.0 * math.pi)
    theta_f = rng.uniform(0.0, 2.0 * math.pi)
    start = START
    if posed:
        start = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
    return (
        speed * math.cos(bearing),
        speed * math.sin(bearing),
        start[0] + distance * math.cos(direction),
        start[1] + distance * math.sin(direction),
        theta_f,
        1.0,
        start,
    )


class PlanMixed:
    """op = one plan() call, over a corpus stratified by regime."""

    name = "plan-mixed"
    layers = PLAN_LAYERS
    #: regime, scenarios, wind speed range, goal distance range (rho = 1)
    REGIMES = (
        ("zero-wind", 98, (0.0, 0.0), (0.5, 12.0)),
        ("low-wind", 98, (0.05, 0.3), (2.0, 12.0)),
        ("high-wind", 98, (0.6, 0.9), (2.0, 12.0)),
        ("near", 98, (0.0, 0.9), (0.0, 2.0)),
        ("far", 98, (0.0, 0.9), (15.0, 30.0)),
    )
    REFERENCE_COPIES = 5  # of each reference case
    POSED_EVERY = 4  # every 4th random scenario starts from a random pose
    MIRROR_EVERY = 8  # every 8th scenario is also planned mirrored

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        corpus = []
        for regime, count, (w_lo, w_hi), (d_lo, d_hi) in self.REGIMES:
            for k in range(count):
                speed, distance = rng.uniform(w_lo, w_hi), rng.uniform(d_lo, d_hi)
                corpus.append((regime, _draw_scenario(rng, speed, distance, k % self.POSED_EVERY == 0)))
        for kind, case in (("case1", checks.CASE1), ("case2", checks.CASE2)):
            corpus.extend([(kind, case + (START,))] * self.REFERENCE_COPIES)
        rng.shuffle(corpus)
        self.kinds = [kind for kind, _ in corpus]
        self.raw = [scn for _, scn in corpus]
        self.inputs = [make_scenario(*scn) for scn in self.raw]

    def first_op(self):
        """Reference case 1."""
        return list(checks.CASE1) + [list(START)]

    op = staticmethod(ops.plan)

    @staticmethod
    def failed(result) -> bool:
        return result.best is None

    @staticmethod
    def digest(result):
        return (result.best.variant.label, result.t_f)

    def check(self, i, result):
        scn, kind = self.raw[i], self.kinds[i]
        wx, wy, x, y, theta_f, rho, start = scn
        label = result.best.variant.label
        problems = checks.check_plan(
            scn, result.t_f, label, result.best.schedule.pieces,
            [c.total_time for c in result.all_candidates],
        )
        if kind in checks.REFERENCE_WINNERS:
            problems += checks.check_reference(kind, result.t_f, label)
        if wx == 0.0 and wy == 0.0 and math.hypot(x - start[0], y - start[1]) > 4.0 * rho:
            problems += checks.check_zero_wind(scn, result.t_f)
        if i % self.MIRROR_EVERY == 0:
            mwx, mwy, mx, my, mth, mstart = checks.mirror_scenario(wx, wy, x, y, theta_f, start)
            mres = ops.plan(make_scenario(mwx, mwy, mx, my, mth, rho, mstart))
            if mres.best is None:
                problems.append("mirrored scenario has no feasible path")
            else:
                problems += checks.check_mirror(result.t_f, label, mres.t_f, mres.best.variant.label)
        return problems

    def finish(self):
        return []


class RootsDirect:
    """op = solve_quadcos, solve_sinusoid and solve_envelope on one draw of
    full-domain coefficients, each uniform in [-10, 10]."""

    name = "roots-direct"
    layers = ("rootfind.quadcos", "rootfind.sinusoid", "rootfind.envelope")
    DRAWS = 3000
    SCANNED = 48  # draws also compared against the dense numpy scan
    #: the set-up probe's draw: its three solves take about the corpus median
    FIRST_DRAW = ((7.5, 1.4, -1.7, -2.0), (4.0, -1.6, 3.2), (-9.1, -1.1, -4.8, -6.8, 0.6))

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.raw = [
            tuple(tuple(rng.uniform(-10.0, 10.0) for _ in range(k)) for k in (4, 3, 5))
            for _ in range(self.DRAWS)
        ]
        self.inputs = [ops.make_coeffs(*draw) for draw in self.raw]

    def first_op(self):
        return [list(c) for c in self.FIRST_DRAW]

    op = staticmethod(ops.solve_roots)

    @staticmethod
    def failed(out) -> bool:
        return False

    @staticmethod
    def digest(out):
        return tuple(rs.roots for rs in out)

    def check(self, i, out):
        problems = []
        for kind, coeffs, rs in zip(("quadcos", "sinusoid", "envelope"), self.raw[i], out):
            shape = checks.SHAPES[kind](*coeffs)
            scale = 1.0 + sum(abs(c) for c in coeffs)
            scanned = checks.scan_roots(shape) if i < self.SCANNED else None
            found = checks.check_root_set(shape, scale, rs.roots, rs.tangential, scanned)
            problems += [f"{kind}: {p}" for p in found]
        return problems

    def finish(self):
        return []


class BatchCsv:
    """op = one scenario line through `windubins batch --output both` with a
    fine sampling step, each line in its own one-line file."""

    name = "batch-csv"
    layers = PLAN_LAYERS + ("planner.sample", "geometry.state_at", "cli")
    LINES = 300
    SAMPLE_DT = "0.05"
    MAX_WIND = 0.5
    DISTANCE = (1.0, 5.0)
    JOINED = 25  # first lines also run as one multi-line batch, twice

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.raw = []
        for _ in range(self.LINES):
            speed, distance = rng.uniform(0.0, self.MAX_WIND), rng.uniform(*self.DISTANCE)
            wx, wy, x, y, theta_f, rho, _ = _draw_scenario(rng, speed, distance, False)
            self.raw.append((wx, wy, x, y, math.degrees(theta_f), rho))
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.txt")
        self.inputs = [self.write_line(f"line-{i}.txt", fields) for i, fields in enumerate(self.raw)]
        self.texts = []
        self.bytes = []

    def write_line(self, name, fields):
        """A one-line batch file in the work directory; its path."""
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(repr(v) for v in fields) + "\n")
        return path

    def argv(self, path, out_path):
        return ops.batch_argv(path, out_path, self.SAMPLE_DT)

    def first_op(self):
        """Reference case 1 as a batch line, in a file of its own."""
        wx, wy, x, y, theta_f, rho = checks.CASE1
        path = self.write_line("first-op-line.txt", (wx, wy, x, y, math.degrees(theta_f), rho))
        return self.argv(path, os.path.join(self.workdir, "first-op.txt"))

    def op(self, path):
        return ops.run_cli(self.argv(path, self.out_path))

    @staticmethod
    def failed(status) -> bool:
        return status != 0

    def digest(self, status):
        with open(self.out_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def scenario(self, i):
        wx, wy, x, y, theta_deg, rho = self.raw[i]
        return (wx, wy, x, y, math.radians(theta_deg), rho)

    def check(self, i, status):
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        self.bytes.append(len(text.encode("utf-8")))
        if i < self.JOINED:
            self.texts.append(text)
        blocks = checks.parse_batch_output(text)
        if len(blocks) != 1:
            return [f"{len(blocks)} scenario headers for one input line"]
        _, t_f, rows = blocks[0]
        return checks.check_csv_block(self.scenario(i), float(self.SAMPLE_DT), t_f, rows)

    def finish(self):
        """The first lines as one batch file, run twice: exit 0, one header
        per line, byte-identical runs, and each block equal to the line's
        own one-line run apart from the line number in its header."""
        joined = os.path.join(self.workdir, "joined.txt")
        with open(joined, "w", encoding="utf-8") as fh:
            for path in self.inputs[: self.JOINED]:
                with open(path, encoding="utf-8") as line:
                    fh.write(line.read())
        outputs = []
        problems = []
        for k in range(2):
            out_path = os.path.join(self.workdir, f"joined-{k}.txt")
            status = ops.run_cli(self.argv(joined, out_path))
            if status != 0:
                problems.append(f"multi-line batch exited {status}")
            with open(out_path, "rb") as fh:
                outputs.append(fh.read())
        if outputs[0] != outputs[1]:
            problems.append("two runs of one batch file differ")
        blocks = outputs[0].decode("utf-8").split("\n# scenario ")
        if len(blocks) != self.JOINED:
            problems.append(f"{len(blocks)} scenario headers for {self.JOINED} lines")
        for text, block in zip(self.texts, blocks):
            if text.split("\n", 1)[1] != block.split("\n", 1)[1].rstrip("\n") + "\n":
                problems.append("a block of the multi-line batch differs from its one-line run")
                break
        return problems


WORKLOADS = {w.name: w for w in (PlanMixed, RootsDirect, BatchCsv)}
