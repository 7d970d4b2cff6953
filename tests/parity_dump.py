"""Dump what the planner and the root solvers return as exact ``float.hex``
records, or compare two such dumps.

    PYTHONPATH=src python3 tests/parity_dump.py OUT
    python3 tests/parity_dump.py --compare A B

A dump holds one line per record, a key and then its fields, over five
corpora:

* ``random``: 3000 plans with |w| <= 0.95, rho in {0.5, 1, 2.5}, the goal
  up to 10*rho away, and every 4th from a random start pose;
* ``integer``: 2,352 plans at rho = 1 with integer goals in [-3, 3]^2, winds
  0, (+-0.5, 0), (0, +-0.5) and (0.3, 0.4), and theta_f a multiple of pi/4;
* ``roots-901`` and ``roots-601``: the 3000 draws of U[-10, 10] coefficients
  that ``bench/workloads.py``'s ``roots-direct`` makes from seeds 901 and
  601, each solved by the three root solvers on their default domain;
* ``samples``: the rows of ``sample(best, t_f / 37, scenario)`` for the first
  600 ``random`` plans, so posed starts and rho != 1 are covered, which the
  ``batch-csv`` workload never draws.

A plan record holds the best label and t_f, then each candidate in plan
order: its label, params, time and residual, and its ``validate`` report.
A root record holds each shape's roots and tangential flags.  A samples
record holds each row's fields, the control as an integer.

``--compare`` lists the records that differ, with the largest relative change
of a candidate time and of a param between candidates at the same place with
the same label, and ends with one summary line per corpus.  A plan record
whose candidate labels moved counts as one of two kinds: only the order of
tied candidates changed, or the candidate set changed.  Candidates tie when
their times differ by at most ``TIED``*max(1, t), as mirror images do in
exact arithmetic; the order changed only when each run of tied candidates
holds the same labels in both records.  A change of the best label is
counted on its own, beside either kind.  A root record counts as changed
when a shape's root count or tangential flags differ, and otherwise gives
its largest root change.
"""

from __future__ import annotations

import math
import random
import sys

#: the ``roots-direct`` seeds whose draws are dumped
ROOT_SEEDS = (901, 601)
#: the ``random`` plans whose sampled rows are dumped, and rows per path
SAMPLED_PLANS, SAMPLE_STEPS = 600, 37
#: time difference, relative to max(1, t), within which ``--compare`` counts
#: two candidates of one plan as tied: the planner's tie width at rho = 1
TIED = 1e-12


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def random_scenarios():
    from windubins import Scenario, WindVector

    rng = random.Random(15)
    for i in range(3000):
        w, w_ang = rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi)
        rho = rng.choice((0.5, 1.0, 2.5))
        r, r_ang = rng.uniform(0.0, 10.0 * rho), rng.uniform(0.0, 2.0 * math.pi)
        start = (0.0, 0.0, 0.5 * math.pi)
        if i % 4 == 0:
            start = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
        yield f"random/{i}", Scenario(
            wind=WindVector(w * math.cos(w_ang), w * math.sin(w_ang)),
            target_x=start[0] + r * math.cos(r_ang),
            target_y=start[1] + r * math.sin(r_ang),
            theta_f=rng.uniform(0.0, 2.0 * math.pi),
            rho=rho,
            start=start,
        )


def integer_scenarios():
    from windubins import Scenario, WindVector

    winds = ((0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5), (0.3, 0.4))
    for wx, wy in winds:
        for x in range(-3, 4):
            for y in range(-3, 4):
                for k in range(8):
                    scenario = Scenario(
                        wind=WindVector(wx, wy), target_x=float(x), target_y=float(y),
                        theta_f=k * math.pi / 4.0, rho=1.0,
                    )
                    yield f"integer/{wx},{wy},{x},{y},{k}", scenario


def plan_record(scenario) -> str:
    from windubins.planner import plan, validate

    result = plan(scenario)
    fields = [result.best.variant.label if result.best else "-", _hex([result.t_f])]
    for c in result.all_candidates:
        report = validate(c, scenario)
        fields.append(
            f"{c.variant.label}:{_hex(c.params)}:{_hex([c.total_time, c.residual])}"
            f":{_hex(report[:3])}:{int(report.feasible)}"
        )
    return " ".join(fields)


def sample_record(scenario) -> str:
    from windubins.planner import plan, sample

    best = plan(scenario).best
    if best is None:
        return "-"
    rows = sample(best, best.total_time / SAMPLE_STEPS, scenario)
    return " ".join(f"{_hex(r[:4])},{r.u},{_hex(r[5:])}" for r in rows)


def root_records(seed: int):
    from windubins import EnvelopeCoeffs, QuadCosCoeffs, SinusoidCoeffs
    from windubins.rootfind import solve_envelope, solve_quadcos, solve_sinusoid

    rng = random.Random(seed)  # the same draws, in the same order, as roots-direct
    for i in range(3000):
        q, s, e = (tuple(rng.uniform(-10.0, 10.0) for _ in range(k)) for k in (4, 3, 5))
        sets = (
            solve_quadcos(QuadCosCoeffs(*q)),
            solve_sinusoid(SinusoidCoeffs(*s)),
            solve_envelope(EnvelopeCoeffs(*e)),
        )
        yield f"roots-{seed}/{i}", " ".join(
            f"{_hex(rs.roots)}:{''.join('T' if t else 'S' for t in rs.tangential)}" for rs in sets
        )


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for key, scenario in (*random_scenarios(), *integer_scenarios()):
            out.write(f"{key} {plan_record(scenario)}\n")
        for i, (_, scenario) in zip(range(SAMPLED_PLANS), random_scenarios()):
            out.write(f"samples/{i} {sample_record(scenario)}\n")
        for seed in ROOT_SEEDS:
            for key, record in root_records(seed):
                out.write(f"{key} {record}\n")


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" ", 1) for line in fh)


def _tie_runs(candidates: list[str]) -> list[list[str]]:
    """The sorted labels of each run of consecutive candidates whose times
    tie (``TIED``)."""
    runs, last = [], -math.inf
    for c in candidates:
        label, _, times = c.split(":")[:3]
        time = float.fromhex(times.split(",")[0])
        if time - last > TIED * max(1.0, abs(time)):
            runs.append([])
        runs[-1].append(label)
        last = time
    return [sorted(run) for run in runs]


def _plan_changes(a: str, b: str) -> tuple[str, bool, float, float]:
    """(how the labels changed: "same", "order" or "set"; whether the best
    label changed; the largest relative time change; the largest param
    change relative to max(1, |param|)) of two plan records."""
    ca, cb = a.split(" ")[2:], b.split(" ")[2:]
    labels_a = [c.split(":")[0] for c in ca]
    labels_b = [c.split(":")[0] for c in cb]
    d_time = d_param = 0.0
    for x, y in zip(ca, cb):
        lx, px, tx = x.split(":")[:3]
        ly, py, ty = y.split(":")[:3]
        if lx != ly:
            continue
        t1, t2 = float.fromhex(tx.split(",")[0]), float.fromhex(ty.split(",")[0])
        d_time = max(d_time, abs(t1 - t2) / abs(t1))
        for p, q in zip(px.split(","), py.split(",")):
            p, q = float.fromhex(p), float.fromhex(q)
            d_param = max(d_param, abs(p - q) / max(1.0, abs(p)))
    if labels_a == labels_b:
        kind = "same"
    else:
        kind = "order" if _tie_runs(ca) == _tie_runs(cb) else "set"
    return kind, a.split(" ")[0] != b.split(" ")[0], d_time, d_param


def _root_changes(a: str, b: str) -> tuple[bool, float]:
    """(same root counts and tangential flags, largest root change) of two
    root records."""
    same, d_root = True, 0.0
    for x, y in zip(a.split(" "), b.split(" ")):
        (rx, fx), (ry, fy) = x.split(":"), y.split(":")
        rx, ry = rx.split(",") if rx else [], ry.split(",") if ry else []
        if fx != fy or len(rx) != len(ry):
            same = False
            continue
        for p, q in zip(rx, ry):
            d_root = max(d_root, abs(float.fromhex(p) - float.fromhex(q)))
    return same, d_root


def compare(path_a: str, path_b: str) -> int:
    """Print the differing records and a summary per corpus; 1 if any differ."""
    a, b = _read(path_a), _read(path_b)
    summary: dict[str, list] = {}
    for key in sorted(a.keys() | b.keys(), key=lambda k: (k.split("/")[0], k)):
        corpus = key.split("/")[0]
        # records, differ, best label changed, set changed, order only, time, param
        row = summary.setdefault(corpus, [0, 0, 0, 0, 0, 0.0, 0.0])
        row[0] += 1
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        row[1] += 1
        if ra is None or rb is None:
            print(f"{key}\n  A: {ra}\n  B: {rb}")
            continue
        if corpus.startswith("roots"):
            same, d_root = _root_changes(ra, rb)
            row[3] += not same
            row[5] = max(row[5], d_root)
            print(f"{key}: counts and flags {'same' if same else 'DIFFER'}, root {d_root:.2g}")
            if not same:
                print(f"  A: {ra}\n  B: {rb}")
            continue
        if corpus == "samples":
            rows = list(zip(ra.split(" "), rb.split(" ")))
            moved = [i for i, (x, y) in enumerate(rows) if x != y]
            print(f"{key}: {len(moved)} of {len(rows)} rows differ, row counts"
                  f" {ra.count(' ') + 1} -> {rb.count(' ') + 1}")
            continue
        kind, best_moved, d_time, d_param = _plan_changes(ra, rb)
        row[2] += best_moved
        row[3] += kind == "set"
        row[4] += kind == "order"
        row[5], row[6] = max(row[5], d_time), max(row[6], d_param)
        best_a, best_b = (r.split(" ")[:2] for r in (ra, rb))
        print(
            f"{key}: labels {kind}, time {d_time:.2g}, param {d_param:.2g}, best"
            f" {best_a[0]} {float.fromhex(best_a[1])!r} -> {best_b[0]} {float.fromhex(best_b[1])!r}"
        )
        if kind != "same":
            print(f"  A: {' '.join(c.split(':')[0] for c in ra.split(' ')[2:])}")
            print(f"  B: {' '.join(c.split(':')[0] for c in rb.split(' ')[2:])}")
    for corpus, (n, differ, best, moved, order, d_time, d_param) in summary.items():
        if corpus.startswith("roots"):
            print(
                f"{corpus}: {n} records, {differ} differ: {moved} root counts or flags"
                f" changed; largest root change {d_time:.2g}"
            )
            continue
        print(
            f"{corpus}: {n} records, {differ} differ: {best} best label changed,"
            f" {moved} candidate set changed, {order} only tied order changed;"
            f" largest relative change: time {d_time:.2g}, param {d_param:.2g}"
        )
    return 1 if any(row[1] for row in summary.values()) else 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "--compare":
        return compare(argv[2], argv[3])
    if len(argv) == 2:
        dump(argv[1])
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
