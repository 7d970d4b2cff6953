"""Self-tests of the benchmark's output checks: each check passes a genuine
planner output and rejects a deliberately corrupted one.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py -q
"""

import math
import os
import shutil
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import windubins  # noqa: E402
import windubins.cli  # noqa: E402
from ops import START, make_scenario  # noqa: E402

CASE1 = checks.CASE1 + (START,)
ZERO_WIND_FAR = (0.0, 0.0, 6.0, -3.0, 1.0, 1.0, START)
POSED = (0.3, -0.2, 4.0, 5.0, 2.0, 1.0, (1.0, 2.0, 0.4))


def planned(scn):
    result = windubins.plan(make_scenario(*scn))
    return result, result.best.variant.label, list(result.best.schedule.pieces)


def plan_problems(scn, t_f, label, pieces, times):
    return checks.check_plan(scn, t_f, label, pieces, times)


@pytest.mark.parametrize("scn", [CASE1, ZERO_WIND_FAR, POSED])
def test_plan_check_accepts_planner_output(scn):
    result, label, pieces = planned(scn)
    times = [c.total_time for c in result.all_candidates]
    assert plan_problems(scn, result.t_f, label, pieces, times) == []


def test_plan_check_rejects_perturbed_endpoint():
    result, label, pieces = planned(POSED)
    u, dur = pieces[-1]
    pieces[-1] = (u, dur + 1e-4)
    times = [c.total_time for c in result.all_candidates]
    found = plan_problems(POSED, result.t_f, label, pieces, times)
    assert any("misses the drifting goal" in p for p in found)


def test_plan_check_rejects_time_below_lower_bound():
    wx, wy, x, y, _, _, start = CASE1
    bound = checks.interception_lower_bound(x - start[0], y - start[1], wx, wy)
    t_f = 0.9 * bound
    pieces = [(0, t_f)]
    found = plan_problems(CASE1, t_f, "LSL", pieces, [t_f])
    assert any("below the interception bound" in p for p in found)


def test_plan_check_rejects_slower_than_a_candidate():
    result, label, pieces = planned(CASE1)
    times = [c.total_time for c in result.all_candidates] + [result.t_f - 1e-3]
    found = plan_problems(CASE1, result.t_f, label, pieces, times)
    assert any("not the fastest candidate" in p for p in found)


def test_reference_check():
    result, label, _ = planned(CASE1)
    assert checks.check_reference("case1", result.t_f, label) == []
    assert checks.check_reference("case1", result.t_f, "RSR")
    assert checks.check_reference("case1", result.t_f + 2e-3, label)
    case2 = checks.CASE2 + (START,)
    result, label, _ = planned(case2)
    assert checks.check_reference("case2", result.t_f, label) == []


def test_dubins_length_known_paths():
    # straight ahead
    assert checks.dubins_length((0.0, 0.0, 0.5 * math.pi), (0.0, 10.0, 0.5 * math.pi), 1.0) == pytest.approx(10.0)
    # a right quarter turn to (1, 1) facing +x, then 9 straight
    got = checks.dubins_length((0.0, 0.0, 0.5 * math.pi), (10.0, 1.0, 0.0), 1.0)
    assert got == pytest.approx(0.5 * math.pi + 9.0)


def test_zero_wind_check():
    result, _, _ = planned(ZERO_WIND_FAR)
    assert checks.check_zero_wind(ZERO_WIND_FAR, result.t_f) == []
    assert checks.check_zero_wind(ZERO_WIND_FAR, result.t_f + 1e-8)


def test_mirror_check():
    result, label, _ = planned(POSED)
    wx, wy, x, y, theta_f, rho, start = POSED
    mwx, mwy, mx, my, mth, mstart = checks.mirror_scenario(wx, wy, x, y, theta_f, start)
    mres = windubins.plan(make_scenario(mwx, mwy, mx, my, mth, rho, mstart))
    mlabel = mres.best.variant.label
    assert checks.check_mirror(result.t_f, label, mres.t_f, mlabel) == []
    assert checks.check_mirror(result.t_f, label, mres.t_f, label)  # unmirrored label
    assert checks.check_mirror(result.t_f, label, mres.t_f + 1e-8, mlabel)


ROOT_CASES = [
    ("quadcos", windubins.solve_quadcos, windubins.QuadCosCoeffs, (0.4, -3.0, 5.0, 1.0)),
    ("sinusoid", windubins.solve_sinusoid, windubins.SinusoidCoeffs, (1.0, -4.0, 2.5)),
    ("envelope", windubins.solve_envelope, windubins.EnvelopeCoeffs, (2.0, -3.0, 4.0, 1.5, -0.7)),
]


@pytest.mark.parametrize("kind, solve, make, coeffs", ROOT_CASES)
def test_root_check(kind, solve, make, coeffs):
    shape = checks.SHAPES[kind](*coeffs)
    scale = 1.0 + sum(abs(c) for c in coeffs)
    rs = solve(make(*coeffs))
    scanned = checks.scan_roots(shape)
    assert len(rs.roots) >= 2 and len(scanned) == len(rs.roots)
    assert checks.check_root_set(shape, scale, rs.roots, rs.tangential, scanned) == []
    # a dropped root
    found = checks.check_root_set(shape, scale, rs.roots[1:], rs.tangential[1:], scanned)
    assert any("missing from the solver's roots" in p for p in found)
    # a shifted root fails both the residual and the scan match
    moved = (rs.roots[0] + 1e-4,) + rs.roots[1:]
    found = checks.check_root_set(shape, scale, moved, rs.tangential, scanned)
    assert any("scaled residual" in p for p in found)
    assert any("not found by the scan" in p for p in found)
    # a root outside the domain
    found = checks.check_root_set(shape, scale, rs.roots + (7.0,), rs.tangential + (False,))
    assert any("outside [0, 2pi)" in p for p in found)


def test_scan_finds_a_pair_inside_one_cell():
    # e1 + R sin(b) with e1 = -R(1 - delta): two roots 2*sqrt(2*delta) apart,
    # much closer than the scan's grid step of 2*pi / 65536.
    delta = 1e-10
    shape = checks.sinusoid_shape(-(1.0 - delta), 1.0, 0.0)
    roots = checks.scan_roots(shape)
    assert len(roots) == 2
    assert abs(roots[1] - roots[0]) < 1e-4
    assert all(abs(r - 0.5 * math.pi) < 1e-4 for r in roots)


def test_grazing_root_explains_close_scan_roots():
    coeffs = (-(1.0 - 1e-8), 1.0, 0.0)
    rs = windubins.solve_sinusoid(windubins.SinusoidCoeffs(*coeffs))
    assert rs.tangential == (True,)
    shape = checks.sinusoid_shape(*coeffs)
    scanned = checks.scan_roots(shape)
    assert len(scanned) == 2
    assert checks.check_root_set(shape, 3.0, rs.roots, rs.tangential, scanned) == []


@pytest.fixture
def batch_text():
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix="selftest-")
    try:
        line = os.path.join(workdir, "line.txt")
        out = os.path.join(workdir, "out.txt")
        with open(line, "w", encoding="utf-8") as fh:
            fh.write("0.3 -0.2 4.0 5.0 40.0 1.0\n")
        argv = ["batch", line, "--output", "both", "--sample-dt", "0.02", "--out", out]
        assert windubins.cli.run(argv) == 0
        with open(out, encoding="utf-8") as fh:
            yield fh.read()
    finally:
        shutil.rmtree(workdir)


BATCH_SCN = (0.3, -0.2, 4.0, 5.0, math.radians(40.0), 1.0)


def csv_problems(text):
    blocks = checks.parse_batch_output(text)
    assert len(blocks) == 1
    _, t_f, rows = blocks[0]
    return checks.check_csv_block(BATCH_SCN, 0.02, t_f, rows)


def test_csv_check_accepts_cli_output(batch_text):
    assert csv_problems(batch_text) == []


def test_csv_check_rejects_truncated_output(batch_text):
    lines = batch_text.rstrip("\n").split("\n")
    found = csv_problems("\n".join(lines[:-5]) + "\n")
    assert any("last row" in p for p in found)


def test_csv_check_rejects_moved_endpoint(batch_text):
    lines = batch_text.rstrip("\n").split("\n")
    cols = lines[-1].split(",")
    cols[5] = repr(float(cols[5]) + 1e-3)
    found = csv_problems("\n".join(lines[:-1] + [",".join(cols)]) + "\n")
    assert any("misses the goal" in p for p in found)


def test_csv_check_rejects_a_dropped_row(batch_text):
    lines = batch_text.rstrip("\n").split("\n")
    mid = len(lines) // 2
    found = csv_problems("\n".join(lines[:mid] + lines[mid + 1:]) + "\n")
    assert any("steps by" in p for p in found)
