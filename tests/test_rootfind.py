import math
import random

import numpy as np
import pytest

from windubins import (
    EnvelopeCoeffs,
    QuadCosCoeffs,
    SinusoidCoeffs,
    ToleranceSet,
    solve_envelope,
    solve_quadcos,
    solve_sinusoid,
)
from windubins.geometry import TWO_PI
from windubins.rootfind import _envelope_stationary

from grid_oracle import dense_grid_roots, envelope_fn, match_root_sets, quadcos_fn

TOL = ToleranceSet()


def test_quadcos_pure_cosine():
    roots = solve_quadcos(QuadCosCoeffs(0, 0, 1, 0), TOL).roots
    assert len(roots) == 2
    assert roots[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert roots[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_quadcos_pure_quadratic():
    roots = solve_quadcos(QuadCosCoeffs(1, 0, 0, -math.pi**2), TOL).roots
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.pi, abs=1e-12)


def test_quadcos_linear_degenerate():
    roots = solve_quadcos(QuadCosCoeffs(0, 2.0, 0, -1.0), TOL).roots
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-14)
    assert len(solve_quadcos(QuadCosCoeffs(0, 0, 0, 1.0), TOL)) == 0


def test_quadcos_rejects_nonfinite():
    with pytest.raises(ValueError):
        QuadCosCoeffs(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        EnvelopeCoeffs(0, math.inf, 0, 0, 0)


def test_quadcos_matches_grid_oracle():
    rng = random.Random(100)
    for _ in range(150):
        c = [rng.uniform(-10, 10) for _ in range(4)]
        rs = solve_quadcos(QuadCosCoeffs(*c), TOL)
        expected = dense_grid_roots(quadcos_fn(*c), n=200_000)
        assert match_root_sets(rs.simple_roots, expected, tol=1e-6), (c, rs.roots, expected)


def test_quadcos_residuals_and_brackets():
    rng = random.Random(101)
    for _ in range(80):
        c = [rng.uniform(-10, 10) for _ in range(4)]
        coeffs = QuadCosCoeffs(*c)
        rs = solve_quadcos(coeffs, TOL)
        for root, (lo, hi), res, tang in zip(rs.roots, rs.brackets, rs.residuals, rs.tangential):
            if tang:
                continue
            assert hi - lo <= 1e-10
            assert lo <= root <= hi
            assert res <= 1e-9 * coeffs.scale


def test_quadcos_deterministic():
    coeffs = QuadCosCoeffs(0.3, -2.1, 8.0, -1.7)
    a = solve_quadcos(coeffs, TOL)
    b = solve_quadcos(coeffs, TOL)
    assert a.roots == b.roots
    assert a.brackets == b.brackets
    assert a.residuals == b.residuals


def test_quadcos_monotone_partition_premise():
    # Between the closed-form inflection points, G'' keeps one sign, which is
    # the premise that makes the stationary-point subdivision complete.
    rng = random.Random(102)
    for _ in range(50):
        c1, c2, c3, c4 = (rng.uniform(-10, 10) for _ in range(4))
        pts = [0.0, TWO_PI]
        if c3 != 0 and abs(2 * c1 / c3) <= 1:
            b = math.acos(2 * c1 / c3)
            pts += [b, TWO_PI - b]
        pts = sorted(set(pts))
        for lo, hi in zip(pts[:-1], pts[1:]):
            signs = set()
            for k in range(1, 40):
                x = lo + (hi - lo) * k / 40
                v = 2 * c1 - c3 * math.cos(x)
                if abs(v) > 1e-9:
                    signs.add(v > 0)
            assert len(signs) <= 1


def test_quadcos_domain_restriction():
    rng = random.Random(103)
    for _ in range(40):
        c = [rng.uniform(-10, 10) for _ in range(4)]
        coeffs = QuadCosCoeffs(*c)
        full = solve_quadcos(coeffs, TOL).simple_roots
        lo, hi = sorted((rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        sub = solve_quadcos(coeffs, TOL, domain=(lo, hi)).simple_roots
        expected = [r for r in full if lo <= r < hi]
        assert match_root_sets(sub, expected, tol=1e-9)


def test_sinusoid_examples():
    rs = solve_sinusoid(SinusoidCoeffs(0, 1, 0), TOL)
    assert match_root_sets(rs.roots, [0.0, math.pi], tol=1e-12)
    assert len(solve_sinusoid(SinusoidCoeffs(2, 1, 0), TOL)) == 0
    graze = solve_sinusoid(SinusoidCoeffs(-1, 1, 0), TOL)
    assert len(graze) == 1
    assert graze.roots[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert graze.tangential == (True,)


def test_sinusoid_zero_amplitude():
    assert len(solve_sinusoid(SinusoidCoeffs(1.0, 0.0, 0.0), TOL)) == 0


def test_sinusoid_residuals():
    rng = random.Random(104)
    for _ in range(200):
        e = [rng.uniform(-10, 10) for _ in range(3)]
        rs = solve_sinusoid(SinusoidCoeffs(*e), TOL)
        for root, res, tang in zip(rs.roots, rs.residuals, rs.tangential):
            assert 0.0 <= root < TWO_PI
            if not tang:
                assert res <= 1e-9 * (1 + sum(abs(v) for v in e))


def test_envelope_reduces_to_sinusoid():
    rng = random.Random(105)
    for _ in range(100):
        e = [rng.uniform(-10, 10) for _ in range(3)]
        env = solve_envelope(EnvelopeCoeffs(e[0], e[1], e[2], 0.0, 0.0), TOL)
        sin_rs = solve_sinusoid(SinusoidCoeffs(*e), TOL)
        assert match_root_sets(env.simple_roots, sin_rs.simple_roots, tol=1e-9)


def test_envelope_factored_zeros():
    # b*cos(b) = 0 has roots at 0 (exact grid point), pi/2 and 3*pi/2.
    rs = solve_envelope(EnvelopeCoeffs(0, 0, 0, 0, 1), TOL)
    assert match_root_sets(rs.roots, [0.0, math.pi / 2, 3 * math.pi / 2], tol=1e-10)


def test_envelope_matches_grid_oracle():
    rng = random.Random(106)
    for _ in range(150):
        f = [rng.uniform(-10, 10) for _ in range(5)]
        rs = solve_envelope(EnvelopeCoeffs(*f), TOL)
        expected = dense_grid_roots(envelope_fn(*f), n=200_000)
        assert match_root_sets(rs.simple_roots, expected, tol=1e-6), (f, rs.roots, expected)


def test_envelope_residuals_and_brackets():
    rng = random.Random(107)
    for _ in range(60):
        f = [rng.uniform(-10, 10) for _ in range(5)]
        coeffs = EnvelopeCoeffs(*f)
        rs = solve_envelope(coeffs, TOL)
        for root, (lo, hi), res, tang in zip(rs.roots, rs.brackets, rs.residuals, rs.tangential):
            if tang:
                continue
            assert hi - lo <= 1e-10
            assert res <= 1e-9 * coeffs.scale


def test_envelope_tangential_double_root():
    # 1 + cos(b) grazes zero at pi without a sign change.
    rs = solve_envelope(EnvelopeCoeffs(1.0, 0.0, 1.0, 0.0, 0.0), TOL)
    assert len(rs) == 1
    assert rs.roots[0] == pytest.approx(math.pi, abs=1e-4)
    assert rs.tangential == (True,)


def test_envelope_deterministic():
    coeffs = EnvelopeCoeffs(0.7, -3.0, 2.0, 1.1, -0.4)
    assert solve_envelope(coeffs, TOL).roots == solve_envelope(coeffs, TOL).roots


def test_envelope_phase_jump_at_origin_crossing():
    # G' = (2 - b)*sin(b): (P, Q) = (2 - b, 0) passes through the origin at
    # b = 2, where the phase jumps by pi and G' vanishes without h = k*pi.
    f = (1.0, -1.0, -2.0, 0.0, 1.0)
    rs = solve_envelope(EnvelopeCoeffs(*f), TOL)
    assert match_root_sets(rs.roots, [math.pi / 2, 2.5031916288, 3.5889535156], tol=1e-9)
    assert match_root_sets(rs.simple_roots, dense_grid_roots(envelope_fn(*f)), tol=1e-6)


def test_envelope_double_root_at_domain_edge():
    # Same G' with G(0) = 0: G ~ b^2 at the edge, a single root there.
    rs = solve_envelope(EnvelopeCoeffs(2.0, -1.0, -2.0, 0.0, 1.0), TOL)
    assert rs.roots == (0.0,)


def test_envelope_stationary_points_bounded_and_complete():
    # Criterion 6's envelope draws: every root of G' is found, never more
    # than the four the phase argument allows.
    rng = random.Random(66001)
    for _ in range(4000):  # the quadcos draws come first
        rng.uniform(-10.0, 10.0)
    for _ in range(1000):
        f1, f2, f3, f4, f5 = (rng.uniform(-10.0, 10.0) for _ in range(5))
        found = _envelope_stationary(EnvelopeCoeffs(f1, f2, f3, f4, f5), 0.0, TWO_PI)
        assert len(found) <= 4

        def gp(b):
            return (f2 + f5) * np.cos(b) + (f4 - f3) * np.sin(b) + b * (f4 * np.cos(b) - f5 * np.sin(b))

        expected = dense_grid_roots(gp, n=200_000)
        assert match_root_sets(found, expected, tol=1e-6), (f1, f2, f3, f4, f5, found, expected)
