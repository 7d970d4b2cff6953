import itertools
import math
import pathlib
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import windubins.families
from windubins import (
    EnvelopeCoeffs,
    QuadCosCoeffs,
    RootSet,
    SinusoidCoeffs,
    rootfind,
    solve_envelope,
    solve_quadcos,
    solve_sinusoid,
)
from windubins.geometry import TWO_PI
from windubins.planner import plan
from windubins.rootfind import (
    _GRAZE_WINDOW,
    _ROUNDING,
    _SLACK,
    _convex_roots,
    _envelope_rootless,
    _envelope_stationary,
    _monotone_roots,
    _quadcos_rootless,
    _rescaled,
    _root_set,
)

from conftest import make_case1, make_case2
from grid_oracle import (
    _cos,
    _sin,
    dense_grid_roots,
    envelope_fn,
    match_root_sets,
    quadcos_fn,
    simple_roots,
)
from parity_dump import random_scenarios


def test_quadcos_pure_cosine():
    roots = solve_quadcos(QuadCosCoeffs(0, 0, 1, 0)).roots
    assert len(roots) == 2
    assert roots[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert roots[1] == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_quadcos_pure_quadratic():
    roots = solve_quadcos(QuadCosCoeffs(1, 0, 0, -math.pi**2)).roots
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.pi, abs=1e-12)


def test_quadcos_linear_degenerate():
    roots = solve_quadcos(QuadCosCoeffs(0, 2.0, 0, -1.0)).roots
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-14)
    assert len(solve_quadcos(QuadCosCoeffs(0, 0, 0, 1.0))) == 0


def test_quadcos_rejects_nonfinite():
    with pytest.raises(ValueError):
        QuadCosCoeffs(math.nan, 0, 0, 0)
    with pytest.raises(ValueError):
        EnvelopeCoeffs(0, math.inf, 0, 0, 0)


def test_coefficient_records_check_every_constructor():
    q = QuadCosCoeffs(1.0, 2.0, 3.0, 4.0)
    assert q._replace(c2=5.0) == (1.0, 5.0, 3.0, 4.0) and q.scale == 11.0
    with pytest.raises(ValueError):
        q._replace(c1=math.nan)
    with pytest.raises(ValueError):
        SinusoidCoeffs._make([0.0, math.inf, 0.0])
    # RootSet checks nothing, but its len() counts roots, not its two fields
    rs = RootSet._make(((1.0, 2.0, 3.0), (False, True, False)))
    assert len(rs) == 3 and len(rs._replace(roots=(), tangential=())) == 0
    assert rs._replace(tangential=(False,) * 3).tangential == (False, False, False)
    with pytest.raises(AttributeError):
        rs.roots = ()


def test_quadcos_matches_grid_oracle():
    rng = random.Random(100)
    for _ in range(150):
        c = [rng.uniform(-10, 10) for _ in range(4)]
        rs = solve_quadcos(QuadCosCoeffs(*c))
        expected = dense_grid_roots(quadcos_fn(*c), n=200_000)
        assert match_root_sets(simple_roots(rs), expected, tol=1e-6), (c, rs.roots, expected)


def _assert_sign_change_near(g, root):
    # A sign change (or an exact zero) within 1e-10 around a simple root.
    left, right = g(root - 5e-11), g(root + 5e-11)
    assert left * right <= 0.0 or g(root) == 0.0, (root, left, right)


def test_quadcos_residuals_and_brackets():
    rng = random.Random(101)
    for _ in range(80):
        c = [rng.uniform(-10, 10) for _ in range(4)]
        coeffs = QuadCosCoeffs(*c)
        rs = solve_quadcos(coeffs)
        g = quadcos_fn(*c)
        for root, tang in zip(rs.roots, rs.tangential):
            if tang:
                continue
            _assert_sign_change_near(g, root)
            assert abs(g(root)) <= 1e-9 * coeffs.scale


def test_quadcos_deterministic():
    coeffs = QuadCosCoeffs(0.3, -2.1, 8.0, -1.7)
    a = solve_quadcos(coeffs)
    b = solve_quadcos(coeffs)
    assert a.roots == b.roots
    assert a.tangential == b.tangential


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
        full = simple_roots(solve_quadcos(coeffs))
        lo, hi = sorted((rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)))
        sub = simple_roots(solve_quadcos(coeffs, domain=(lo, hi)))
        expected = [r for r in full if lo <= r < hi]
        assert match_root_sets(sub, expected, tol=1e-9)


def test_sinusoid_examples():
    rs = solve_sinusoid(SinusoidCoeffs(0, 1, 0))
    assert match_root_sets(rs.roots, [0.0, math.pi], tol=1e-12)
    assert len(solve_sinusoid(SinusoidCoeffs(2, 1, 0))) == 0
    graze = solve_sinusoid(SinusoidCoeffs(-1, 1, 0))
    assert len(graze) == 1
    assert graze.roots[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert graze.tangential == (True,)


def test_sinusoid_zero_amplitude():
    assert len(solve_sinusoid(SinusoidCoeffs(1.0, 0.0, 0.0))) == 0


def test_sinusoid_residuals():
    rng = random.Random(104)
    for _ in range(200):
        e = [rng.uniform(-10, 10) for _ in range(3)]
        rs = solve_sinusoid(SinusoidCoeffs(*e))
        for root, tang in zip(rs.roots, rs.tangential):
            assert 0.0 <= root < TWO_PI
            if not tang:
                res = abs(e[0] + e[1] * math.sin(root) + e[2] * math.cos(root))
                assert res <= 1e-9 * (1 + sum(abs(v) for v in e))


def test_envelope_reduces_to_sinusoid():
    rng = random.Random(105)
    for _ in range(100):
        e = [rng.uniform(-10, 10) for _ in range(3)]
        env = solve_envelope(EnvelopeCoeffs(e[0], e[1], e[2], 0.0, 0.0))
        sin_rs = solve_sinusoid(SinusoidCoeffs(*e))
        assert match_root_sets(simple_roots(env), simple_roots(sin_rs), tol=1e-9)


def test_envelope_factored_zeros():
    # b*cos(b) = 0 has roots at 0 (exact grid point), pi/2 and 3*pi/2.
    rs = solve_envelope(EnvelopeCoeffs(0, 0, 0, 0, 1))
    assert match_root_sets(rs.roots, [0.0, math.pi / 2, 3 * math.pi / 2], tol=1e-10)


def test_envelope_matches_grid_oracle():
    rng = random.Random(106)
    for _ in range(150):
        f = [rng.uniform(-10, 10) for _ in range(5)]
        rs = solve_envelope(EnvelopeCoeffs(*f))
        expected = dense_grid_roots(envelope_fn(*f), n=200_000)
        assert match_root_sets(simple_roots(rs), expected, tol=1e-6), (f, rs.roots, expected)


def test_envelope_residuals_and_brackets():
    rng = random.Random(107)
    for _ in range(60):
        f = [rng.uniform(-10, 10) for _ in range(5)]
        coeffs = EnvelopeCoeffs(*f)
        rs = solve_envelope(coeffs)
        g = envelope_fn(*f)
        for root, tang in zip(rs.roots, rs.tangential):
            if tang:
                continue
            _assert_sign_change_near(g, root)
            assert abs(g(root)) <= 1e-9 * coeffs.scale


def test_envelope_tangential_double_root():
    # 1 + cos(b) grazes zero at pi without a sign change.
    rs = solve_envelope(EnvelopeCoeffs(1.0, 0.0, 1.0, 0.0, 0.0))
    assert len(rs) == 1
    assert rs.roots[0] == pytest.approx(math.pi, abs=1e-4)
    assert rs.tangential == (True,)


def test_envelope_deterministic():
    coeffs = EnvelopeCoeffs(0.7, -3.0, 2.0, 1.1, -0.4)
    assert solve_envelope(coeffs).roots == solve_envelope(coeffs).roots


def test_envelope_phase_jump_at_origin_crossing():
    # G' = (2 - b)*sin(b): (P, Q) = (2 - b, 0) passes through the origin at
    # b = 2, where the phase jumps by pi and G' vanishes without h = k*pi.
    f = (1.0, -1.0, -2.0, 0.0, 1.0)
    rs = solve_envelope(EnvelopeCoeffs(*f))
    assert match_root_sets(rs.roots, [math.pi / 2, 2.5031916288, 3.5889535156], tol=1e-9)
    assert match_root_sets(simple_roots(rs), dense_grid_roots(envelope_fn(*f)), tol=1e-6)


def test_envelope_double_root_at_domain_edge():
    # Same G' with G(0) = 0: G ~ b^2 at the edge, a single root there.
    rs = solve_envelope(EnvelopeCoeffs(2.0, -1.0, -2.0, 0.0, 1.0))
    assert rs.roots == (0.0,)


@pytest.mark.parametrize(
    "power, zero, tangential",
    [
        (3, 1.0, False),  # G changes sign through the zero: a simple root
        (2, 1.0, True),  # G keeps its sign on both sides: a grazing root
        (2, 5e-7, False),  # within _KNOT_EDGE of lo, a zero counts as a crossing
        (2, 1e-5, True),  # G(lo) = 1e-10 is far above rounding: still grazing
    ],
    ids=["interior-crossing", "interior-grazing", "near-edge", "off-edge"],
)
def test_exact_zero_at_a_knot(power, zero, tangential):
    # G = (b - zero)^power on [0, 2], with its stationary point at the zero,
    # where G is exactly 0; the neighbouring knots 0 and 2 carry its signs.
    def fused(b):
        return (b - zero) ** power, power * (b - zero) ** (power - 1)

    rs = _root_set(_monotone_roots(fused, 0.0, 2.0, [zero], 1e-9))
    assert rs.roots == (zero,)
    assert rs.tangential == (tangential,)


def test_shallow_crossing_pair_is_two_roots():
    # G = (b - pi)^2 - 1e-7 dips below zero by less than graze at its
    # stationary point pi, 3.2e-4 from each sign change, farther than the
    # merge window: the two crossings are the contact, and pi is no third,
    # tangential root.
    half = math.sqrt(1e-7)
    rs = solve_quadcos(QuadCosCoeffs(1.0, -TWO_PI, 0.0, math.pi**2 - 1e-7))
    assert rs.tangential == (False, False)
    assert rs.roots == pytest.approx((math.pi - half, math.pi + half), abs=1e-9)
    # Raised by as much instead, G does not cross, and pi is a tangential root.
    rs = solve_quadcos(QuadCosCoeffs(1.0, -TWO_PI, 0.0, math.pi**2 + 1e-7))
    assert rs.tangential == (True,)
    assert rs.roots == pytest.approx((math.pi,), abs=1e-12)


def test_sign_change_between_tiny_values():
    # G(0) = 3.4e-227 > 0 > G(2*pi) = -6.2e-206: the product of the two
    # underflows to -0.0, yet the sign change holds the root c4/|c2|.
    rs = solve_quadcos(QuadCosCoeffs(0.0, -9.804359110364705e-207, 0.0, 3.393086642190511e-227))
    assert rs.tangential == (False,)
    assert rs.roots[0] == pytest.approx(3.393086642190511e-227 / 9.804359110364705e-207, abs=1e-14)


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
            return (f2 + f5) * _cos(b) + (f4 - f3) * _sin(b) + b * (f4 * _cos(b) - f5 * _sin(b))

        expected = dense_grid_roots(gp, n=200_000)
        assert match_root_sets(found, expected, tol=1e-6), (f1, f2, f3, f4, f5, found, expected)


def test_envelope_stationary_points_across_a_steep_phase_rise():
    # roots-direct seed 901, draw 1296: h rises by pi within a few hundredths
    # of b0 = 1.44, where K/a = 0.04.  Newton on h - pi hopped across that
    # rise between 1.2857 and 2.4543, inside the bracket, for all 120 steps
    # and returned 2.4543, where |G'| = 5.4, instead of 1.5464.
    coeffs = EnvelopeCoeffs(
        -6.670933445917003, 9.651077318513245, -2.2154148577623882,
        -5.337242843234784, -2.0287332380719363,
    )
    _, f2, f3, f4, f5 = coeffs
    found = _envelope_stationary(coeffs, 0.0, TWO_PI)
    assert len(found) == 3
    for b in found:
        gp = (f4 - f3 - f5 * b) * math.sin(b) + (f2 + f5 + f4 * b) * math.cos(b)
        assert abs(gp) <= 1e-9 * coeffs.scale, (b, gp)


# ---------------------------------------------------------------------------
# The cost of a solve: bracketed solves per call, evaluations per solve


def _roots_direct_draws(seed):
    """The quadcos and envelope coefficients of the 3000 draws that
    ``bench/workloads.py``'s ``roots-direct`` makes from ``seed``."""
    rng = random.Random(seed)
    for _ in range(3000):
        q, _, e = (tuple(rng.uniform(-10.0, 10.0) for _ in range(k)) for k in (4, 3, 5))
        yield QuadCosCoeffs(*q), EnvelopeCoeffs(*e)


def _bracketed_solves(solve, coeffs):
    """The bracketed solves of one solver call, as (pass, evaluations) in
    call order: pass is the index of the ``_monotone_roots`` call that made
    the solve, or None for one made outside it (the envelope's solves of h)."""
    solves, passes, current = [], 0, None
    refine, monotone_roots = rootfind._refine, rootfind._monotone_roots

    def counted_refine(fused, *args):
        evaluations = 0

        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return fused(x)

        root = refine(counted, *args)
        solves.append((current, evaluations))
        return root

    def counted_monotone_roots(*args):
        nonlocal passes, current
        current, passes = passes, passes + 1
        try:
            return monotone_roots(*args)
        finally:
            current = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "_refine", counted_refine)
        mp.setattr(rootfind, "_monotone_roots", counted_monotone_roots)
        solve(coeffs)
    return solves


#: the bounds of solve_envelope's and solve_quadcos's docstrings on the
#: bracketed solves of one call, by ``_bracketed_solves`` pass
_MAX_ENVELOPE = {None: 4, 0: 5}  # solves of h, and of G
_MAX_QUADCOS = {None: 3, 0: 3, 1: 4}  # solves of H' and H (convex factor), of G', and of G


def _assert_constant_time(solve, coeffs, bounds, max_evaluations):
    solves = _bracketed_solves(solve, coeffs)
    for where, bound in bounds.items():
        assert sum(1 for w, _ in solves if w == where) <= bound, (coeffs, solves)
    assert all(n <= max_evaluations for _, n in solves), (coeffs, solves)


def test_bracketed_solves_are_bounded_on_roots_direct():
    """The constant-time claim as counts, on roots-direct's draws of seeds
    901 and 601: each solve_envelope call makes at most 9 bracketed solves
    (4 of h and 5 of G), each solve_quadcos call at most 3 on the convex
    factor (of H' and H) and 7 on the generic path (3 of G' and 4 of G),
    and no bracketed solve takes more than 30 evaluations.

    The worst found: 7 solves in an envelope call (3 of h, 4 of G), 7 in a
    quadcos call (3 of G', 4 of G; seed 901, draw 1964), and 20 evaluations,
    in a solve of h (seed 901, draws 1296 and 1479; seed 601, draw 2011).
    Draw 1296 took 120 while a Newton step could span most of the bracket."""
    for seed in (901, 601):
        for q, e in _roots_direct_draws(seed):
            _assert_constant_time(solve_envelope, e, _MAX_ENVELOPE, 30)
            _assert_constant_time(solve_quadcos, q, _MAX_QUADCOS, 30)


# ---------------------------------------------------------------------------
# No-root certificates


def _graze(coeffs):
    return _SLACK * coeffs.scale


def _slack(coeffs):
    return _graze(coeffs) + _ROUNDING * coeffs.scale


def test_certificates_keep_grazing_roots():
    # cos(b) + 1 and its envelope twin touch zero at pi without crossing it.
    for rs in (
        solve_quadcos(QuadCosCoeffs(0, 0, 1, 1)),
        solve_envelope(EnvelopeCoeffs(1, 0, 1, 0, 0)),
    ):
        assert len(rs) == 1 and rs.tangential == (True,)
        assert rs.roots[0] == pytest.approx(math.pi, abs=1e-4)


@pytest.mark.parametrize("shift,grazes", [(0.5, True), (2.0, False)])
def test_certificates_at_the_graze_band(shift, grazes):
    # Each G has its minimum delta = shift*1e-6*scale at b = pi (3*pi/2 for
    # the sinusoid): at half the band _SLACK = 1e-6 it is a grazing root the
    # certificate must leave alone, at twice it no root, and the certificate
    # fires.  A band of 1e-7 fails the first case, one of 1e-5 the second.
    base = QuadCosCoeffs(0.5, -math.pi, 1.0, 0.5 * math.pi**2 + 1.0)
    quad = QuadCosCoeffs(base.c1, base.c2, base.c3, base.c4 + shift * 1e-6 * base.scale)
    env = EnvelopeCoeffs(1.0 + shift * 1e-6 * 3.0, 0.0, 1.0, 0.0, 0.0)
    sinusoid = SinusoidCoeffs(1.0 + shift * 1e-6 * 3.0, 1.0, 0.0)
    assert _quadcos_rootless(quad, 0.0, TWO_PI, _slack(quad)) is not grazes
    assert _envelope_rootless(env, 0.0, TWO_PI, _slack(env)) is not grazes
    for rs, at in ((solve_quadcos(quad), math.pi), (solve_envelope(env), math.pi),
                   (solve_sinusoid(sinusoid), 1.5 * math.pi)):
        if grazes:
            assert rs.tangential == (True,)
            assert rs.roots[0] == pytest.approx(at, abs=1e-4)
        else:
            assert len(rs) == 0


def test_certificate_margin_covers_the_rounding_of_g():
    # G = c1*(b - pi)^2 + c3*(1 + cos(b)) + graze, to rounding: at the edge
    # of the graze band, the rounding of G decides whether the full isolation
    # finds a grazing root at pi, and here it does.  Without the
    # ``_ROUNDING`` margin the certificate fires and that root is lost.
    coeffs = QuadCosCoeffs(26.30243786076796, -165.2630911097813, 0.1581381016523479, 259.7532470485813)
    assert _quadcos_rootless(coeffs, 0.0, TWO_PI, _graze(coeffs))
    assert not _quadcos_rootless(coeffs, 0.0, TWO_PI, _slack(coeffs))
    rs = solve_quadcos(coeffs)
    assert rs.roots == pytest.approx((math.pi,), abs=1e-12) and rs.tangential == (True,)


_COEF = st.floats(-10.0, 10.0)
_ANGLE = st.floats(0.0, TWO_PI)
#: where the certificate's bound sits against |G|, in units of graze
_MARGIN = st.floats(-2.0, 4.0)
#: where |f1| sits between the envelope's end amplitudes; 1 is the larger
_SHARE = st.just(1.0) | st.floats(0.0, 1.0)


def _domain(a, b):
    lo, hi = min(a, b), max(a, b)
    return (lo, hi) if hi > lo else (0.0, TWO_PI)


def _assert_no_root_on(g, coeffs, lo, hi):
    xs = np.linspace(lo, hi, 200_000)
    assert np.min(np.abs(g(xs))) > _graze(coeffs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_COEF, _COEF, _COEF, _MARGIN, st.booleans(), _ANGLE, _ANGLE)
def test_quadcos_certificate_is_sound(c1, c2, c3, margin, below, a, b):
    # c4 puts the extremum of q = c1*b^2 + c2*b + c4 near |c3| + margin*graze.
    lo, hi = _domain(a, b)
    xs = [lo, hi] + ([-c2 / (2.0 * c1)] if c1 != 0.0 else [])
    qs = [c1 * x * x + c2 * x for x in xs if lo <= x <= hi]
    c4 = 0.0
    for _ in range(2):  # graze grows with |c4|
        reach = abs(c3) + margin * _graze(QuadCosCoeffs(c1, c2, c3, c4))
        c4 = -max(qs) - reach if below else reach - min(qs)
    coeffs = QuadCosCoeffs(c1, c2, c3, c4)
    if _quadcos_rootless(coeffs, lo, hi, _slack(coeffs)):
        _assert_no_root_on(quadcos_fn(*coeffs), coeffs, lo, hi)
        assert len(solve_quadcos(coeffs, domain=(lo, hi))) == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_COEF, _COEF, _COEF, _COEF, _SHARE, _MARGIN, st.booleans(), _ANGLE, _ANGLE)
def test_envelope_certificate_is_sound(f2, f3, f4, f5, share, margin, negative, a, b):
    # |f1| lies between the oscillation's amplitudes at the two ends of the
    # domain (at the larger one for share = 1), plus margin*graze.
    lo, hi = _domain(a, b)
    ends = sorted((math.hypot(f2 + lo * f4, f3 + lo * f5), math.hypot(f2 + hi * f4, f3 + hi * f5)))
    reach = ends[0] + share * (ends[1] - ends[0])
    f1 = reach + margin * _graze(EnvelopeCoeffs(reach, f2, f3, f4, f5))
    coeffs = EnvelopeCoeffs(-f1 if negative else f1, f2, f3, f4, f5)
    if _envelope_rootless(coeffs, lo, hi, _slack(coeffs)):
        _assert_no_root_on(envelope_fn(*coeffs), coeffs, lo, hi)
        assert len(solve_envelope(coeffs, domain=(lo, hi))) == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(*[_COEF] * 5), st.tuples(*[_COEF] * 4))
@example((1.0, 0.0, 1.0, 0.0, 7.131796825176075e-106), (0.0, 0.0, 0.0, 0.0))
def test_bracketed_solves_are_bounded_on_the_roots_direct_range(envelope, quadcos):
    """The solve counts of test_bracketed_solves_are_bounded_on_roots_direct
    over a search of roots-direct's range [-10, 10] that also tries its
    edges, zero and tiny magnitudes.

    Evaluations are bounded here only by ``_refine``'s cap of 120 steps.  A
    root can sit within rounding of a bracket end or of a double root: at
    b = 0 of EnvelopeCoeffs(0, 1, 0, -1, -0.9999999999999996), G ~ -b^2 and
    Newton halves its distance per step, as bisection does, for 47
    evaluations.  And G can be flat at rounding level: around b = pi in the
    example, 1 + cos(b) rounds to 0 over 1.5e-8, G is -b*f5*cos(b) ~ -2e-105
    there, and each Newton step is below the closing width, so ``_refine``
    creeps by half that width per step and stops at its cap of 120."""
    _assert_constant_time(solve_envelope, EnvelopeCoeffs(*envelope), _MAX_ENVELOPE, 120)
    _assert_constant_time(solve_quadcos, QuadCosCoeffs(*quadcos), _MAX_QUADCOS, 120)


@pytest.mark.parametrize(
    "coeffs",
    [
        QuadCosCoeffs(0.0, -1e18, 0.0, 1.0),
        QuadCosCoeffs(1.0151655139256908e-239, 4.570167456253651, 1.0151655139256908e-239, -8.762064978510256e-186),
    ],
)
def test_newton_onto_a_bracket_end_probes_inside_it(coeffs):
    # The root lies within rounding of b = 0, and the Newton step from the
    # midpoint lands on the bracket end 0.0, not strictly inside.  Probing
    # half the closing width inside that end closes the bracket at once;
    # bisecting down to the end took 50 evaluations.
    solves = _bracketed_solves(solve_quadcos, coeffs)
    assert solves and all(n <= 4 for _, n in solves), solves


#: a coefficient: zero, or a magnitude from 5e-324 (the smallest subnormal)
#: to 1.7e308 of either sign
_WIDE = st.just(0.0) | st.builds(
    lambda sign, exp, mantissa: sign * min(max(mantissa * 10.0**exp, 5e-324), 1.7e308),
    st.sampled_from((-1.0, 1.0)), st.integers(-324, 308), st.floats(1.0, 9.99),
)


def _below_overflow(coeffs):
    """``coeffs`` divided by the power of two of its largest |coefficient|
    when its scale exceeds 2**128, so that G and the scale stay finite; the
    division is exact and keeps every root."""
    if coeffs.scale <= 2.0**128:
        return coeffs
    shift = -math.frexp(max(abs(v) for v in coeffs))[1]
    return type(coeffs)(*(math.ldexp(v, shift) for v in coeffs))


#: shape -> (coefficient record, solver, G of the record's coefficients)
_SHAPES = {
    "quadcos": (QuadCosCoeffs, solve_quadcos, quadcos_fn),
    "sinusoid": (SinusoidCoeffs, solve_sinusoid, lambda e1, e2, e3: envelope_fn(e1, e2, e3, 0.0, 0.0)),
    "envelope": (EnvelopeCoeffs, solve_envelope, envelope_fn),
}


@pytest.mark.parametrize("shape", _SHAPES)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_WIDE, _WIDE, _WIDE, _WIDE, _WIDE)
@example(
    -5.002354480244801e-201, -8.750104556202391, -8.316254727402217e-09,
    4.990723718841901e-301, 7.494425606056481e-201,
)  # the squares of f4 and f5 underflow
@example(
    -8.737574072724153e98, -6.451579576141376e-101, -2.616920494460919e199,
    5.7460383142769845e-161, -9.461575899813399e299,
)  # f4^2 + f5^2 overflows
@example(0.5, -1.0, 1.0, 1.0, 1e-170)  # K = -1e-170 and (P, Q) passes through 0 at b = 1
@example(1e308, 1e308, 1e308, 1e308, 1e308)  # the scale and G overflow
@example(0.79, 5.9e-319, 0.0, 0.0, 0.0)  # sinusoid: subnormal amplitude, G = 0.79, no root
@example(1e308, 3e-10, 0.0, 0.0, 0.0)  # sinusoid: subnormal amplitude after the rescale
@example(1e-189, 0.0, 1e-217, 0.0, 0.0)  # quadcos: 4*c1*(c4 + c3) underflows to 0
def test_any_finite_magnitudes(shape, f1, f2, f3, f4, f5):
    # Each shape takes the first of the five drawn coefficients it needs.
    record, solve, fn = _SHAPES[shape]
    coeffs = record(*(f1, f2, f3, f4, f5)[: len(record._fields)])
    rs = solve(coeffs)
    assert isinstance(rs, RootSet)
    assert list(rs.roots) == sorted(rs.roots) and len(rs.tangential) == len(rs.roots)
    assert all(0.0 <= r < TWO_PI for r in rs.roots)
    # G of the raw coefficients can overflow to nan; the divided copy cannot.
    finite = _below_overflow(coeffs)
    g = fn(*finite)
    assert all(abs(g(r)) <= 2.0 * _graze(finite) for r in rs.roots)


#: one record of each shape whose roots are simple and well apart
_UNIT_RECORDS = (
    EnvelopeCoeffs(1.0, 1.0, 1.0, 1.0, 1.0),
    SinusoidCoeffs(0.0, 1.0, 1.0),
    QuadCosCoeffs(1.0, -1.0, 1.0, -1.0),
    QuadCosCoeffs(0.125, -0.5625, 1.0, -0.3125),  # CCC-shaped (G/8): solved by its convex factor
)
_SOLVER = {EnvelopeCoeffs: solve_envelope, SinusoidCoeffs: solve_sinusoid, QuadCosCoeffs: solve_quadcos}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_UNIT_RECORDS), st.floats(1.0, 1.7e308))
@example(_UNIT_RECORDS[0], 1e308)  # four roots, two of them tangential, where G overflows
@example(_UNIT_RECORDS[1], 1e308)  # one tangential root, 3.927, for two simple ones
@example(_UNIT_RECORDS[2], 1e308)  # only the root 0, not 1.655
@example(_UNIT_RECORDS[3], 1e308)  # the two simple roots 0.813 and 4.828
def test_magnified_record_keeps_its_roots(unit, factor):
    # A record times a factor up to near the largest float has its roots.
    solve = _SOLVER[type(unit)]
    got = solve(type(unit)(*(v * factor for v in unit)))
    want = solve(unit)
    assert got.tangential == want.tangential
    assert got.roots == pytest.approx(want.roots, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# The convex factor of a CCC-shaped record: G = H*S


def _both_paths(coeffs, lo, hi):
    """(the convex factor's root set, or None where it hands the record to
    the generic path; the generic path's root set) on [lo, hi), after
    ``solve_quadcos``'s own rescale; None where its certificate settles the
    record first."""
    scaled, scale = _rescaled(coeffs)
    slack = _SLACK * scale + _ROUNDING * scale
    if _quadcos_rootless(scaled, lo, hi, slack):
        return None
    convex = _convex_roots(scaled, lo, hi, slack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "_convex_roots", lambda *args: None)
        generic = solve_quadcos(coeffs, domain=(lo, hi))
    return None if convex is None else _root_set(convex), generic


def _convex_draws(seed, count):
    """Records of the convex region, with their domains: Q = c1*(b - b0)^2 +
    D, so sqrt(Q) is the norm of an affine map that passes closest to zero
    at b0.  D = 0 is M parallel to w in a CCC equation, 4*c1*(c4 + c3) =
    c2^2, where sqrt(Q) has its kink; b0 falls inside and outside [0, 2*pi]
    and on its ends, and the windows touch 0 and 2*pi."""
    rng = random.Random(seed)
    for _ in range(count):
        c1 = rng.choice((0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e-3)))
        b0 = rng.choice((rng.uniform(-1.0, 8.0), 0.0, TWO_PI))
        dd = rng.choice((0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 30.0)))
        c3 = rng.uniform(0.0, 10.0)
        lo, hi = sorted((rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)))
        lo, hi = rng.choice(((lo, hi), (0.0, hi), (lo, TWO_PI), (0.0, TWO_PI)))
        c2 = -2.0 * c1 * b0
        yield QuadCosCoeffs(c1, c2, c3, dd + c1 * b0 * b0 - c3), lo, hi


def _ccc_records():
    """(coeffs, lo, hi) of every ``solve_quadcos`` call that ``plan`` makes
    for reference cases 1 and 2 and the first 300 ``random`` parity
    scenarios: all of them CCC branch equations."""
    seen = []

    def recorded(coeffs, domain, _solve=windubins.families.solve_quadcos):
        seen.append((coeffs, *domain))
        return _solve(coeffs, domain=domain)

    randoms = (sc for _, sc in itertools.islice(random_scenarios(), 300))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windubins.families, "solve_quadcos", recorded)
        for sc in (make_case1(), make_case2(), *randoms):
            plan(sc)
    return seen


def _placed(rs, coeffs, lo, hi):
    """The (root, tangential) pairs of ``rs`` that rounding does not place:
    all but those within ``_GRAZE_WINDOW`` of a window end where G and G'
    both vanish to rounding.  A double root there, as b0 = 2*pi with D = 0
    gives, is a sign change inside the window or none as G's rounding
    falls, on either path."""
    c1, c2, c3, c4 = coeffs
    rounding = _ROUNDING * coeffs.scale
    ends = [
        e for e in (lo, hi)
        if abs((c1 * e + c2) * e + c3 * math.cos(e) + c4) <= rounding
        and abs(2.0 * c1 * e + c2 - c3 * math.sin(e)) <= rounding
    ]
    return [(r, t) for r, t in zip(rs.roots, rs.tangential) if all(abs(r - e) > _GRAZE_WINDOW for e in ends)]


def test_convex_factor_matches_the_generic_path_and_the_grid():
    # Every record, convex draw or CCC equation, has the grid oracle's
    # sign-change roots, up to the grid's last point.  Where the convex
    # factor decides, it gives the generic path's root count and tangential
    # flags, and each root within 1e-12 of the generic one or, at a double
    # root whose place rounding decides, with |G| within rounding at both;
    # ``_placed`` leaves out a double root at a window end.
    records = [*_convex_draws(26, 400), *_ccc_records()]
    n = 200_000
    decided = 0
    for coeffs, lo, hi in records:
        paths = _both_paths(coeffs, lo, hi)
        if paths is None:  # the certificate's soundness is tested on its own
            continue
        rs = solve_quadcos(coeffs, domain=(lo, hi))
        seen = [r for r in simple_roots(rs) if r <= TWO_PI - TWO_PI / n]
        grid = [r for r in dense_grid_roots(quadcos_fn(*coeffs), n=n) if lo <= r < hi]
        assert match_root_sets(seen, grid, tol=1e-6), (coeffs, lo, hi, rs, grid)
        if paths[0] is None:
            continue
        decided += 1
        convex, generic = (_placed(p, coeffs, lo, hi) for p in paths)
        assert [t for _, t in convex] == [t for _, t in generic], (coeffs, lo, hi, paths)
        g, rounding = quadcos_fn(*coeffs), _ROUNDING * coeffs.scale
        for (a, _), (b, _) in zip(convex, generic):
            assert abs(a - b) <= 1e-12 or max(abs(g(a)), abs(g(b))) <= rounding, (coeffs, lo, hi, a, b)
    assert decided >= len(records) // 3


def test_ccc_equations_factor_through_h():
    # Each CCC equation has c3 = 8 > 0 and Q = c1*b^2 + c2*b + c4 + c3 =
    # |v(b)|^2 >= 0, so G = (sqrt(Q) - k*sin(b/2))*(sqrt(Q) + k*sin(b/2)),
    # k = sqrt(2*c3), to rounding across its window.
    for coeffs, lo, hi in _ccc_records():
        c1, c2, c3, c4 = coeffs
        rounding = _ROUNDING * coeffs.scale
        assert c3 > 0.0 and c1 >= 0.0
        assert 4.0 * c1 * (c4 + c3) - c2 * c2 >= -rounding * max(1.0, 4.0 * c1)
        b = np.linspace(lo, hi, 33)
        root_q = np.sqrt(np.maximum((c1 * b + c2) * b + c4 + c3, 0.0))
        ks = math.sqrt(2.0 * c3) * np.sin(0.5 * b)
        g = (c1 * b + c2) * b + c3 * np.cos(b) + c4
        assert np.max(np.abs(g - (root_q - ks) * (root_q + ks))) <= rounding, coeffs


def test_quadcos_evaluations_per_plan_on_plan_mixed(monkeypatch, tmp_path):
    """The cost of the CCC root solves as a count: evaluations of G, G', H
    or H' (each calls cos once) per plan over ``bench/``'s plan-mixed
    corpus of seed 20002.  Before the convex factor it was 36.7 per plan,
    with the factor 19.8.  Each solve that the convex factor decides makes
    at most 3 bracketed solves and 6 single evaluations: H and H' at both
    ends, at the tangents' meeting point and at H's least point, and one
    Newton polish per root."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    corpus = workloads.PlanMixed(20002, str(tmp_path)).inputs
    counts = {"cos": 0, "refine": 0, "refine_cos": 0, "generic": 0}  # generic: _monotone_roots calls
    counting = types.SimpleNamespace(**vars(math))

    def cos(x, _cos=math.cos):
        counts["cos"] += 1
        return _cos(x)

    def refine(*args, _refine=rootfind._refine):
        counts["refine"] += 1
        before = counts["cos"]
        try:
            return _refine(*args)
        finally:
            counts["refine_cos"] += counts["cos"] - before

    def generic(*args, _generic=rootfind._monotone_roots):
        counts["generic"] += 1
        return _generic(*args)

    def solve(*args, _solve=solve_quadcos, **kwargs):
        counts.update(refine=0, refine_cos=0, generic=0)
        start = counts["cos"]
        counting.cos = cos
        try:
            return _solve(*args, **kwargs)
        finally:
            counting.cos = math.cos
            if not counts["generic"]:
                singles = counts["cos"] - start - counts["refine_cos"]
                assert counts["refine"] <= 3 and singles <= 6, (args, counts, singles)

    counting.cos = math.cos
    monkeypatch.setattr(rootfind, "math", counting)
    monkeypatch.setattr(rootfind, "_refine", refine)
    monkeypatch.setattr(rootfind, "_monotone_roots", generic)
    monkeypatch.setattr(windubins.families, "solve_quadcos", solve)
    for scenario in corpus:
        plan(scenario)
    assert counts["cos"] / len(corpus) <= 26.0
