import itertools
import math
import random

import pytest

import windubins.families
from windubins import (
    ControlSchedule,
    EnvelopeCoeffs,
    Scenario,
    Variant,
    WindVector,
    ToleranceSet,
    plan,
)
from windubins.families import (
    Family,
    _ccc_equations,
    _csc_branch_window,
    _csc_equations,
    solve_all,
    solve_cc,
    solve_ccc,
    solve_csc,
    solve_sc,
)
from windubins.geometry import HALF_PI, TWO_PI, RelativeState, ang_dist, integrate, target_relative
from windubins.rootfind import _GRAZE_WINDOW

from conftest import (
    CASE1_TIMES,
    CASE2_LSL_TIME,
    MIRROR_VARIANT,
    make_case1,
    make_case2,
    random_scenario,
)
from oracle import GridSpec, brute_force
from parity_dump import random_scenarios

START = RelativeState(0.0, 0.0, HALF_PI)


_VARIANT_BY_LABEL = {v.label: v for v in Variant}


def by_variant(cands, label):
    return [c for c in cands if c.variant.label == label]


def test_mirror_variant_swaps_turns():
    # MIRROR_VARIANT is derived from the labels; it must still pair each
    # variant with its L/R reflection in the same family.
    for order, v in enumerate(Variant):
        m = MIRROR_VARIANT[v]
        assert MIRROR_VARIANT[m] is v
        assert m.family is v.family
        assert (m.sigma, m.kappa) == (-v.sigma, -v.kappa)
        assert v.order == order


# ---------------------------------------------------------------------------
# SC2pi


def test_sc_forward_constructed():
    # Built so the straight leg is exactly 2: target sits where the track of
    # the drifting goal crosses the y-axis at the right moment.
    d = 2.0
    wy = -0.2
    target_y = d * (1.0 + wy) + TWO_PI * wy * 1.0
    sc = Scenario(wind=WindVector(0.0, wy), target_x=0.0, target_y=target_y,
                  theta_f=HALF_PI, rho=1.0)
    cands = solve_sc(sc)
    assert sorted(c.variant.label for c in cands) == ["SL2pi", "SR2pi"]
    for c in cands:
        assert c.params.d == pytest.approx(2.0, abs=1e-12)
        assert c.total_time == pytest.approx(2.0 + TWO_PI, abs=1e-12)
        assert c.residual < 1e-12


def test_sc_requires_vertical_final_heading():
    sc = Scenario(wind=WindVector(0.0, -0.2), target_x=0.0, target_y=1.0,
                  theta_f=0.0, rho=1.0)
    assert solve_sc(sc) == []


def test_sc_zero_wind_degenerate_emitted_but_dominated():
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=5.0,
                  theta_f=HALF_PI, rho=1.0)
    cands = solve_sc(sc)
    assert len(cands) == 2
    assert cands[0].params.d == pytest.approx(5.0, abs=1e-12)
    assert cands[0].total_time == pytest.approx(5.0 + TWO_PI, abs=1e-12)
    # The straight-only member of the arc-straight-arc family wins instead.
    result = plan(sc)
    assert result.t_f == pytest.approx(5.0, abs=1e-9)
    assert result.best.variant.family is Family.CSC


def test_sc_rejects_off_track_target():
    sc = Scenario(wind=WindVector(0.3, -0.2), target_x=4.0, target_y=1.0,
                  theta_f=HALF_PI, rho=1.0)
    assert solve_sc(sc) == []


def test_residual_tol_alone_bounds_the_endpoint_miss():
    # A target 1e-4 off the SC track and no cross wind, so the path misses
    # it by 1e-4: residual_tol = 1e-3 accepts the miss and the default
    # rejects it, with no second bound in the family.
    sc = Scenario(wind=WindVector(0.0, -0.2), target_x=1e-4, target_y=1.0,
                  theta_f=HALF_PI, rho=1.0)
    assert solve_sc(sc) == []
    cands = solve_sc(sc._replace(tol=ToleranceSet(residual_tol=1e-3)))
    assert [c.variant for c in cands] == [Variant.SR2PI, Variant.SL2PI]
    for c in cands:
        assert c.residual == pytest.approx(1e-4, rel=1e-6)


# ---------------------------------------------------------------------------
# CC2pi


def test_cc_case2_closed_form(case2):
    cands = solve_cc(case2)
    assert len(cands) == 1
    c = cands[0]
    assert c.variant is Variant.RL2PI
    assert c.params.alpha == pytest.approx(math.pi / 4, abs=1e-9)
    assert c.total_time == pytest.approx(9.0 * math.pi / 4.0, abs=1e-9)
    assert c.residual < 1e-9


def test_cc_forward_constructed():
    # Target placed exactly where an initial quarter clockwise turn plus a
    # full circle meets the drifting goal; heading east at the end.
    wx, wy = 0.1, 0.05
    total = 2.5 * math.pi
    sc = Scenario(wind=WindVector(wx, wy), target_x=1.0 + total * wx,
                  target_y=1.0 + total * wy, theta_f=0.0, rho=1.0)
    cands = solve_cc(sc)
    assert len(cands) == 1
    c = cands[0]
    assert c.variant is Variant.RL2PI
    assert c.params.alpha == pytest.approx(HALF_PI, abs=1e-9)
    assert c.total_time == pytest.approx(total, abs=1e-9)


def test_cc_wind_violation_rejected(case2):
    bent = Scenario(
        wind=WindVector(case2.wind.wx + 1e-3, case2.wind.wy),
        target_x=case2.target_x,
        target_y=case2.target_y,
        theta_f=case2.theta_f,
        rho=1.0,
    )
    assert solve_cc(bent) == []


def test_cc_heading_multiple_consistency(case2):
    for c in solve_cc(case2):
        # theta_f - (pi/2 -/+ alpha) must be an integer multiple of 2*pi.
        if c.variant is Variant.RL2PI:
            delta = case2.theta_f - (HALF_PI - c.params.alpha)
        else:
            delta = case2.theta_f - (HALF_PI + c.params.alpha)
        k = delta / TWO_PI
        assert abs(k - round(k)) * TWO_PI < 1e-9


# ---------------------------------------------------------------------------
# CCC


def test_ccc_case1_reference_times(case1):
    cands = solve_ccc(case1)
    for label in ("RL<piR", "RL>piR", "LR<piL", "LR>piL"):
        matches = by_variant(cands, label)
        assert matches, f"missing {label}"
        best = min(c.total_time for c in matches)
        assert best == pytest.approx(CASE1_TIMES[label], abs=1e-3)
    for c in cands:
        assert c.residual <= 1e-9 * (1 + c.total_time)


def test_ccc_zero_wind_matches_brute_force():
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=2.0,
                  theta_f=3.0 * math.pi / 2.0, rho=1.0)
    cands = solve_ccc(sc)
    assert cands
    best = min(c.total_time for c in cands)
    oracle = brute_force(
        sc, GridSpec(angle_res=0.02, length_res=0.05, depth=40), patterns=("RLR", "LRL")
    )
    assert oracle is not None and oracle.label in ("RLR", "LRL")
    assert best == pytest.approx(oracle.time, abs=1e-6)


def test_ccc_candidates_intercept(case1):
    for c in solve_ccc(case1):
        end = integrate(START, c.schedule, case1.rho)
        tx, ty = target_relative(case1, c.total_time)
        assert math.hypot(end.x - tx, end.y - ty) <= 1e-6 * (1 + c.total_time)
        assert ang_dist(end.theta, case1.theta_f) <= 1e-8


# ---------------------------------------------------------------------------
# CSC


def test_csc_case1_reference_times(case1):
    cands = solve_csc(case1)
    for label in ("RSR", "LSL"):
        matches = by_variant(cands, label)
        assert matches
        best = min(c.total_time for c in matches)
        assert best == pytest.approx(CASE1_TIMES[label], abs=1e-3)


def test_csc_case2_single_lsl(case2):
    matches = by_variant(solve_csc(case2), "LSL")
    assert len(matches) == 1
    assert matches[0].total_time == pytest.approx(CASE2_LSL_TIME, abs=1e-9)
    assert matches[0].residual < 1e-9


def test_csc_pure_straight_subpattern():
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=10.0,
                  theta_f=HALF_PI, rho=1.0)
    cands = solve_csc(sc)
    straight = [c for c in cands if c.total_time == pytest.approx(10.0, abs=1e-9)]
    assert straight
    for c in straight:
        assert c.params.alpha == pytest.approx(0.0, abs=1e-9)
        assert c.params.gamma == pytest.approx(0.0, abs=1e-9)
        assert c.params.d == pytest.approx(10.0, abs=1e-9)


def test_clamped_params_are_never_negative_zero():
    # RSL at a heading of exactly pi/2 computes its first arc as -0.0; the
    # clamp must return +0.0, or the CLI prints "-0.000000".
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=10.0,
                  theta_f=HALF_PI, rho=1.0)
    cands = plan(sc).all_candidates
    assert any(c.variant is Variant.RSL for c in cands)
    for c in cands:
        assert all(math.copysign(1.0, p) > 0.0 for p in c.params), (c.variant, c.params)


def test_candidates_use_at_most_three_pieces():
    rng = random.Random(30)
    for _ in range(15):
        for c in solve_all(random_scenario(rng)):
            assert len(c.schedule.pieces) <= 3
            assert c.total_time == c.schedule.total_duration


def test_csc_candidates_intercept():
    rng = random.Random(31)
    for _ in range(25):
        sc = random_scenario(rng)
        for c in solve_csc(sc):
            end = integrate(START, c.schedule, sc.rho)
            tx, ty = target_relative(sc, c.total_time)
            assert math.hypot(end.x - tx, end.y - ty) <= 1e-6 * (1 + c.total_time)
            assert c.params.d >= 0.0


def test_accept_merges_near_duplicates(monkeypatch):
    # Zero wind, goal (-2, 0), theta_f = 3*pi/2: RSL and LSR find paths from
    # double roots at the cuts, some from two roots about 1e-9 apart.  10
    # proposals meet the target and ``_accept`` merges them into 7 candidates.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=-2.0, target_y=0.0,
                  theta_f=1.5 * math.pi, rho=1.0)

    def near(a, b):
        return a.variant is b.variant and all(
            abs(p - q) <= _GRAZE_WINDOW for p, q in zip(a.params, b.params)
        )

    merged = solve_csc(sc)
    assert len(merged) == 7
    assert not any(near(a, b) for i, a in enumerate(merged) for b in merged[i + 1:])
    monkeypatch.setattr(windubins.families, "_GRAZE_WINDOW", -1.0)  # merge nothing
    unmerged = solve_csc(sc)
    assert len(unmerged) == 10
    # Each merged candidate is the lowest-residual member of its group.
    for c in merged:
        assert c.residual == min(u.residual for u in unmerged if near(c, u))


def test_accept_keeps_two_contacts_apart():
    # Two RL<piR paths whose params all lie within 3.4e-3: their roots are
    # parted by a dip of G 1.05 times the graze band, so they are two
    # contacts, not one grazing root located twice, and both are kept.  A
    # grazing-location window of 3.4e-3 or more would merge them.
    sc = Scenario(wind=WindVector(0.0, 0.4), target_x=3.386155899493694, target_y=0.8083942335010113,
                  theta_f=0.5, rho=1.0)
    pair = [c for c in solve_ccc(sc) if c.variant is Variant.RLR_SHORT]
    assert len(pair) == 2
    assert max(abs(p - q) for p, q in zip(pair[0].params, pair[1].params)) < 3.4e-3
    assert pair[1].total_time - pair[0].total_time == pytest.approx(6.7e-3, abs=1e-4)


@pytest.mark.parametrize(
    "goal, variant, time", [((-2.0, -2.0), Variant.LSR, 3.0 * math.pi), ((2.0, 2.0), Variant.RSL, math.pi)]
)
def test_accept_merges_a_csc_path_across_heading_zero(goal, variant, time):
    # Still air, theta_f = pi/2: the double root at straight heading 0 = 2*pi
    # lies inside branch 0's arc, and rounding splits it into two roots about
    # 1e-8 apart, one on each side.  Their betas differ by nearly 2*pi, but
    # as headings they are 1e-8 apart: one path, which ``_accept`` keeps once.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=goal[0], target_y=goal[1], theta_f=HALF_PI, rho=1.0)
    found = [c for c in solve_csc(sc) if c.variant is variant]
    assert len(found) == 1
    assert found[0].total_time == pytest.approx(time, abs=1e-12)
    assert ang_dist(found[0].params.beta, 0.0) < 1e-8


def test_zero_duration_pieces_are_removable():
    # Candidates with degenerate segments stay valid when those segments are
    # dropped outright: the subpattern is the same path.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=10.0,
                  theta_f=HALF_PI, rho=1.0)
    for c in solve_all(sc):
        trimmed = ControlSchedule(tuple(p for p in c.schedule.pieces if p[1] > 0.0))
        if not trimmed.pieces:
            continue
        a = integrate(START, c.schedule, sc.rho)
        b = integrate(START, trimmed, sc.rho)
        assert (a.x, a.y) == (b.x, b.y)
        assert ang_dist(a.theta, b.theta) < 1e-15


# ---------------------------------------------------------------------------
# Root-equation coefficient construction


def _balance(sc, variant, n, beta):
    """Oracle: the CSC displacement balance of wrap branch n at straight
    heading beta, evaluated geometrically (the cross product of the residual
    r with the straight direction (cos b + wx, sin b + wy)), and the sum of
    the magnitudes of the terms it is built from, the scale of its rounding."""
    rho, th_f = sc.rho, sc.theta_f
    wx, wy = sc.wind.wx, sc.wind.wy
    sb, cb = math.sin(beta), math.cos(beta)
    if variant.sigma == -1:
        p1 = (rho - rho * sb, rho * cb)
    else:
        p1 = (-rho + rho * sb, -rho * cb)
    if variant.kappa == -1:
        k = (rho * (sb - math.sin(th_f)), rho * (math.cos(th_f) - cb))
    else:
        k = (rho * (math.sin(th_f) - sb), rho * (cb - math.cos(th_f)))
    if variant is Variant.RSR:
        arc_sum = HALF_PI - th_f + 2 * n * math.pi
    elif variant is Variant.LSL:
        arc_sum = th_f - HALF_PI + 2 * n * math.pi
    elif variant is Variant.RSL:
        arc_sum = HALF_PI + th_f - 2 * beta + 2 * n * math.pi
    else:
        arc_sum = 2 * beta - HALF_PI - th_f + 2 * n * math.pi
    rx = sc.target_x - rho * arc_sum * wx - p1[0] - k[0]
    ry = sc.target_y - rho * arc_sum * wy - p1[1] - k[1]
    scale_x = abs(sc.target_x) + abs(rho * arc_sum * wx) + abs(p1[0]) + abs(k[0])
    scale_y = abs(sc.target_y) + abs(rho * arc_sum * wy) + abs(p1[1]) + abs(k[1])
    return rx * (sb + wy) - ry * (cb + wx), scale_x * abs(sb + wy) + scale_y * abs(cb + wx)


def _g(coeffs, b):
    """G of a sinusoid or envelope record at b, and the sum of |term| (its
    rounding scale)."""
    if hasattr(coeffs, "e1"):
        terms = (coeffs.e1, coeffs.e2 * math.sin(b), coeffs.e3 * math.cos(b))
    else:
        f1, f2, f3, f4, f5 = coeffs
        terms = (f1, f2 * math.sin(b), f3 * math.cos(b), b * f4 * math.sin(b), b * f5 * math.cos(b))
    return sum(terms), sum(abs(t) for t in terms)


def _csc_equation_map(sc):
    """{(label, n): (coeffs, c)} of the CSC branch equations ``solve_csc``
    solves, each in b - c: c is the RSL/LSR arc's, and 0 for RSR/LSL."""
    _, arcs, branches = _csc_equations(sc)
    out = {(v.label, n): (coeffs, c) for v, n, coeffs, c, *_ in arcs}
    out.update({(v.label, n): (coeffs, 0.0) for v, n, coeffs, _ in branches})
    return out


def test_csc_coefficients_match_displacement_balance():
    # Every expanded sinusoid/envelope equation, at heading beta, must equal
    # the cross product of the displacement balance evaluated geometrically.
    rng = random.Random(32)
    for _ in range(120):
        sc = random_scenario(rng)
        beta = rng.uniform(0.0, TWO_PI)
        for (label, n), (coeffs, c) in _csc_equation_map(sc).items():
            balance, _ = _balance(sc, _VARIANT_BY_LABEL[label], n, beta)
            value, _ = _g(coeffs, beta - c)
            assert value == pytest.approx(balance, abs=1e-9 * (1 + abs(balance)))


# Locked after first verified computation (reference scenarios solved and the
# resulting candidates integration-checked); guards against silent drift.
CASE1_CCC_GOLDEN = {
    (-1, 0): (0.9999999999999999, -10.530360842502038, 8.0, 20.165740883735594),
    (-1, 1): (0.9999999999999999, -4.2471755353224525, 8.0, -3.0467589776290787),
    (1, -1): (0.9999999999999999, -4.679720131221026, 8.0, -2.5227498108700024),
    (1, 0): (0.9999999999999999, -10.962905438400611, 8.0, 22.048628975319595),
}

CASE1_CSC_GOLDEN = {
    ("RSR", 1): (0.3330225275452588, 1.81383274331652, 1.2896711990440777),
    ("LSL", 1): (0.0240055331703114, 2.2105029272003685, 0.7687177622304562),
    ("RSL", 2): (
        2.3330225275452587,
        -4.580262314286912,
        0.2635659994815097,
        0.9510565162951535,
        0.3090169943749474,
    ),
    ("LSR", 1): (
        -1.9759944668296887,
        5.616765820062246,
        0.8240174424302907,
        -0.9510565162951535,
        -0.3090169943749474,
    ),
}

CASE2_CCC_GOLDEN = {
    (-1, 0): (0.23330099162563614, -1.4658733627326246, 8.0, -5.697411506273109),
    (1, 0): (0.23330099162563614, -0.4661762913938363, 8.0, -7.423978755539881),
}

CASE2_CSC_GOLDEN = {
    ("RSR", 1): (0.0, 0.0, 1.1102230246251565e-16),
    ("LSL", 2): (-0.1414710605261292, 0.5857864376269051, -2.5522847498307932),
}

def _ccc_coefficients(sc, sigma, n):
    return next(tuple(eq[2]) for eq in _ccc_equations(sc) if eq[:2] == (sigma, n))


def _check_csc_locked(sc, label, n, expected):
    """The CSC equation of (label, n) is the locked record: the same record
    where it is solved in the heading itself (c = 0), else, for RSL/LSR's
    branch 2, which ``solve_csc`` solves as branch 0 one turn on
    (G_2(b) = G_0(b + 2*sigma*pi)), the same function of the heading."""
    eqs = _csc_equation_map(sc)
    if (label, n) in eqs and eqs[label, n][1] == 0.0:
        assert tuple(eqs[label, n][0]) == expected
        return
    assert n == 2
    coeffs, c = eqs[label, 0]
    sigma = _VARIANT_BY_LABEL[label].sigma
    for b in (0.0, 1.0, 3.0, 5.0):
        value, scale = _g(coeffs, b)
        locked, locked_scale = _g(EnvelopeCoeffs(*expected), c + b - 2.0 * sigma * math.pi)
        assert value == pytest.approx(locked, abs=1e-12 * max(scale, locked_scale))


@pytest.mark.parametrize("key,expected", sorted(CASE1_CCC_GOLDEN.items()))
def test_case1_ccc_coefficients_locked(key, expected):
    assert _ccc_coefficients(make_case1(), *key) == expected


@pytest.mark.parametrize("key,expected", sorted(CASE1_CSC_GOLDEN.items()))
def test_case1_csc_coefficients_locked(key, expected):
    _check_csc_locked(make_case1(), *key, expected)


@pytest.mark.parametrize("key,expected", sorted(CASE2_CCC_GOLDEN.items()))
def test_case2_ccc_coefficients_locked(key, expected):
    assert _ccc_coefficients(make_case2(), *key) == expected


@pytest.mark.parametrize("key,expected", sorted(CASE2_CSC_GOLDEN.items()))
def test_case2_csc_coefficients_locked(key, expected):
    _check_csc_locked(make_case2(), *key, expected)


def test_csc_branch_two_is_branch_zero_shifted_by_a_turn():
    # solve_csc joins RSL/LSR's branches 0 and 2 into one equation because
    # G_2(b) = G_0(b + 2*sigma*pi): the branch enters only as a shift of b.
    # So the branch-0 arc equation at heading h = c + b' is branch 2's
    # balance at h - 2*sigma*pi.
    rng = random.Random(15)
    for _ in range(200):
        sc = random_scenario(rng, w_max=0.95)
        eqs = _csc_equation_map(sc)
        for variant in (Variant.RSL, Variant.LSR):
            coeffs, c = eqs[variant.label, 0]
            b = rng.uniform(0.0, TWO_PI)
            value0, scale0 = _g(coeffs, b)
            value2, scale2 = _balance(sc, variant, 2, c + b - 2.0 * variant.sigma * math.pi)
            assert value2 == pytest.approx(value0, abs=1e-12 * max(scale0, scale2))


def test_csc_rotated_equation_is_the_shifted_one():
    # The equation each RSL/LSR arc is solved with, in the heading measured
    # from the arc's c, at b' equals the branch's balance at c + b'.
    rng = random.Random(16)
    for _ in range(200):
        sc = random_scenario(rng, w_max=0.95)
        variant = rng.choice((Variant.RSL, Variant.LSR))
        n = rng.choice((0, 1))
        rotated, c = _csc_equation_map(sc)[variant.label, n]
        window_c, (lo, hi), _ = _csc_branch_window(variant.sigma, sc.theta_f, n)
        assert c == window_c
        for b in (lo, hi, rng.uniform(lo, hi)):
            value, scale = _g(rotated, b)
            expected, expected_scale = _balance(sc, variant, n, c + b)
            assert value == pytest.approx(expected, abs=1e-12 * max(scale, expected_scale))


def test_csc_branch_windows_cover_the_circle():
    # solve_csc solves each RSL/LSR equation on one arc of straight headings
    # alone.  The two arcs must start and end within their 1e-9 padding of a
    # cut (pi/2, where the first arc wraps, or theta_f, where the last does)
    # and together make one full turn.  The root finder covers an arc's part
    # in [0, 2*pi), which must be non-empty; any other point of the arc is
    # one turn, 2*sigma*pi, from a point of that part, where solve_csc
    # proposes its roots again.  Along each arc, sigma*(b - pi/2) less the
    # returned whole turns is the first arc, in [0, 2*pi] up to the padding.
    pad = 1e-9
    rng = random.Random(7)
    near_half_pi = [HALF_PI - 0.5 * pad, HALF_PI + 0.5 * pad, HALF_PI + 3 * pad]
    th_fs = [0.0, HALF_PI, math.pi, 1.5 * math.pi, *near_half_pi]
    for th_f in th_fs + [rng.uniform(0.0, TWO_PI) for _ in range(200)]:
        for sigma in (-1, 1):
            arcs = [_csc_branch_window(sigma, th_f, n) for n in (0, 1)]
            for c, (a, z), wrap in arcs:
                assert max(a, 0.0) < min(z, TWO_PI)
                for end in (c + a, c + z):
                    assert min(ang_dist(end, HALF_PI), ang_dist(end, th_f)) <= pad + 1e-12
                for v in (a, 0.5 * (a + z), z, rng.uniform(a, z)):
                    inside = v if -1e-12 <= v <= TWO_PI + 1e-12 else v - sigma * TWO_PI
                    assert -1e-12 <= inside <= TWO_PI + 1e-12
                    alpha = sigma * (c + v - HALF_PI) - wrap
                    assert -2 * pad <= alpha <= TWO_PI + 2 * pad
            total = sum(z - a for _, (a, z), _ in arcs)
            assert TWO_PI - 1e-12 <= total <= TWO_PI + 4 * pad + 1e-12


def test_csc_from_beta_sees_only_its_own_branch(monkeypatch):
    # solve_csc drops a root of another wrap branch before its balance is
    # solved, so every root _csc_from_beta receives has its last arc gamma in
    # [0, 2*pi] up to feas_tol, and alpha + gamma is its branch's arc sum.
    # On plan-mixed seeds 20002 and 20003 that is 7.55 calls per plan, where
    # solving every root's balance took 11.54.
    seen = []

    def counted(*args, _inner=windubins.families._csc_from_beta):
        seen.append(args)
        return _inner(*args)

    monkeypatch.setattr(windubins.families, "_csc_from_beta", counted)
    randoms = (sc for _, sc in itertools.islice(random_scenarios(), 300))
    for sc in (make_case1(), make_case2(), *randoms):
        plan(sc)
    assert seen
    for consts, variant, beta, alpha, gamma in seen:
        feas = consts[-1]
        assert -feas <= gamma <= TWO_PI + feas
        th_f = math.atan2(consts[4], consts[5])
        sigma, kappa = variant.sigma, variant.kappa
        arc_sum = kappa * th_f - sigma * HALF_PI + (sigma - kappa) * beta
        assert ang_dist(alpha + gamma, arc_sum) <= 1e-9


def test_equations_per_plan(monkeypatch):
    # Root solves per plan: one quadcos per CCC branch window (6; 8 at
    # theta_f = pi/2, where two more windows shrink to their padding but stay
    # non-empty), a sinusoid per RSR/LSL branch whose arc sum lies in
    # [0, 4*pi) (at most 4), and one envelope per RSL/LSR arc (exactly 4).
    counts = {}
    for name in ("solve_quadcos", "solve_sinusoid", "solve_envelope"):
        def counted(*args, _solve=getattr(windubins.families, name), _name=name, **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(windubins.families, name, counted)
    zero_wind = Scenario(
        wind=WindVector(0.0, 0.0), target_x=4.0, target_y=3.0, theta_f=math.radians(30.0), rho=1.0
    )
    half_pi = Scenario(wind=WindVector(0.2, -0.1), target_x=3.0, target_y=4.0, theta_f=HALF_PI, rho=1.0)
    for sc, quadcos in ((make_case1(), 6), (make_case2(), 6), (zero_wind, 6), (half_pi, 8)):
        counts.update(solve_quadcos=0, solve_sinusoid=0, solve_envelope=0)
        assert windubins.planner.plan(sc).feasible
        assert counts["solve_quadcos"] == quadcos
        assert counts["solve_sinusoid"] <= 4
        assert counts["solve_envelope"] == 4
