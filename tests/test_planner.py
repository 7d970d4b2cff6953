import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windubins import (
    ControlSchedule,
    Family,
    PathCandidate,
    Scenario,
    ToleranceSet,
    Variant,
    WindVector,
    plan,
    sample,
    validate,
)
from windubins.families import SegmentParams
from windubins.geometry import DEFAULT_START, HALF_PI, TWO_PI, ang_dist, integrate, mod2pi, propagate

from conftest import (
    CASE1_TIMES,
    CASE2_TIMES,
    MIRROR_VARIANT,
    make_case1,
    make_case2,
    mirrored,
    random_scenario,
)
from oracle import ORACLE_TIME_BOUND, brute_force


def min_time_by_label(result, label):
    times = [c.total_time for c in result.all_candidates if c.variant.label == label]
    assert times, f"no candidate of type {label}"
    return min(times)


def test_plan_case1(case1):
    result = plan(case1)
    assert result.feasible
    assert result.best.variant is Variant.LSL
    assert result.t_f == pytest.approx(7.5294, abs=1e-3)
    for label, t_ref in CASE1_TIMES.items():
        assert min_time_by_label(result, label) == pytest.approx(t_ref, abs=1e-3)
    assert result.per_family_times[Family.CSC] == result.t_f
    assert result.per_family_times[Family.SC] == math.inf


def test_plan_case1_rounded_wind_structure(case1_rounded):
    # With the wind rounded to three decimals the same six types survive and
    # the winner is unchanged; times shift by up to ~7e-3.
    result = plan(case1_rounded)
    assert result.best.variant is Variant.LSL
    for label, t_ref in CASE1_TIMES.items():
        assert min_time_by_label(result, label) == pytest.approx(t_ref, abs=1e-2)


def test_plan_case2(case2):
    result = plan(case2)
    assert result.best.variant is Variant.RL2PI
    assert result.t_f == pytest.approx(9.0 * math.pi / 4.0, abs=1e-9)
    for label, t_ref in CASE2_TIMES.items():
        assert min_time_by_label(result, label) == pytest.approx(t_ref, abs=1e-3)


def test_plan_unobstructed_straight_line():
    sc = Scenario(wind=WindVector(0, 0), target_x=0.0, target_y=10.0,
                  theta_f=HALF_PI, rho=1.0)
    result = plan(sc)
    assert result.t_f == pytest.approx(10.0, abs=1e-9)
    assert result.best.variant.family is Family.CSC


def test_plan_candidates_sorted_and_deterministic(case1):
    a = plan(case1)
    b = plan(case1)
    times = [c.total_time for c in a.all_candidates]
    assert times == sorted(times)
    assert [c.variant for c in a.all_candidates] == [c.variant for c in b.all_candidates]
    assert [c.total_time for c in a.all_candidates] == [c.total_time for c in b.all_candidates]


def test_a_real_gap_is_not_a_tie():
    # Still air, goal (-1e-10, -3), theta_f = 3*pi/2: moving the goal of a
    # mirror-symmetric problem 1e-10 off its axis makes LSR faster than its
    # mirror RSL by 1.3e-10, far above the rounding of a time.  The faster
    # path wins though RSL comes first in enum order; a tie window of 1.3e-10
    # turn radii or more would hand the win to RSL.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=-1e-10, target_y=-3.0, theta_f=1.5 * math.pi, rho=1.0)
    result = plan(sc)
    assert result.best.variant is Variant.LSR
    assert result.t_f == min(c.total_time for c in result.all_candidates)
    rsl = min(c.total_time for c in result.all_candidates if c.variant is Variant.RSL)
    assert rsl - result.t_f == pytest.approx(1.3e-10, rel=0.05)


def test_a_slow_wind_is_not_still_air():
    # A wind of 3e-6 drifts the goal by 3e-5 over the path of 10 turn radii,
    # about three times the residual_tol*(rho + t) a path may miss by: the
    # planner keeps that wind, and its path meets the drifting goal.  A
    # zero-wind threshold of 3e-6 or more would plan for still air and miss.
    wx = 3e-6
    sc = Scenario(wind=WindVector(wx, 0.0), target_x=0.0, target_y=10.0, theta_f=HALF_PI, rho=1.0)
    best = plan(sc).best
    end = integrate(DEFAULT_START, best.schedule, 1.0)
    miss = math.hypot(end.x + best.total_time * wx, end.y - 10.0)
    assert miss <= sc.tol.residual_tol * (1.0 + best.total_time)


def test_plan_reports_infeasible_with_widening():
    # An absurdly tight residual tolerance rejects every candidate; the
    # planner comes back empty-handed instead of fabricating a result.
    sc = Scenario(wind=WindVector(0.3, 0.1), target_x=4.0, target_y=2.0,
                  theta_f=1.0, rho=1.0, tol=ToleranceSet(residual_tol=1e-30))
    result = plan(sc)
    assert not result.feasible
    assert result.best is None
    assert result.t_f == math.inf
    assert all(t == math.inf for t in result.per_family_times.values())


def test_per_family_times_are_each_plans_own(case1):
    # per_family_times starts from one module-level template on every plan:
    # each family's fastest time or +inf, keyed in Family order, in a dict of
    # the plan's own that changing cannot reach another plan.
    result = plan(case1)
    fastest = {fam: math.inf for fam in Family}
    for c in result.all_candidates:
        fastest[c.variant.family] = min(fastest[c.variant.family], c.total_time)
    assert list(result.per_family_times.items()) == list(fastest.items())
    result.per_family_times[Family.SC] = 0.0
    assert plan(case1).per_family_times[Family.SC] == math.inf


def test_validate_solver_candidates(case1):
    for cand in plan(case1).all_candidates:
        report = validate(cand, case1)
        assert report.feasible
        assert report.position_error < 1e-9
        assert report.heading_error < 1e-9
        assert report.interception_error < 1e-9


def test_plan_records_are_immutable(case1):
    result = plan(case1)
    report = validate(result.best, case1)
    for record, name in ((result, "t_f"), (report, "feasible")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert type(record)._make(record) == record
    assert result._replace(best=None).feasible is False


def test_validate_flags_corrupted_straight_leg(case1):
    result = plan(case1)
    best = result.best
    pieces = list(best.schedule.pieces)
    pieces[1] = (pieces[1][0], pieces[1][1] + 0.1)
    corrupted = PathCandidate(
        variant=best.variant,
        params=best.params,
        total_time=best.total_time + 0.1,
        schedule=ControlSchedule(tuple(pieces)),
        residual=best.residual,
    )
    report = validate(corrupted, case1)
    assert not report.feasible
    # Stretching the straight leg by 0.1 moves the endpoint relative to the
    # (also shifted) target by ~0.1 * |leg direction + wind|.
    assert 0.02 < report.position_error < 0.25


def test_validate_zero_schedule():
    sc = Scenario(wind=WindVector(0.2, 0.0), target_x=3.0, target_y=4.0,
                  theta_f=HALF_PI, rho=1.0)
    cand = PathCandidate(
        variant=Variant.RSR,
        params=SegmentParams(),
        total_time=0.0,
        schedule=ControlSchedule(((0, 0.0),)),
        residual=0.0,
    )
    report = validate(cand, sc)
    assert not report.feasible
    assert report.position_error == pytest.approx(5.0, abs=1e-12)


def test_sample_straight_rows():
    sc = Scenario(wind=WindVector(0, 0), target_x=0.0, target_y=2.0,
                  theta_f=HALF_PI, rho=1.0)
    result = plan(sc)
    rows = sample(result.best, 1.0, sc)
    assert [r.t for r in rows] == [0.0, 1.0, 2.0]
    assert [r.y_rel for r in rows] == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)


def test_sample_full_circle_closes():
    sc = Scenario(wind=WindVector(0.0, -0.2), target_x=0.0,
                  target_y=2.0 * (1 - 0.2) - TWO_PI * 0.2, theta_f=HALF_PI, rho=1.0)
    result = plan(sc)
    sr = [c for c in result.all_candidates if c.variant is Variant.SR2PI]
    assert sr
    cand = sr[0]
    rows = sample(cand, cand.total_time, sc)
    first, last = rows[0], rows[-1]
    assert last.t == cand.total_time
    # The circle returns to the straight leg's end; the first and last rows of
    # the circular piece share the relative pose.
    circle_start = [r for r in rows if r.t == cand.params.d][0]
    assert (last.x_rel, last.y_rel) == pytest.approx(
        (circle_start.x_rel, circle_start.y_rel), abs=1e-9
    )


def test_sample_case1_endpoint_hits_inertial_target(case1):
    result = plan(case1)
    rows = sample(result.best, 0.01, case1)
    assert rows[-1].t == result.t_f
    assert rows[-1].x_inertial == pytest.approx(5.0, abs=1e-6)
    assert rows[-1].y_inertial == pytest.approx(-2.0, abs=1e-6)
    # Control switches appear as explicit rows, each carrying the control of
    # the piece that starts there.
    pieces = result.best.schedule.pieces
    switch = 0.0
    for (_, dur), (u_next, _) in zip(pieces, pieces[1:]):
        switch += dur
        at_switch = [r for r in rows if r.t == switch]
        assert len(at_switch) == 1 and at_switch[0].u == u_next


def test_sample_merges_a_grid_time_within_rounding_of_a_switch(case1):
    # With dt = switch/19, the grid time 19*dt lands 8.9e-16 past case 1's
    # second switch instead of on it: one row there, not two rows a rounding
    # apart.
    best = plan(case1).best
    switch = best.schedule.pieces[0][1] + best.schedule.pieces[1][1]
    dt = switch / 19
    assert 0.0 < 19 * dt - switch < 1e-15
    rows = sample(best, dt, case1)
    assert [r.t for r in rows if abs(r.t - switch) < 1e-9] == [switch]


def test_sample_keeps_every_row_of_a_short_path():
    # A straight path of 1e-3 turn radii sampled every 1e-7 has 10^4 grid
    # rows and its end, each its own row; a merge slack of 1e-7 would fold
    # them together.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=1e-3, theta_f=HALF_PI, rho=1.0)
    straight = [c for c in plan(sc).all_candidates if c.params.d == c.total_time]
    rows = sample(straight[0], 1e-7, sc)
    assert len(rows) == 10**4 + 1
    assert min(b.t - a.t for a, b in zip(rows, rows[1:])) > 0.99e-7


def test_sample_keeps_every_row_of_a_path_shorter_than_1e_6():
    # Still air, goal 1e-9 ahead: sampled every 1e-14, the path has 10^5 grid
    # rows besides its switch times and end.  The slack is relative to the
    # path's time; an absolute 1e-12 folded grid times closer than that into
    # one row and returned 992 rows.
    sc = Scenario(wind=WindVector(0.0, 0.0), target_x=0.0, target_y=1e-9, theta_f=HALF_PI, rho=1.0)
    rows = sample(plan(sc).best, 1e-14, sc)
    assert len(rows) == 100_003
    assert all(a.t < b.t for a, b in zip(rows, rows[1:]))


def test_sample_rejects_bad_dt(case1):
    best = plan(case1).best
    for dt in (0.0, -0.1, math.inf, math.nan, 1e-320):  # 1e-320: too many rows
        with pytest.raises(ValueError):
            sample(best, dt, case1)


def test_plan_arbitrary_start_pose_round_trip():
    # Planning from a shifted, rotated start must place the vehicle on the
    # inertial target regardless of the frame bookkeeping.
    rng = random.Random(91)
    for _ in range(10):
        start = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        sc = Scenario(
            wind=WindVector(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
            target_x=rng.uniform(-8, 8),
            target_y=rng.uniform(-8, 8),
            theta_f=rng.uniform(0, TWO_PI),
            rho=rng.uniform(0.5, 2.0),
            start=start,
        )
        result = plan(sc)
        assert result.feasible
        rows = sample(result.best, 0.5, sc)
        assert rows[0].x_rel == pytest.approx(start[0], abs=1e-9)
        assert rows[0].y_rel == pytest.approx(start[1], abs=1e-9)
        assert rows[-1].x_inertial == pytest.approx(sc.target_x, abs=1e-6)
        assert rows[-1].y_inertial == pytest.approx(sc.target_y, abs=1e-6)


def test_near_unit_wind_plans_from_a_turned_start():
    # Turning this valid wind into the start frame rounds |w|^2 up to 1.0,
    # which ``normalize`` must not pass on to WindVector.
    sc = Scenario(
        wind=WindVector(0.08644047343811254, -0.9962570173162119),
        target_x=3.0,
        target_y=1.0,
        theta_f=1.0,
        rho=1.0,
        start=(0.0, 0.0, math.radians(30.0)),
    )
    result = plan(sc)
    assert result.feasible
    assert validate(result.best, sc).feasible


def test_mirror_equivariance():
    rng = random.Random(92)
    # Roots on wrap-branch boundaries (beta = pi/2 or theta_f), where an arc
    # is either empty or a full turn: reference case 2 and two such goals.
    boundary = [
        make_case2(),
        Scenario(wind=WindVector(0.5, 0.0), target_x=-2.0, target_y=-1.0, theta_f=math.pi, rho=1.0),
        Scenario(wind=WindVector(0.0, -0.5), target_x=-1.0, target_y=-1.0, theta_f=0.0, rho=1.0),
    ]
    for sc in [random_scenario(rng) for _ in range(50)] + boundary:
        res = plan(sc)
        mres = plan(mirrored(sc))
        assert mres.feasible == res.feasible
        if res.feasible:
            assert mres.t_f == pytest.approx(res.t_f, abs=1e-9)
            assert mres.best.variant is MIRROR_VARIANT[res.best.variant]
        # The whole candidate set mirrors, not only the winner.
        expected = sorted((MIRROR_VARIANT[c.variant].order, c.total_time) for c in res.all_candidates)
        got = sorted((c.variant.order, c.total_time) for c in mres.all_candidates)
        assert [v for v, _ in got] == [v for v, _ in expected]
        for (_, t), (_, mt) in zip(expected, got):
            assert mt == pytest.approx(t, abs=1e-9)


def test_scale_covariance():
    rng = random.Random(93)
    for k in (0.25, 3.0, 17.0, 1e-200, 1e-6, 1e200):
        sc = random_scenario(rng)
        scaled = Scenario(
            wind=sc.wind,
            target_x=sc.target_x * k,
            target_y=sc.target_y * k,
            theta_f=sc.theta_f,
            rho=sc.rho * k,
        )
        res = plan(sc)
        sres = plan(scaled)
        times = sorted(c.total_time for c in res.all_candidates)
        stimes = sorted(c.total_time for c in sres.all_candidates)
        assert len(times) == len(stimes)
        for t, ts in zip(times, stimes):
            assert ts == pytest.approx(t * k, rel=1e-9)
        assert sres.best.variant is res.best.variant


#: a coordinate in turn radii; 0 or at least 1e-9 in size, so that scaling
#: it by 2**-4 stays exact (no subnormal)
_COORD = st.floats(-30.0, 30.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-9)
_ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)


def _wind(speed, bearing):
    return WindVector(speed * math.cos(bearing), speed * math.sin(bearing))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(0.0, 0.95), _ANGLE, _COORD, _COORD, _ANGLE,
    st.tuples(_COORD, _COORD, _ANGLE), st.floats(0.25, 4.0), st.integers(-4, 4),
)
def test_scale_covariance_by_powers_of_two(speed, bearing, x, y, theta_f, start, rho, k):
    # Scaling goal, start and rho by 2**k scales every length exactly, so
    # the unit-radius problem the families solve is the same bit for bit:
    # the same candidates, with times exactly 2**k times the base ones.
    f = 2.0**k
    base = Scenario(wind=_wind(speed, bearing), target_x=x, target_y=y, theta_f=theta_f, rho=rho, start=start)
    scaled = base._replace(
        target_x=x * f, target_y=y * f, rho=rho * f, start=(start[0] * f, start[1] * f, start[2])
    )
    res, sres = plan(base), plan(scaled)
    assert [c.variant for c in sres.all_candidates] == [c.variant for c in res.all_candidates]
    assert [c.total_time for c in sres.all_candidates] == [c.total_time * f for c in res.all_candidates]
    assert sres.t_f == res.t_f * f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(0.0, 0.95), _ANGLE, _COORD, _COORD, _ANGLE,
    st.tuples(_COORD, _COORD, _ANGLE), st.sampled_from((0.5, 1.0, 2.5)),
)
def test_rigid_motion_covariance(speed, bearing, x, y, theta_f, pose, rho):
    # The same problem posed from a moved and turned start pose, with goal,
    # goal heading and wind moved along, has the same fastest time; its
    # label may differ only where another label ties within 1e-9.
    base = Scenario(wind=_wind(speed, bearing), target_x=x, target_y=y, theta_f=theta_f, rho=rho)
    turn = pose[2] - HALF_PI
    c, s = math.cos(turn), math.sin(turn)
    moved = Scenario(
        wind=_wind(speed, bearing + turn),
        target_x=pose[0] + c * x - s * y,
        target_y=pose[1] + s * x + c * y,
        theta_f=mod2pi(theta_f + turn),
        rho=rho,
        start=pose,
    )
    res, mres = plan(base), plan(moved)
    assert mres.feasible == res.feasible
    if not res.feasible:
        return
    slack = 1e-9 * (1.0 + res.t_f)
    assert abs(mres.t_f - res.t_f) <= slack
    if mres.best.variant is not res.best.variant:
        tied = [c.total_time for c in res.all_candidates if c.variant is mres.best.variant]
        assert tied and min(tied) <= res.t_f + slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(0.0, 0.95), _ANGLE, st.floats(0.0, 30.0), _ANGLE, _ANGLE,
    st.tuples(_COORD, _COORD, _ANGLE), st.integers(-3, 3),
)
def test_sample_reintegrates_to_its_rows(speed, bearing, reach, direction, theta_f, start, k):
    # The last row is the goal, and each row's pose flown with its control
    # up to the next row's time gives the next row's pose.
    rho = 2.0**k
    sc = Scenario(
        wind=_wind(speed, bearing),
        target_x=start[0] + reach * math.cos(direction),
        target_y=start[1] + reach * math.sin(direction),
        theta_f=theta_f,
        rho=rho,
        start=start,
    )
    res = plan(sc)
    if not res.feasible:
        return
    t_f = res.t_f
    rows = sample(res.best, t_f / 37, sc)
    last = rows[-1]
    assert last.t == t_f
    miss = math.hypot(last.x_inertial - sc.target_x, last.y_inertial - sc.target_y)
    assert miss <= sc.tol.residual_tol * (rho + t_f)
    assert ang_dist(last.theta, theta_f) <= sc.tol.feas_tol
    slack = 1e-9 * (1.0 + t_f + math.hypot(start[0], start[1]))
    for row, nxt in zip(rows, rows[1:]):
        x, y, th = propagate(row.x_rel, row.y_rel, row.theta, row.u, nxt.t - row.t, rho)
        assert math.hypot(x - nxt.x_rel, y - nxt.y_rel) <= slack
        assert ang_dist(th, nxt.theta) <= slack


def test_tolerances_in_turn_radii():
    # With tolerances taken as absolute lengths, 1e-3 of slack is a tenth of
    # a turn radius at rho = 0.01, and an LSL at 0.12*rho that does not reach
    # the goal passed as the optimum.
    rng = random.Random(11)
    for _ in range(28):
        sc = random_scenario(rng, w_max=0.9, span=10)
    rho = 0.01
    small = Scenario(
        wind=sc.wind,
        target_x=sc.target_x * rho,
        target_y=sc.target_y * rho,
        theta_f=sc.theta_f,
        rho=rho,
        tol=ToleranceSet(feas_tol=1e-3, residual_tol=1e-3),
    )
    result = plan(small)
    assert result.best.variant is Variant.RSR
    assert result.t_f / rho == pytest.approx(8.400357, abs=1e-6)


def test_plan_never_beats_brute_force():
    rng = random.Random(94)
    for _ in range(8):
        sc = random_scenario(rng, w_max=0.5)
        res = plan(sc)
        oracle = brute_force(sc)
        assert oracle is not None
        assert res.t_f >= oracle.time - 1e-6
        assert res.t_f <= oracle.time + ORACLE_TIME_BOUND


def test_interception_identity(case1):
    w = case1.wind.speed()
    for cand in plan(case1).all_candidates:
        report = validate(cand, case1)
        assert report.interception_error <= 1e-6 * (1 + cand.total_time)
        assert w > 0  # identity actually exercised
