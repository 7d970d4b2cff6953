import math
import random

import pytest

from windubins import (
    ControlSchedule,
    PathCandidate,
    Scenario,
    ToleranceSet,
    TrajectoryPoint,
    Variant,
    WindVector,
    normalize,
    sample,
)
from windubins.families import SegmentParams
from windubins.geometry import (
    HALF_PI,
    TWO_PI,
    RelativeState,
    ang_dist,
    integrate,
    mod2pi,
    propagate,
    state_at,
    target_relative,
)

from conftest import make_case1_rounded
from oracle import rk4_integrate

START = RelativeState(0.0, 0.0, HALF_PI)


def test_mod2pi_range_and_boundaries():
    assert mod2pi(0.0) == 0.0
    assert mod2pi(TWO_PI) == 0.0
    assert mod2pi(-1e-18) < TWO_PI  # tiny negatives must not wrap to 2*pi itself
    assert 0.0 <= mod2pi(-1e-18)
    for a in (-7.0, -0.1, 0.1, 3.0, 9.0, 100.0):
        assert 0.0 <= mod2pi(a) < TWO_PI


def test_relative_state_wraps_theta():
    s = RelativeState(1.0, 2.0, 3.0 * math.pi)
    assert abs(s.theta - math.pi) < 1e-15
    # every constructor path wraps: _make, and _replace through it
    assert RelativeState._make((1.0, 2.0, -HALF_PI)).theta == 1.5 * math.pi
    assert s._replace(theta=TWO_PI + 1.0).theta == pytest.approx(1.0, abs=1e-15)
    assert s._replace(x=5.0) == (5.0, 2.0, s.theta)


def test_wind_vector_rejects_fast_wind():
    with pytest.raises(ValueError):
        WindVector(1.0, 0.0)
    with pytest.raises(ValueError):
        WindVector(0.8, 0.7)
    w = WindVector(0.999, 0.0)  # strict inequality: this is fine
    with pytest.raises(ValueError, match="wind speed must be < 1"):
        w._replace(wy=0.1)
    with pytest.raises(ValueError, match="wind speed must be < 1"):
        WindVector._make((0.0, -1.0))


def test_wind_vector_below_zero_wind_eps_is_zero():
    for wx, wy in ((0.0, 1e-300), (1e-13, -1e-13), (-1e-160, 0.0), (5e-324, 5e-324)):
        w = WindVector(wx, wy)
        assert w == (0.0, 0.0) and math.copysign(1.0, w.wx) == math.copysign(1.0, w.wy) == 1.0
    assert WindVector(1e-12, 0.0) == (1e-12, 0.0)
    # an exact zero keeps its sign
    assert math.copysign(1.0, WindVector(-0.0, 0.0).wx) == -1.0


def test_tolerances_positive():
    default = ToleranceSet()
    for name in ("feas_tol", "residual_tol"):
        for value in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
                ToleranceSet(**{name: value})
            with pytest.raises(ValueError, match=name):
                default._replace(**{name: value})
            with pytest.raises(ValueError, match=name):
                ToleranceSet._make(value if f == name else 1e-6 for f in ToleranceSet._fields)
    assert default._replace(feas_tol=1e-3) == (1e-3, 1e-6)


def test_scenario_rejects_bad_rho():
    with pytest.raises(ValueError):
        Scenario(wind=WindVector(0, 0), target_x=1, target_y=0, theta_f=0, rho=0.0)
    with pytest.raises(ValueError):
        Scenario(wind=WindVector(0, 0), target_x=1, target_y=0, theta_f=0, rho=-2.0)
    scenario = Scenario(wind=WindVector(0, 0), target_x=1, target_y=0, theta_f=0, rho=1.0)
    with pytest.raises(ValueError, match="rho must be a positive finite length"):
        scenario._replace(rho=-1.0)
    with pytest.raises(ValueError, match="rho must be a positive finite length"):
        Scenario._make(scenario[:4] + (math.inf,) + scenario[5:])


def test_scenario_replace_and_make_clean_like_the_constructor():
    scenario = Scenario(wind=WindVector(0.1, 0), target_x=1, target_y=0, theta_f=0, rho=1.0)
    assert scenario.tol is Scenario(WindVector(0, 0), 2.0, 0.0, 1.0, 1.0).tol  # one shared default
    moved = scenario._replace(theta_f=-HALF_PI, start=(1, 2, 5.0 * math.pi))
    assert moved.theta_f == 1.5 * math.pi
    assert moved.start == (1.0, 2.0, pytest.approx(math.pi, abs=1e-15))
    assert type(moved.start[0]) is float
    assert Scenario._make(moved) == moved
    with pytest.raises(ValueError, match="turn radii"):
        scenario._replace(target_x=2e6)
    with pytest.raises(ValueError, match="theta_f must be finite"):
        scenario._replace(theta_f=math.nan)


def test_records_are_immutable():
    scenario = Scenario(wind=WindVector(0, 0), target_x=1, target_y=0, theta_f=0, rho=1.0)
    records = [
        (RelativeState(0.0, 0.0, 0.0), "theta"),
        (WindVector(0.1, 0.2), "wx"),
        (ToleranceSet(), "feas_tol"),
        (ControlSchedule(((0, 1.0),)), "pieces"),
        (scenario, "rho"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0  # no instance dict either


@pytest.mark.parametrize(
    "field, value",
    [("target_x", math.nan), ("target_y", math.inf), ("theta_f", -math.inf),
     ("start", (0.0, math.nan, 0.0)), ("start", (0.0, 0.0, math.inf))],
)
def test_scenario_rejects_nonfinite(field, value):
    kwargs = dict(wind=WindVector(0, 0), target_x=1.0, target_y=0.0, theta_f=0.0, rho=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match="must be finite"):
        Scenario(**kwargs)


def test_scenario_goal_range():
    # Supported up to 1e6 turn radii from the start, at any radius.
    Scenario(wind=WindVector(0, 0), target_x=0.0, target_y=0.99e6 * 0.01, theta_f=0, rho=0.01)
    Scenario(wind=WindVector(0, 0), target_x=1e6, target_y=5.0, theta_f=0, rho=1.0, start=(1.0, 5.0, 0.0))
    for x in (1.01e6, 1e160, 1e300):
        with pytest.raises(ValueError, match="turn radii"):
            Scenario(wind=WindVector(0, 0), target_x=x, target_y=0.0, theta_f=0, rho=1.0)


def test_control_schedule_validation():
    with pytest.raises(ValueError):
        ControlSchedule(((2, 1.0),))
    with pytest.raises(ValueError):
        ControlSchedule(((1, -0.5),))
    sched = ControlSchedule(((0, 1.0), (1, 2.0), (-1, 0.5)))
    with pytest.raises(ValueError, match="control value must be -1, 0 or \\+1, got 2"):
        sched._replace(pieces=((2, 1.0),))
    with pytest.raises(ValueError, match="piece duration must be finite and >= 0, got inf"):
        ControlSchedule._make([((1, math.inf),)])
    assert ControlSchedule._make([[(True, 1)]]).pieces == ((1, 1.0),)  # cleaned on every path
    assert type(sched._replace(pieces=[(-1.0, 2)]).pieces[0][0]) is int
    assert sched.total_duration == pytest.approx(3.5, abs=0)
    rows = state_at(START, sched, 1.0, [0.5, 1.0, 3.0, 3.5, 4.0])
    assert [r[3] for r in rows] == [0, 1, -1, -1, -1]  # a boundary takes the next control
    assert rows[1][:3] == pytest.approx((0.0, 1.0, HALF_PI), abs=1e-15)  # and the earlier pose
    assert rows[4] == rows[3]  # past the end: the end pose


def _state_at_one(start, schedule, rho, t):
    """Reference: pose at time t walked from t = 0, and the control active on
    [t, next switch), both computed on their own for this one time."""
    x, y, th = start.x, start.y, start.theta
    remaining = t
    for u, dur in schedule.pieces:
        if remaining <= dur:
            x, y, th = propagate(x, y, th, u, remaining, rho)
            break
        x, y, th = propagate(x, y, th, u, dur, rho)
        remaining -= dur
    acc, control = 0.0, schedule.pieces[-1][0]
    for u, dur in schedule.pieces:
        acc += dur
        if t < acc:
            control = u
            break
    return (x, y, mod2pi(th), control)


def test_integrate_is_the_propagate_chain_bit_for_bit():
    # integrate carries each piece's sine and cosine into the next piece; it
    # must give exactly what propagating piece by piece gives, with lines,
    # zero-duration pieces and any turn radius.
    rng = random.Random(22)
    for _ in range(500):
        pieces = tuple(
            (rng.choice((-1, 0, 1)), rng.choice((0.0, rng.uniform(0.0, 5.0))))
            for _ in range(rng.randint(1, 4))
        )
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        start = RelativeState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        x, y, th = start
        for u, dur in pieces:
            x, y, th = propagate(x, y, th, u, dur, rho)
        assert integrate(start, ControlSchedule(pieces), rho) == RelativeState(x, y, th)


def test_state_at_matches_per_time_walk():
    # One walk of the schedule must give bit for bit what walking it from
    # t = 0 for every time gives, at switch times and past the end too.
    rng = random.Random(17)
    for _ in range(200):
        pieces = tuple(
            (rng.choice((-1, 0, 1)), rng.choice((0.0, rng.uniform(0.0, 5.0))))
            for _ in range(rng.randint(1, 3))
        )
        sched = ControlSchedule(pieces)
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        start = RelativeState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        acc, switches = 0.0, []
        for _, dur in pieces:
            acc += dur
            switches.append(acc)
        total = sched.total_duration
        times = sorted(
            [rng.uniform(0.0, total) for _ in range(20)] + switches + [0.0, total, total + 1.0]
        )
        expected = [_state_at_one(start, sched, rho, t) for t in times]
        assert state_at(start, sched, rho, times) == expected


def _adversarial_schedule(rng):
    """Pieces where the walk can slip: zero-length runs and durations down to
    1e-12, beside ordinary ones."""
    pieces = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.25:
            pieces += [(rng.choice((-1, 0, 1)), 0.0)] * rng.randint(1, 3)
        elif kind < 0.5:
            pieces.append((rng.choice((-1, 0, 1)), 10.0 ** rng.uniform(-12.0, 0.0)))
        else:
            pieces.append((rng.choice((-1, 0, 1)), rng.uniform(0.0, 5.0)))
    return ControlSchedule(tuple(pieces))


def test_state_at_matches_per_time_walk_at_the_edges():
    # The cursor must agree bit for bit with the per-time walk where piece
    # selection is closest: at each switch time and 1 ulp either side of it,
    # on consecutive zero-length pieces and durations down to 1e-12, past
    # the end, and on no times at all.
    assert state_at(START, ControlSchedule(()), 1.0, [0.0, 1.0]) == [(0.0, 0.0, HALF_PI, 0)] * 2
    rng = random.Random(25)
    for _ in range(400):
        sched = _adversarial_schedule(rng)
        rho = rng.choice((0.5, 1.0, 2.5, 10.0 ** rng.uniform(-3.0, 3.0)))
        start = RelativeState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        assert state_at(start, sched, rho, []) == []
        acc, times = 0.0, [0.0]
        for _, dur in sched.pieces:
            acc += dur
            times += [math.nextafter(acc, 0.0), acc, math.nextafter(acc, math.inf)]
        total = sched.total_duration
        times += [rng.uniform(0.0, total) for _ in range(10)]
        times += [total, math.nextafter(total, math.inf), total + 1e-12, total + 1.0]
        times.sort()
        expected = [_state_at_one(start, sched, rho, t) for t in times]
        assert state_at(start, sched, rho, times) == expected
    # Past the end by the walk's subtractions, yet before the running sum of
    # the first three durations: the control is the third piece's, not the last.
    sched = ControlSchedule(
        ((1, 0.6758128991454659), (0, 2.0), (-1, 7.615846991095876e-07), (1, 1e-16))
    )
    t = 2.675813660730165
    assert state_at(START, sched, 1.0, [t]) == [_state_at_one(START, sched, 1.0, t)]
    assert state_at(START, sched, 1.0, [t])[0][3] == -1


def test_sample_rows_match_a_per_row_walk():
    # Every row of sample, rebuilt on its own: the pose walked from t = 0 in
    # the planning frame, then mapped to the caller's frame as ``normalize``
    # is undone, bit for bit, from posed starts at rho != 1.
    rng = random.Random(26)
    for rho in (0.5, 2.5):
        for _ in range(40):
            start = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
            sc = Scenario(
                wind=WindVector(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)),
                target_x=start[0] + rng.uniform(-8, 8) * rho,
                target_y=start[1] + rng.uniform(-8, 8) * rho,
                theta_f=rng.uniform(0, TWO_PI),
                rho=rho,
                start=start,
            )
            sched = _adversarial_schedule(rng)
            total = sched.total_duration
            if total == 0.0:  # sample needs a positive step
                continue
            cand = PathCandidate(Variant.LSL, SegmentParams(), total, sched, 0.0)
            rows = sample(cand, total / rng.uniform(3.0, 60.0), sc)
            angle = HALF_PI - sc.start[2]
            c, s = math.cos(angle), math.sin(angle)
            wx, wy = sc.wind
            for row in rows:
                x, y, th, u = _state_at_one(START, sched, rho, row.t)
                xw, yw = c * x + s * y + start[0], -s * x + c * y + start[1]
                assert type(row) is TrajectoryPoint
                want = (row.t, xw, yw, mod2pi(th - angle), u, xw + row.t * wx, yw + row.t * wy)
                assert row == want


def test_integrate_straight_segment():
    end = integrate(START, ControlSchedule(((0, 2.0),)), 1.0)
    assert abs(end.x) < 1e-15
    assert end.y == pytest.approx(2.0, abs=1e-15)
    assert end.theta == pytest.approx(HALF_PI, abs=0)


def test_integrate_full_clockwise_circle_returns_to_start():
    end = integrate(START, ControlSchedule(((-1, TWO_PI),)), 1.0)
    assert math.hypot(end.x, end.y) < 1e-14
    assert ang_dist(end.theta, HALF_PI) < 1e-14


def test_integrate_quarter_counterclockwise_arc():
    end = integrate(START, ControlSchedule(((1, HALF_PI),)), 1.0)
    assert end.x == pytest.approx(-1.0, abs=1e-15)
    assert end.y == pytest.approx(1.0, abs=1e-15)
    assert end.theta == pytest.approx(math.pi, abs=1e-15)


def test_integrate_arc_stays_on_circle_with_exact_heading():
    # Single arcs must land on the circle about the known centre, with the
    # heading change equal to the traversed radians.
    rng = random.Random(4)
    for _ in range(50):
        rho = rng.uniform(0.2, 5.0)
        u = rng.choice((-1, 1))
        dur = rng.uniform(0.0, 2.0 * TWO_PI) * rho
        start = RelativeState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        cx = start.x - u * rho * math.sin(start.theta)
        cy = start.y + u * rho * math.cos(start.theta)
        end = integrate(start, ControlSchedule(((u, dur),)), rho)
        assert math.hypot(end.x - cx, end.y - cy) == pytest.approx(rho, abs=1e-12)
        assert ang_dist(end.theta, start.theta + u * dur / rho) < 1e-12


def test_integrate_matches_rk4():
    rng = random.Random(11)
    for _ in range(20):
        rho = rng.uniform(0.5, 2.0)
        pieces = tuple(
            (rng.choice((-1, 0, 1)), rng.uniform(0.0, TWO_PI)) for _ in range(3)
        )
        sched = ControlSchedule(pieces)
        exact = integrate(START, sched, rho)
        approx = rk4_integrate(START, sched, rho, step=1e-3)
        assert math.hypot(exact.x - approx.x, exact.y - approx.y) < 1e-9
        assert ang_dist(exact.theta, approx.theta) < 1e-9


def test_integrate_composition():
    rng = random.Random(5)
    for _ in range(40):
        rho = rng.uniform(0.3, 3.0)
        a = tuple((rng.choice((-1, 0, 1)), rng.uniform(0, 5)) for _ in range(2))
        b = tuple((rng.choice((-1, 0, 1)), rng.uniform(0, 5)) for _ in range(2))
        whole = integrate(START, ControlSchedule(a + b), rho)
        parts = integrate(integrate(START, ControlSchedule(a), rho), ControlSchedule(b), rho)
        # The intermediate state wraps its heading, which can move trig inputs
        # by one period; positions agree to roundoff, not bit-for-bit.
        assert math.hypot(whole.x - parts.x, whole.y - parts.y) < 1e-12
        assert ang_dist(whole.theta, parts.theta) < 1e-12


def test_integrate_composition_exact_without_wrap():
    # When no heading wrap occurs the two evaluation orders are identical.
    rho = 1.0
    a = ((1, 0.4), (0, 1.0))
    b = ((-1, 0.3), (0, 0.7))
    whole = integrate(START, ControlSchedule(a + b), rho)
    parts = integrate(integrate(START, ControlSchedule(a), rho), ControlSchedule(b), rho)
    assert whole == parts


def test_target_relative_examples():
    sc = make_case1_rounded()
    assert target_relative(sc, 0.0) == (5.0, -2.0)
    still = Scenario(wind=WindVector(0, 0), target_x=3.0, target_y=4.0, theta_f=0.0, rho=1.0)
    assert target_relative(still, 100.0) == (3.0, 4.0)
    moving = Scenario(wind=WindVector(0.0, -0.5), target_x=0.0, target_y=1.0, theta_f=0.0, rho=1.0)
    assert target_relative(moving, 2.0) == (0.0, 2.0)


def test_normalize_identity():
    sc = make_case1_rounded()
    assert normalize(sc) is sc


def test_normalize_pure_translation():
    sc = Scenario(
        wind=WindVector(0.1, 0.0),
        target_x=3.0,
        target_y=0.0,
        theta_f=HALF_PI,
        rho=1.0,
        start=(1.0, 0.0, HALF_PI),
    )
    norm = normalize(sc)
    assert norm.target == (2.0, 0.0)
    assert (norm.wind.wx, norm.wind.wy) == (0.1, 0.0)
    assert norm.theta_f == HALF_PI
    assert norm.start == (0.0, 0.0, HALF_PI)


def test_normalize_rotation():
    sc = Scenario(
        wind=WindVector(0.2, 0.0),
        target_x=5.0,
        target_y=0.0,
        theta_f=0.0,
        rho=1.0,
        start=(0.0, 0.0, 0.0),
    )
    norm = normalize(sc)
    assert norm.start == (0.0, 0.0, HALF_PI)
    assert norm.wind.wx == pytest.approx(0.0, abs=1e-15)
    assert norm.wind.wy == pytest.approx(0.2, abs=1e-15)
    assert norm.target_x == pytest.approx(0.0, abs=1e-15)
    assert norm.target_y == pytest.approx(5.0, abs=1e-15)
    assert norm.theta_f == pytest.approx(HALF_PI, abs=1e-15)


def test_normalize_keeps_a_valid_wind_valid():
    # Winds within a few ulps of |w| = 1 from any start heading: the turn to
    # the start frame can round |w|^2 up to 1.0 (for about a sixth of them),
    # and normalize must still return a scenario.
    rng = random.Random(22)
    for _ in range(3000):
        speed = 1.0 - rng.randint(1, 4) * 2.0**-53
        bearing = rng.uniform(0, TWO_PI)
        wx, wy = speed * math.cos(bearing), speed * math.sin(bearing)
        if not wx * wx + wy * wy < 1.0:
            continue
        sc = Scenario(
            wind=WindVector(wx, wy), target_x=3.0, target_y=1.0, theta_f=1.0, rho=1.0,
            start=(0.0, 0.0, rng.uniform(0, TWO_PI)),
        )
        norm = normalize(sc).wind
        assert norm.wx * norm.wx + norm.wy * norm.wy < 1.0
        assert math.hypot(*norm) == pytest.approx(math.hypot(wx, wy), abs=1e-15)


def test_normalize_round_trip_against_original_frame():
    # Propagating in the normalized frame and mapping back, as sample does,
    # must agree with propagating directly from the original start pose.
    rng = random.Random(21)
    for _ in range(30):
        start = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        sc = Scenario(
            wind=WindVector(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            target_x=rng.uniform(-8, 8),
            target_y=rng.uniform(-8, 8),
            theta_f=rng.uniform(0, TWO_PI),
            rho=rng.uniform(0.5, 2.0),
            start=start,
        )
        norm = normalize(sc)
        sched = ControlSchedule(
            tuple((rng.choice((-1, 0, 1)), rng.uniform(0, 4)) for _ in range(3))
        )
        cand = PathCandidate(Variant.LSL, SegmentParams(), sched.total_duration, sched, 0.0)
        back = sample(cand, cand.total_time, sc)[-1]
        end_orig = integrate(RelativeState(*start), sched, sc.rho)
        assert math.hypot(back.x_rel - end_orig.x, back.y_rel - end_orig.y) < 1e-12
        assert ang_dist(back.theta, end_orig.theta) < 1e-12
        # Target track commutes with the map at every time: the map turns
        # the frame by pi/2 - start heading about the start point.
        angle = HALF_PI - sc.start[2]
        c, s = math.cos(angle), math.sin(angle)
        for t in (0.0, 1.7, 5.2):
            ox, oy = target_relative(sc, t)
            nx, ny = target_relative(norm, t)
            dx, dy = ox - start[0], oy - start[1]
            lx, ly = c * dx - s * dy, s * dx + c * dy
            assert math.hypot(lx - nx, ly - ny) < 1e-12
