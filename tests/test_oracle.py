import math
import random

import pytest

from windubins import ControlSchedule, Scenario, WindVector, plan
from windubins.geometry import HALF_PI, TWO_PI, RelativeState, ang_dist, integrate

from oracle import (
    GridSpec,
    ORACLE_TIME_BOUND,
    brute_force,
    classical_dubins,
    rk4_integrate,
)

START = RelativeState(0.0, 0.0, HALF_PI)


def test_rk4_straight_piece():
    end = rk4_integrate(START, ControlSchedule(((0, 2.0),)), 1.0, step=1e-3)
    assert abs(end.x) < 1e-12
    assert end.y == pytest.approx(2.0, abs=1e-12)


def test_rk4_full_circle():
    end = rk4_integrate(START, ControlSchedule(((1, TWO_PI),)), 1.0, step=1e-3)
    assert math.hypot(end.x, end.y) < 1e-9
    assert ang_dist(end.theta, HALF_PI) < 1e-9


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_integrate(START, ControlSchedule(((0, 1.0),)), 1.0, step=0.0)


def test_rk4_agrees_with_closed_form_bulk():
    # Fine-step agreement across many random three-piece schedules; the
    # closed-form propagation is the production path, this is its check.
    rng = random.Random(55)
    worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(0.5, 2.0)
        sched = ControlSchedule(
            tuple((rng.choice((-1, 0, 1)), rng.uniform(0.0, TWO_PI)) for _ in range(3))
        )
        exact = integrate(START, sched, rho)
        approx = rk4_integrate(START, sched, rho, step=1e-4)
        err = math.hypot(exact.x - approx.x, exact.y - approx.y)
        worst = max(worst, err, ang_dist(exact.theta, approx.theta))
    assert worst < 1e-8


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(angle_res=0.0)
    with pytest.raises(ValueError):
        GridSpec(depth=0)


def test_brute_force_straight_line():
    sc = Scenario(wind=WindVector(0, 0), target_x=0.0, target_y=10.0,
                  theta_f=HALF_PI, rho=1.0)
    result = brute_force(sc)
    assert result is not None
    assert result.time == pytest.approx(10.0, abs=1e-6)


def test_brute_force_case1(case1):
    result = brute_force(case1)
    assert result is not None
    assert result.label == "LSL"
    assert result.time == pytest.approx(7.5294, abs=ORACLE_TIME_BOUND)


def test_classical_dubins_straight_ahead():
    assert classical_dubins((0, 0, 0.3), (10 * math.cos(0.3), 10 * math.sin(0.3), 0.3), 1.0) == pytest.approx(10.0, abs=1e-9)


def test_classical_dubins_same_pose():
    assert classical_dubins((1.0, 2.0, 0.7), (1.0, 2.0, 0.7), 1.0) == 0.0


def test_classical_dubins_matches_brute_force_at_four_radii():
    sc = Scenario(wind=WindVector(0, 0), target_x=4.0, target_y=0.0,
                  theta_f=0.0, rho=1.0)
    oracle = brute_force(sc)
    length = classical_dubins((0.0, 0.0, HALF_PI), (4.0, 0.0, 0.0), 1.0)
    assert oracle is not None
    assert length == pytest.approx(oracle.time, abs=ORACLE_TIME_BOUND)


def test_classical_dubins_cross_checks_far_goals():
    rng = random.Random(56)
    for _ in range(6):
        ang = rng.uniform(0, TWO_PI)
        dist = rng.uniform(4.5, 9.0)
        goal = (dist * math.cos(ang), dist * math.sin(ang), rng.uniform(0, TWO_PI))
        sc = Scenario(wind=WindVector(0, 0), target_x=goal[0], target_y=goal[1],
                      theta_f=goal[2], rho=1.0)
        oracle = brute_force(sc)
        length = classical_dubins((0.0, 0.0, HALF_PI), goal, 1.0)
        assert oracle is not None
        assert length == pytest.approx(oracle.time, abs=ORACLE_TIME_BOUND)


def test_classical_dubins_agrees_with_planner_zero_wind():
    rng = random.Random(57)
    for _ in range(10):
        ang = rng.uniform(0, TWO_PI)
        dist = rng.uniform(4.01, 10.0)
        goal = (dist * math.cos(ang), dist * math.sin(ang), rng.uniform(0, TWO_PI))
        sc = Scenario(wind=WindVector(0, 0), target_x=goal[0], target_y=goal[1],
                      theta_f=goal[2], rho=1.0)
        result = plan(sc)
        length = classical_dubins((0.0, 0.0, HALF_PI), goal, 1.0)
        assert result.t_f == pytest.approx(length, abs=1e-9)
