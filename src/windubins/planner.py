"""Global minimum-time planning: run all four family solvers, validate every
candidate, take the global minimum, and map results back to the caller's frame.

The minimum over the four family times is the global optimum; absence of any
feasible candidate is reported as such rather than papered over.  Ties within
``_TIE_EPS`` turn radii resolve deterministically by family/variant enum
order.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from typing import NamedTuple

from .families import Family, PathCandidate, _misses, solve_all
from .geometry import DEFAULT_START, HALF_PI, Scenario, _Record, mod2pi, normalize, state_at

#: Times this close, in turn radii, tie: above the rounding of one path's time
#: found by two variants (1e-15 at t ~ 10), below the 1e-9 that t_f is held to.
_TIE_EPS = 1e-12
#: Row ceiling of ``sample``: a step that would give more rows is rejected.
MAX_SAMPLE_ROWS = 10**6


class ValidationReport(
    _Record,
    namedtuple("ValidationReport", "position_error heading_error interception_error feasible"),
):
    """Residuals of one candidate against its scenario's terminal conditions."""

    __slots__ = ()


class PlanResult(
    _Record, namedtuple("PlanResult", "best all_candidates t_f per_family_times wall_time")
):
    """Outcome of one planning call.

    ``best`` (a ``PathCandidate``) is None, and ``t_f`` infinite, when no
    feasible candidate exists.  ``all_candidates`` holds every feasible
    candidate, fastest first.  ``per_family_times`` maps every ``Family`` to
    its fastest candidate time, with +inf marking families that produced
    nothing.
    """

    __slots__ = ()

    @property
    def feasible(self) -> bool:
        return self.best is not None


class TrajectoryPoint(NamedTuple):
    t: float
    x_rel: float
    y_rel: float
    theta: float
    u: int
    x_inertial: float
    y_inertial: float


def validate(candidate: PathCandidate, scenario: Scenario) -> ValidationReport:
    """Forward-integrate a candidate exactly and report its terminal residuals.

    Position is compared against the moving target at the candidate's total
    time; the misses and their acceptance are those of ``families._accept``.
    The interception identity (travel time equals the target's arrival time
    at the endpoint) is reported separately, and equals the position residual
    for zero wind; it needs no check of its own, because by the triangle
    inequality it never exceeds the position residual.
    """
    norm = normalize(scenario)
    total = candidate.total_time
    end, pos_err, head_err = _misses(norm, candidate.schedule, total, norm.rho)
    dist = math.hypot(end.x - norm.target_x, end.y - norm.target_y)
    icpt_err = abs(dist - total * norm.wind.speed())
    feasible = norm.tol.accepts(total, pos_err, head_err, norm.rho)
    return ValidationReport(pos_err, head_err, icpt_err, feasible)


def plan(scenario: Scenario) -> PlanResult:
    """Compute the globally minimum-time path for a scenario.

    Invalid inputs (wind at or above vehicle speed, non-positive radius) raise
    ValueError at Scenario construction.
    """
    t0 = time.perf_counter()
    norm = normalize(scenario)
    candidates = solve_all(norm)
    tie = _TIE_EPS * norm.rho
    ordered = tuple(
        sorted(candidates, key=lambda c: (c.total_time, c.variant.order))
    )
    best = ordered[0] if ordered else None
    for cand in ordered[1:]:  # never faster than best: ordered is sorted by time
        if cand.total_time - best.total_time <= tie and cand.variant.order < best.variant.order:
            best = cand
    per_family = {family: math.inf for family in Family}
    for cand in ordered:
        fam = cand.variant.family
        per_family[fam] = min(per_family[fam], cand.total_time)

    return PlanResult(
        best=best,
        all_candidates=ordered,
        t_f=best.total_time if best is not None else math.inf,
        per_family_times=per_family,
        wall_time=time.perf_counter() - t0,
    )


def sample(candidate: PathCandidate, dt: float, scenario: Scenario) -> list[TrajectoryPoint]:
    """Tabulate a candidate path at t = 0, dt, 2*dt, ... plus every control
    switch time, ending exactly at the total time.

    Rows carry the air-relative pose (in the caller's frame) and the inertial
    position; the control column holds the control active on [t_k, t_{k+1}),
    so re-integrating it row by row reproduces the pose columns to rounding.
    Raises ValueError when dt is not positive and finite, or when it would
    give more than ``MAX_SAMPLE_ROWS`` rows.
    """
    total = candidate.total_time
    if not 0.0 < dt < math.inf:
        raise ValueError(f"sample step must be positive and finite, got {dt}")
    if not total / dt <= MAX_SAMPLE_ROWS:
        raise ValueError(
            f"sample step {dt:g} gives {total / dt:.3g} rows over t_f={total:g};"
            f" at most {MAX_SAMPLE_ROWS} are supported"
        )
    schedule = candidate.schedule
    times = [k * dt for k in range(int(total / dt) + 1)]
    switch, end = 0.0, schedule.total_duration
    for _, dur in schedule.pieces[:-1]:
        switch += dur
        if 0.0 < switch < end:
            times.append(switch)
    times.append(total)
    times.sort()
    eps = 1e-12 * max(1.0, total)  # over a switch time's rounding, under dt if total > 1e-6
    merged: list[float] = []
    for t in times:
        if not merged or t - merged[-1] > eps:
            merged.append(t)
    # total is in ``times`` and no time exceeds it by more than rounding, so
    # the last merged time is total or within eps of it.
    merged[-1] = total

    # Back to the caller's frame: undo ``normalize``, a turn by angle about
    # the start point, by rotating by -angle and translating by the start.
    ox, oy, sth = scenario.start
    angle = HALF_PI - sth
    c, s = math.cos(angle), math.sin(angle)
    wx, wy = scenario.wind.wx, scenario.wind.wy
    rows = []
    for t, (x, y, th, u) in zip(merged, state_at(DEFAULT_START, schedule, scenario.rho, merged)):
        xw, yw = c * x + s * y + ox, -s * x + c * y + oy
        rows.append(TrajectoryPoint(t, xw, yw, mod2pi(th - angle), u, xw + t * wx, yw + t * wy))
    return rows
