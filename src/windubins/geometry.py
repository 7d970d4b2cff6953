"""Frames, kinematic state, and exact propagation for a unit-speed Dubins vehicle.

All planning happens in the air-relative frame: an inertial frame that drifts
with the wind.  In it the vehicle obeys wind-free Dubins kinematics

    x' = cos(theta),  y' = sin(theta),  theta' = u / rho,   u in {-1, 0, +1}

and the goal becomes a virtual target that starts at the goal's inertial
position and moves with velocity -wind.  Interception at time t therefore
means ending at ``target - t * wind`` with the requested heading.

Everything here is a pure function of its inputs; states and scenarios are
immutable once constructed.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Slower winds are still air (``WindVector`` maps them to (0, 0)): far above
#: 1e-154, where w^2 underflows, and their drift w*t is 1e-6 of residual_tol*t.
ZERO_WIND_EPS = 1e-12

#: Farthest supported goal, in turn radii from the start (see ``Scenario``).
MAX_GOAL_RANGE = 1e6


def mod2pi(angle: float) -> float:
    """Wrap an angle into [0, 2*pi).  Guards against the float-mod artifact
    where a tiny negative input wraps to exactly 2*pi."""
    r = angle % TWO_PI
    return 0.0 if r >= TWO_PI else r


def ang_dist(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in [0, pi]."""
    d = mod2pi(a - b)
    return min(d, TWO_PI - d)


class _Record:
    """Base of the tuple-backed records, each a namedtuple subclass.  A record
    checks its fields in ``__new__``; namedtuple's own ``_make``, and
    ``_replace`` through it, would skip that check."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class RelativeState(_Record, namedtuple("RelativeState", "x y theta")):
    """Planar pose in the air-relative frame; heading normalized to [0, 2*pi)."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, theta: float):
        return tuple.__new__(cls, (x, y, mod2pi(theta)))


class WindVector(_Record, namedtuple("WindVector", "wx wy")):
    """Steady wind, normalized by vehicle airspeed.  Must satisfy |w| < 1.

    A non-zero wind slower than ``ZERO_WIND_EPS`` becomes (0, 0): the root
    equations of so slow a wind carry coefficients whose squares underflow.
    """

    __slots__ = ()

    def __new__(cls, wx: float, wy: float):
        ww = wx * wx + wy * wy
        if not ww < 1.0:
            raise ValueError(
                f"wind speed must be < 1 vehicle speed, got |w|={math.hypot(wx, wy):.6g}"
            )
        if ww < ZERO_WIND_EPS * ZERO_WIND_EPS and (wx or wy):
            wx = wy = 0.0
        return tuple.__new__(cls, (wx, wy))

    def speed(self) -> float:
        return math.hypot(self.wx, self.wy)


class ToleranceSet(_Record, namedtuple("ToleranceSet", "feas_tol residual_tol")):
    """Numerical tolerances used throughout the planner.

    Lengths are in turn radii, so a scenario and its copy with goal and rho
    multiplied by one factor accept the same candidates.

    feas_tol        the one bound on the heading error of a candidate, in
                    radians; see ``accepts``.  The root level does not read
                    it: its equalities use the fixed ``rootfind._SLACK``.
    residual_tol    the one bound on the endpoint miss, in every family: a
                    candidate of total time t may miss the moving target by
                    at most residual_tol*(rho + t); see ``accepts``
    """

    __slots__ = ()

    def __new__(cls, feas_tol: float = 1e-6, residual_tol: float = 1e-6):
        values = (feas_tol, residual_tol)
        for name, value in zip(cls._fields, values):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        return tuple.__new__(cls, values)

    def accepts(self, total: float, residual: float, heading_error: float, rho: float) -> bool:
        """The acceptance check of a candidate of total time ``total`` whose
        endpoint misses the moving target by ``residual`` and the goal
        heading by ``heading_error``, at turn radius ``rho``."""
        return (
            0.0 < total < math.inf
            and residual <= self.residual_tol * (rho + total)
            and heading_error <= self.feas_tol
        )


class ControlSchedule(_Record, namedtuple("ControlSchedule", "pieces")):
    """Piecewise-constant control: ordered (u, duration) pieces, u in {-1, 0, +1}."""

    __slots__ = ()

    def __new__(cls, pieces: tuple[tuple[int, float], ...]):
        clean = []
        for u, dur in pieces:
            if u not in (-1, 0, 1):
                raise ValueError(f"control value must be -1, 0 or +1, got {u}")
            if not (dur >= 0.0 and math.isfinite(dur)):
                raise ValueError(f"piece duration must be finite and >= 0, got {dur}")
            clean.append((int(u), float(dur)))
        return tuple.__new__(cls, (tuple(clean),))

    @property
    def total_duration(self) -> float:
        return math.fsum(dur for _, dur in self.pieces)


#: the canonical start pose: the frame the planning formulas work in
DEFAULT_START = RelativeState(0.0, 0.0, HALF_PI)
#: the tolerances of a scenario built without any; records are immutable, so
#: every such scenario shares this one
DEFAULT_TOLERANCES = ToleranceSet()


class Scenario(_Record, namedtuple("Scenario", "wind target_x target_y theta_f rho start tol")):
    """One planning problem: wind, inertial goal pose, turn radius, tolerances.

    ``start`` is the inertial start pose; the default matches the canonical
    frame where planning formulas apply directly.  ``normalize`` reduces any
    other start to it.

    ``wind`` must be a ``WindVector`` and ``tol`` a ``ToleranceSet``.  Every
    value must be finite, and the goal must lie within ``MAX_GOAL_RANGE``
    turn radii of the start.  The families solve for the goal in turn radii,
    whatever rho is, so the bound is on that ratio: the acceptance slack
    residual_tol*(rho + t_f) grows with the path time, and with the default
    residual_tol it reaches a turn radius at a goal about 1e6 turn radii
    away, where the check no longer resolves the turns.  (The root
    equations' coefficients grow with the square of that distance, the CCC
    constant term being m^2 + n^2, and would overflow near 1e154.)
    """

    __slots__ = ()

    def __new__(
        cls,
        wind: WindVector,
        target_x: float,
        target_y: float,
        theta_f: float,
        rho: float,
        start: tuple[float, float, float] = DEFAULT_START,
        tol: ToleranceSet = DEFAULT_TOLERANCES,
    ):
        for name, value, kind in (("wind", wind, WindVector), ("tol", tol, ToleranceSet)):
            if not isinstance(value, kind):  # a bare tuple skips the record's own checks
                raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        if not (rho > 0.0 and math.isfinite(rho)):
            raise ValueError(f"rho must be a positive finite length, got {rho}")
        # Durations scaled by a subnormal rho lose their significant bits, and
        # ``planner.validate`` divides them by rho again.
        if rho < sys.float_info.min:
            raise ValueError(f"rho must not be subnormal (below {sys.float_info.min:g}), got {rho}")
        sx, sy, sth = start
        for name, value in (
            ("target_x", target_x),
            ("target_y", target_y),
            ("theta_f", theta_f),
            ("start x", sx),
            ("start y", sy),
            ("start heading", sth),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        reach = math.hypot(target_x - sx, target_y - sy) / rho
        if not reach <= MAX_GOAL_RANGE:
            raise ValueError(
                f"goal is {reach:.3g} turn radii from the start;"
                f" at most {MAX_GOAL_RANGE:g} are supported"
            )
        start = (float(sx), float(sy), mod2pi(sth))
        return tuple.__new__(cls, (wind, target_x, target_y, mod2pi(theta_f), rho, start, tol))

    @property
    def target(self) -> tuple[float, float]:
        return (self.target_x, self.target_y)


def normalize(scenario: Scenario) -> Scenario:
    """Re-express a scenario so the start pose is exactly (0, 0, pi/2).

    The frame turns by pi/2 minus the start heading about the start point:
    the target translates and rotates, the wind (a free vector) only rotates.
    ``planner.sample`` maps a planned path back with the inverse map, read
    from the original scenario's start.
    """
    if scenario.start == DEFAULT_START:
        return scenario
    sx, sy, sth = scenario.start
    angle = HALF_PI - sth
    c, s = math.cos(angle), math.sin(angle)
    wx, wy = scenario.wind
    wx, wy = c * wx - s * wy, s * wx + c * wy
    while not wx * wx + wy * wy < 1.0:  # rounding lifted a valid |w| to 1
        wx, wy = math.nextafter(wx, 0.0), math.nextafter(wy, 0.0)
    dx, dy = scenario.target_x - sx, scenario.target_y - sy
    return Scenario(
        wind=WindVector(wx, wy),
        target_x=c * dx - s * dy,
        target_y=s * dx + c * dy,
        theta_f=mod2pi(scenario.theta_f + angle),
        rho=scenario.rho,
        start=DEFAULT_START,
        tol=scenario.tol,
    )


def propagate(
    x: float, y: float, theta: float, u: int, duration: float, rho: float
) -> tuple[float, float, float]:
    """Exact endpoint of one constant-control piece (arc or line).  The heading
    is returned unwrapped so that successive pieces compose exactly."""
    if duration == 0.0:
        return (x, y, theta)
    if u == 0:
        return (x + duration * math.cos(theta), y + duration * math.sin(theta), theta)
    cx = x - u * rho * math.sin(theta)
    cy = y + u * rho * math.cos(theta)
    theta2 = theta + u * duration / rho
    return (cx + u * rho * math.sin(theta2), cy - u * rho * math.cos(theta2), theta2)


def integrate(start: RelativeState, schedule: ControlSchedule, rho: float) -> RelativeState:
    """Closed-form endpoint of a piecewise arc/line path.  No ODE stepping:
    each piece is propagated exactly, as ``propagate`` does bit for bit, and
    carries its heading's sine and cosine into the next piece."""
    x, y, th = start.x, start.y, start.theta
    s, c = math.sin(th), math.cos(th)
    for u, dur in schedule.pieces:
        if u and dur:
            cx, cy = x - u * rho * s, y + u * rho * c
            th = th + u * dur / rho
            s, c = math.sin(th), math.cos(th)
            x, y = cx + u * rho * s, cy - u * rho * c
        elif dur:
            x, y = x + dur * c, y + dur * s
    return RelativeState(x, y, th)


def state_at(
    start: RelativeState, schedule: ControlSchedule, rho: float, times: list[float]
) -> list[tuple[float, float, float, int]]:
    """Pose and control at each of ``times``, which must be ascending, along
    a schedule, in one walk: each piece's start pose and arc centre (or
    heading cosine and sine) are computed once, and a time inside the piece
    takes ``propagate``'s formula from there, bit for bit.  Time t is inside
    piece i when t - d0 - ... - d(i-1), subtracted in that order, is at most
    d(i).  A time past the end takes the end pose.  The heading is wrapped to
    [0, 2*pi).  The control is the one active on [t, next switch): at a switch
    time the pose ends the earlier piece and the control starts the next one,
    and past the end it is the last piece's."""
    pieces = schedule.pieces or ((0, 0.0),)  # no pieces: the start pose throughout
    last, j = len(pieces) - 1, 0
    ctl, switch = pieces[0]  # the control's piece j, its u and its end time
    x, y, th = start.x, start.y, start.theta
    rows, before = [], []  # before: the durations of the pieces passed
    for i, (u, dur) in enumerate(pieces):
        c, s, wrapped, ur = math.cos(th), math.sin(th), mod2pi(th), u * rho
        cx, cy = x - ur * s, y + ur * c  # propagate's arc centre
        for t in times[len(rows):]:  # the piece never goes back along ascending times
            remaining = t
            for d in before:
                remaining -= d
            if not remaining <= dur:
                if i < last:
                    break
                remaining = dur  # past the end: the end of the last piece
            while not t < switch and j < last:  # the first piece to end after t
                j += 1
                ctl, d = pieces[j]
                switch += d  # the running sum d0 + d1 + ..., in order
            if remaining == 0.0:  # propagate's zero-duration rule
                rows.append((x, y, wrapped, ctl))
            elif u:
                th2 = th + u * remaining / rho
                rows.append((cx + ur * math.sin(th2), cy - ur * math.cos(th2), mod2pi(th2), ctl))
            else:
                rows.append((x + remaining * c, y + remaining * s, wrapped, ctl))
        x, y, th = propagate(x, y, th, u, dur, rho)
        before.append(dur)
    return rows


def target_relative(scenario: Scenario, t: float) -> tuple[float, float]:
    """Virtual target position in the air-relative frame at time t."""
    return (
        scenario.target_x - t * scenario.wind.wx,
        scenario.target_y - t * scenario.wind.wy,
    )
