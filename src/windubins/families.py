"""Candidate construction for the four path families of the interception problem.

Every minimum-time path is a member (or degenerate member) of one of four
families, written with S for a straight segment, R/L for clockwise and
counterclockwise arcs of radius rho:

  SC2pi  straight, then one full circle           (SR2pi, SL2pi)
  CC2pi  arc, then one full opposite circle       (RL2pi, LR2pi)
  CCC    three arcs with alternating direction    (RL<piR, RL>piR, LR<piL, LR>piL)
  CSC    arc, straight, arc                       (RSR, RSL, LSR, LSL)

Each solver below takes a normalized scenario (start pose (0, 0, pi/2)),
reduces its family's interception conditions to one of the root shapes in
``rootfind``, reconstructs the segment parameters for every root, and keeps
only candidates whose forward-integrated endpoint actually meets the moving
target.  Integration is the final arbiter for every emitted candidate.

Derivation conventions used throughout (unit speed, first arc from the
origin):

* R arcs start on the circle centred at (rho, 0), L arcs at (-rho, 0); a
  clockwise turn decreases the heading, counterclockwise increases it.
* Arc radians follow from heading bookkeeping alone, so for CSC paths the
  straight-segment heading determines the first and last arcs up to full
  turns (the wrap branch), which is enumerated and filtered.
* The virtual target sits at (X - t*wx, Y - t*wy) at time t; candidate
  equations eliminate the endpoint through that identity, and every emitted
  candidate is re-validated by exact integration against it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geometry import (
    HALF_PI,
    TWO_PI,
    ZERO_WIND_EPS,
    ControlSchedule,
    RelativeState,
    Scenario,
    ang_dist,
    integrate,
    mod2pi,
    target_relative,
)
from .rootfind import (
    EnvelopeCoeffs,
    QuadCosCoeffs,
    SinusoidCoeffs,
    solve_envelope,
    solve_quadcos,
    solve_sinusoid,
)

#: slack for the arc-sum identity that selects the wrap branch of a root
_BRANCH_TOL = 1e-6

_CCC_BRANCHES = (-2, -1, 0, 1, 2)
_CSC_BRANCHES = (0, 1, 2)


class Family(enum.Enum):
    SC = "SC"
    CC = "CC"
    CCC = "CCC"
    CSC = "CSC"


class Variant(enum.Enum):
    """Concrete path type; enum order is the deterministic tie-break order."""

    SR2PI = ("SR2pi", Family.SC, -1, 0)
    SL2PI = ("SL2pi", Family.SC, 1, 0)
    RL2PI = ("RL2pi", Family.CC, -1, 0)
    LR2PI = ("LR2pi", Family.CC, 1, 0)
    RLR_SHORT = ("RL<piR", Family.CCC, -1, 0)
    RLR_LONG = ("RL>piR", Family.CCC, -1, 0)
    LRL_SHORT = ("LR<piL", Family.CCC, 1, 0)
    LRL_LONG = ("LR>piL", Family.CCC, 1, 0)
    RSR = ("RSR", Family.CSC, -1, -1)
    RSL = ("RSL", Family.CSC, -1, 1)
    LSR = ("LSR", Family.CSC, 1, -1)
    LSL = ("LSL", Family.CSC, 1, 1)

    def __init__(self, label: str, family: Family, sigma: int, kappa: int):
        self.label = label
        self.family = family
        self.sigma = sigma
        self.kappa = kappa

    @property
    def order(self) -> int:
        return list(type(self)).index(self)


#: L/R reflection of each variant (mirror across the y-axis of the start frame)
MIRROR_VARIANT = {
    Variant.SR2PI: Variant.SL2PI,
    Variant.SL2PI: Variant.SR2PI,
    Variant.RL2PI: Variant.LR2PI,
    Variant.LR2PI: Variant.RL2PI,
    Variant.RLR_SHORT: Variant.LRL_SHORT,
    Variant.RLR_LONG: Variant.LRL_LONG,
    Variant.LRL_SHORT: Variant.RLR_SHORT,
    Variant.LRL_LONG: Variant.RLR_LONG,
    Variant.RSR: Variant.LSL,
    Variant.RSL: Variant.LSR,
    Variant.LSR: Variant.RSL,
    Variant.LSL: Variant.RSR,
}


@dataclass(frozen=True)
class FamilyTag:
    family: Family
    variant: Variant

    def __post_init__(self) -> None:
        if self.variant.family is not self.family:
            raise ValueError(f"variant {self.variant} does not belong to family {self.family}")

    @classmethod
    def of(cls, variant: Variant) -> "FamilyTag":
        return cls(variant.family, variant)


@dataclass(frozen=True)
class SegmentParams:
    """Segment parameters of one candidate; fields unused by the variant are 0.

    alpha, beta, gamma are arc radians in [0, 2*pi) (beta doubles as the
    straight-segment heading for CSC, whose alpha or gamma reaches 2*pi when
    a root sits on a wrap-branch boundary), d is the straight length, n the wrap
    branch index, sigma/kappa the first/last turn directions.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    d: float = 0.0
    n: int = 0
    sigma: int = 0
    kappa: int = 0


@dataclass(frozen=True)
class PathCandidate:
    tag: FamilyTag
    params: SegmentParams
    total_time: float
    schedule: ControlSchedule
    residual: float

    @property
    def variant(self) -> Variant:
        return self.tag.variant


_START = RelativeState(0.0, 0.0, HALF_PI)


def _finish(
    scenario: Scenario,
    variant: Variant,
    params: SegmentParams,
    schedule: ControlSchedule,
) -> PathCandidate | None:
    """Forward-integrate and accept the candidate only if it meets the moving
    target in position and heading at its own total time."""
    total = schedule.total_duration
    if not (total > 0.0) or not math.isfinite(total):
        return None
    end = integrate(_START, schedule, scenario.rho)
    tx, ty = target_relative(scenario, total)
    residual = math.hypot(end.x - tx, end.y - ty)
    tol = scenario.tol
    if residual > tol.residual_tol * (1.0 + total):
        return None
    if ang_dist(end.theta, scenario.theta_f) > tol.feas_tol:
        return None
    return PathCandidate(FamilyTag.of(variant), params, total, schedule, residual)


# ---------------------------------------------------------------------------
# SC2pi: straight segment, then one full circle.


def solve_sc(scenario: Scenario) -> list[PathCandidate]:
    """Both SC2pi orientations, or [] when the family is infeasible.

    Exists only for final heading pi/2: the path goes straight up some length
    d and then flies one full circle back to the same pose.  d follows in
    closed form from the interception identity; the remaining requirement is
    that the target's relative track actually passes through (0, d) at the
    right time, which is checked as a whole instead of through separate
    colinearity equalities.
    """
    tol = scenario.tol
    if ang_dist(scenario.theta_f, HALF_PI) > tol.feas_tol:
        return []
    rho = scenario.rho
    wy = scenario.wind.wy
    d = (scenario.target_y - TWO_PI * rho * wy) / (1.0 + wy)
    if d < -tol.feas_tol:
        return []
    d = max(d, 0.0)
    total = d + TWO_PI * rho
    tx, ty = target_relative(scenario, total)
    if math.hypot(tx, ty - d) > tol.feas_tol * (1.0 + total):
        return []
    out = []
    for variant in (Variant.SR2PI, Variant.SL2PI):
        schedule = ControlSchedule(((0, d), (variant.sigma, TWO_PI * rho)))
        params = SegmentParams(d=d, sigma=variant.sigma)
        cand = _finish(scenario, variant, params, schedule)
        if cand is not None:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# CC2pi: first arc, then one full circle in the opposite direction.


def solve_cc(scenario: Scenario) -> list[PathCandidate]:
    """Both CC2pi orientations.

    The endpoint lies on the first-arc circle, so the interception identity
    squares into a quadratic in the first-arc radian.  Every real root in
    range is kept if it also satisfies the heading relation and lands on the
    moving target; the global minimum is taken later by the planner.
    """
    tol = scenario.tol
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    X, Y = scenario.target
    th_f = scenario.theta_f
    ww = wx * wx + wy * wy
    out = []
    for variant in (Variant.RL2PI, Variant.LR2PI):
        sigma = variant.sigma
        cx = -sigma * rho  # first-circle centre: (rho, 0) for R, (-rho, 0) for L
        alpha_head = mod2pi(HALF_PI - th_f) if sigma == -1 else mod2pi(th_f - HALF_PI)
        # Circle condition (X - cx - T*wx)^2 + (Y - T*wy)^2 = rho^2, T = rho*(a + 2*pi).
        if ww < ZERO_WIND_EPS * ZERO_WIND_EPS:
            on_circle = (X - cx) ** 2 + Y * Y - rho * rho
            roots = [alpha_head] if abs(on_circle) <= tol.feas_tol * (1.0 + X * X + Y * Y) else []
        else:
            a1 = rho * rho * ww
            proj = (X - cx) * wx + Y * wy
            a2 = 4.0 * math.pi * rho * rho * ww - 2.0 * rho * proj
            a3 = (
                4.0 * math.pi * math.pi * rho * rho * ww
                - 4.0 * math.pi * rho * proj
                + (X - cx) ** 2
                + Y * Y
                - rho * rho
            )
            roots = _real_quadratic_roots(a1, a2, a3)
        for alpha in roots:
            if not (-tol.feas_tol <= alpha < TWO_PI):
                continue
            alpha = max(alpha, 0.0)
            if ang_dist(alpha, alpha_head) > tol.feas_tol:
                continue
            total = rho * (alpha + TWO_PI)
            ex = cx + rho * math.cos(alpha) if sigma == 1 else cx - rho * math.cos(alpha)
            ey = rho * math.sin(alpha)
            tx, ty = target_relative(scenario, total)
            if math.hypot(ex - tx, ey - ty) > tol.feas_tol * (1.0 + total):
                continue
            if sigma == -1:
                n = round((th_f - HALF_PI + alpha) / TWO_PI)
            else:
                n = round((alpha + HALF_PI - th_f) / TWO_PI)
            schedule = ControlSchedule(((sigma, rho * alpha), (-sigma, TWO_PI * rho)))
            params = SegmentParams(alpha=alpha, n=n, sigma=sigma)
            cand = _finish(scenario, variant, params, schedule)
            if cand is not None:
                out.append(cand)
    return _dedupe(out)


def _real_quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, numerically stable, ascending."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else -0.5 * s
    roots = {q / a}
    if q != 0.0:
        roots.add(c / q)
    else:
        roots.add(0.0)
    return sorted(roots)


# ---------------------------------------------------------------------------
# CCC: three alternating arcs.


def _ccc_coeffs(scenario: Scenario, sigma: int, n: int) -> tuple[QuadCosCoeffs, float, float, float]:
    """Quadratic-plus-cosine coefficients for one orientation and wrap branch.

    base = alpha + gamma - beta, fixed by the heading identity for branch n;
    the target identity then pins the endpoint as a linear function of beta,
    and the tangency of the first/last circles with the middle one squares
    into G(beta) = c1*b^2 + c2*b + c3*cos b + c4.
    """
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    X, Y = scenario.target
    th_f = scenario.theta_f
    if sigma == -1:
        base = HALF_PI - th_f + 2.0 * n * math.pi
        m = -X + rho * wx * base - rho * math.sin(th_f) + rho
        nn = Y - rho * wy * base - rho * math.cos(th_f)
        c2 = 4.0 * rho * (m * wx - nn * wy)
    else:
        base = th_f - HALF_PI - 2.0 * n * math.pi
        m = X - rho * wx * base - rho * math.sin(th_f) + rho
        nn = Y - rho * wy * base + rho * math.cos(th_f)
        c2 = -4.0 * rho * (m * wx + nn * wy)
    c1 = 4.0 * rho * rho * (wx * wx + wy * wy)
    c3 = 8.0 * rho * rho
    c4 = m * m + nn * nn - 8.0 * rho * rho
    return QuadCosCoeffs(c1, c2, c3, c4), base, m, nn


def solve_ccc(scenario: Scenario) -> list[PathCandidate]:
    """All CCC candidates over both orientations and the wrap-branch window.

    For each root beta of the branch equation, the first-arc radian follows
    jointly from the two circle-tangency components (atan2, so no branch
    ambiguity), the third from the heading identity; roots whose wrapped arc
    sum disagrees with the branch are rejected, everything else is integrated
    and validated.  Middle arcs too close to 0 or 2*pi are degenerate (the
    recovery divides by sin(beta/2)) and are served by other families.
    """
    tol = scenario.tol
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    th_f = scenario.theta_f
    out = []
    for sigma in (-1, 1):
        for n in _CCC_BRANCHES:
            coeffs, base, m, nn = _ccc_coeffs(scenario, sigma, n)
            # Branch window: total time positive and alpha + gamma in [0, 4*pi)
            # bound beta to a subinterval (padded against boundary roots).
            lo = max(0.0, -base, -0.5 * base) - 1e-9
            hi = min(TWO_PI, 2.0 * TWO_PI - base) + 1e-9
            lo, hi = max(lo, 0.0), min(hi, TWO_PI)
            if hi <= lo:
                continue
            for beta in solve_quadcos(coeffs, tol, domain=(lo, hi)).roots:
                s_half = math.sin(0.5 * beta)
                if s_half <= tol.zero_angle_eps:
                    continue
                tau = base + 2.0 * beta
                if tau <= 0.0:
                    continue
                if sigma == -1:
                    a_comp = m + 2.0 * rho * wx * beta
                    b_comp = nn - 2.0 * rho * wy * beta
                    alpha = mod2pi(0.5 * beta + math.atan2(-a_comp, b_comp))
                    gamma = mod2pi(HALF_PI - alpha + beta - th_f)
                else:
                    a_comp = m - 2.0 * rho * wx * beta
                    b_comp = nn - 2.0 * rho * wy * beta
                    alpha = mod2pi(0.5 * beta + math.atan2(-a_comp, b_comp))
                    gamma = mod2pi(th_f - HALF_PI - alpha + beta)
                if abs(alpha + beta + gamma - tau) > _BRANCH_TOL:
                    continue
                if sigma == -1:
                    variant = Variant.RLR_SHORT if beta < math.pi else Variant.RLR_LONG
                else:
                    variant = Variant.LRL_SHORT if beta < math.pi else Variant.LRL_LONG
                schedule = ControlSchedule(
                    ((sigma, rho * alpha), (-sigma, rho * beta), (sigma, rho * gamma))
                )
                params = SegmentParams(alpha=alpha, beta=beta, gamma=gamma, n=n, sigma=sigma)
                cand = _finish(scenario, variant, params, schedule)
                if cand is not None:
                    out.append(cand)
    return _dedupe(out)


# ---------------------------------------------------------------------------
# CSC: arc, straight, arc.


def _first_arc_end(sigma: int, beta: float, rho: float) -> tuple[float, float]:
    """End of the first arc, written in terms of the straight heading beta."""
    if sigma == -1:
        return (rho - rho * math.sin(beta), rho * math.cos(beta))
    return (-rho + rho * math.sin(beta), -rho * math.cos(beta))


def _last_arc_offset(kappa: int, beta: float, th_f: float, rho: float) -> tuple[float, float]:
    """Displacement contributed by the last arc (entry heading beta, exit th_f)."""
    if kappa == -1:
        return (rho * (math.sin(beta) - math.sin(th_f)), rho * (math.cos(th_f) - math.cos(beta)))
    return (rho * (math.sin(th_f) - math.sin(beta)), rho * (math.cos(beta) - math.cos(th_f)))


def _csc_first_arc(
    variant: Variant, beta: float, window: tuple[float, float] | None
) -> float:
    """First arc radians from heading bookkeeping for a straight heading.

    The arc wraps where beta crosses pi/2.  The RSL/LSR branch windows split
    there, so for their roots the wrap is read at the window's middle: a root
    on that boundary keeps the empty (0) or full (2*pi) first arc of its own
    branch, as the last arc does in ``_csc_from_beta``.
    """
    turn = variant.sigma * (beta - HALF_PI)
    if window is None:
        return mod2pi(turn)
    mid = variant.sigma * (0.5 * (window[0] + window[1]) - HALF_PI)
    return max(turn - TWO_PI * math.floor(mid / TWO_PI), 0.0)


def _csc_arc_sum(variant: Variant, beta: float, th_f: float, n: int) -> float:
    """alpha + gamma for wrap branch n (beta-free for RSR/LSL, linear otherwise)."""
    two_n_pi = 2.0 * n * math.pi
    if variant is Variant.RSR:
        return HALF_PI - th_f + two_n_pi
    if variant is Variant.LSL:
        return th_f - HALF_PI + two_n_pi
    if variant is Variant.RSL:
        return HALF_PI + th_f - 2.0 * beta + two_n_pi
    return 2.0 * beta - HALF_PI - th_f + two_n_pi  # LSR


def _csc_root_coeffs(scenario: Scenario, variant: Variant, n: int):
    """Root-equation coefficients for one CSC variant and wrap branch.

    Eliminating the straight length d from the two displacement-balance
    components leaves, for RSR/LSL (arc sum independent of beta), a plain
    sinusoid, and for RSL/LSR a sinusoid with a linear envelope.  The
    coefficients below are the fully expanded cross products; they contain no
    divisions, so a zero wind component costs nothing.
    """
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    X, Y = scenario.target
    th_f = scenario.theta_f
    two_n_pi = 2.0 * n * math.pi
    if variant is Variant.RSR:
        s = HALF_PI - th_f + two_n_pi
        rx = X - rho * s * wx - rho + rho * math.sin(th_f)
        ry = Y - rho * s * wy - rho * math.cos(th_f)
        return SinusoidCoeffs(rx * wy - ry * wx, rx, -ry), (rx, ry)
    if variant is Variant.LSL:
        s = th_f - HALF_PI + two_n_pi
        rx = X - rho * s * wx + rho - rho * math.sin(th_f)
        ry = Y - rho * s * wy + rho * math.cos(th_f)
        return SinusoidCoeffs(rx * wy - ry * wx, rx, -ry), (rx, ry)
    if variant is Variant.RSL:
        s = HALF_PI + th_f + two_n_pi
        u = X - rho * s * wx - rho - rho * math.sin(th_f)
        v = Y - rho * s * wy + rho * math.cos(th_f)
        return (
            EnvelopeCoeffs(
                u * wy - v * wx + 2.0 * rho,
                u + 2.0 * rho * wy,
                2.0 * rho * wx - v,
                2.0 * rho * wx,
                -2.0 * rho * wy,
            ),
            None,
        )
    c = two_n_pi - HALF_PI - th_f  # LSR
    u = X - rho * c * wx + rho + rho * math.sin(th_f)
    v = Y - rho * c * wy - rho * math.cos(th_f)
    return (
        EnvelopeCoeffs(
            u * wy - v * wx - 2.0 * rho,
            u - 2.0 * rho * wy,
            -v - 2.0 * rho * wx,
            -2.0 * rho * wx,
            2.0 * rho * wy,
        ),
        None,
    )


def solve_csc(scenario: Scenario) -> list[PathCandidate]:
    """All CSC candidates across the four variants and wrap branches.

    Each root fixes the straight heading; the arcs follow by bookkeeping and
    the straight length from the displacement balance against the moving
    target, solved against the better-conditioned component and cross-checked
    against the other.  Negative lengths and balance mismatches are dropped,
    and the survivors are integrated and validated.
    """
    tol = scenario.tol
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    th_f = scenario.theta_f
    out = []
    for variant in (Variant.RSR, Variant.RSL, Variant.LSR, Variant.LSL):
        for n in _CSC_BRANCHES:
            coeffs, fixed = _csc_root_coeffs(scenario, variant, n)
            if fixed is not None:
                # Arc sum is beta-free; prune branches outside [0, 4*pi).
                arc_sum = _csc_arc_sum(variant, 0.0, th_f, n)
                if arc_sum < 0.0 or arc_sum >= 2.0 * TWO_PI:
                    continue
                rx0, ry0 = fixed
                scale = tol.feas_tol * (1.0 + abs(rx0) + abs(ry0) + rho * (1.0 + arc_sum))
                if abs(rx0) <= scale and abs(ry0) <= scale:
                    # Identically satisfied balance: the straight segment
                    # vanishes and any split of the (single-direction) arc
                    # works; emit one canonical split.
                    cand = _csc_degenerate(scenario, variant, n, arc_sum)
                    if cand is not None:
                        out.append(cand)
                    continue
                roots = solve_sinusoid(coeffs, tol).roots
                window = None
            else:
                window = _csc_branch_window(variant, th_f, n)
                if window is None:
                    continue
                roots = solve_envelope(coeffs, tol, domain=window).roots
            for beta in roots:
                cand = _csc_from_beta(scenario, variant, n, beta, window)
                if cand is not None:
                    out.append(cand)
    return _dedupe(out)


def _csc_branch_window(variant: Variant, th_f: float, n: int) -> tuple[float, float] | None:
    """Beta interval on which the wrap count of the two arcs equals n.

    For RSL the count is [beta > pi/2] + [beta > theta_f]; LSR mirrors it.
    The windows partition [0, 2*pi), so each branch equation only needs its
    own slice (padded against boundary roots; the arc-sum filter still
    arbitrates exactly).
    """
    u = min(HALF_PI, th_f)
    v = max(HALF_PI, th_f)
    if variant is Variant.RSL:
        spans = {0: (0.0, u), 1: (u, v), 2: (v, TWO_PI)}
    else:
        spans = {2: (0.0, u), 1: (u, v), 0: (v, TWO_PI)}
    lo, hi = spans[n]
    lo = max(0.0, lo - 1e-9)
    hi = min(TWO_PI, hi + 1e-9)
    if hi <= lo:
        return None
    return (lo, hi)


def _csc_from_beta(
    scenario: Scenario,
    variant: Variant,
    n: int,
    beta: float,
    window: tuple[float, float] | None,
) -> PathCandidate | None:
    tol = scenario.tol
    rho = scenario.rho
    wx, wy = scenario.wind.wx, scenario.wind.wy
    th_f = scenario.theta_f
    alpha = _csc_first_arc(variant, beta, window)
    # The last arc comes from the branch's arc sum, not from mod2pi: a root on
    # a branch boundary then gets the full turn (2*pi) or the empty one (0)
    # that its own branch implies.
    gamma = _csc_arc_sum(variant, beta, th_f, n) - alpha
    if not -_BRANCH_TOL <= gamma <= TWO_PI + _BRANCH_TOL:
        return None  # root belongs to a different wrap branch
    gamma = max(gamma, 0.0)
    arc_time = rho * (alpha + gamma)
    p1x, p1y = _first_arc_end(variant.sigma, beta, rho)
    kx, ky = _last_arc_offset(variant.kappa, beta, th_f, rho)
    rx = scenario.target_x - arc_time * wx - p1x - kx
    ry = scenario.target_y - arc_time * wy - p1y - ky
    dx = math.cos(beta) + wx
    dy = math.sin(beta) + wy
    d = rx / dx if abs(dx) >= abs(dy) else ry / dy
    if d < -tol.feas_tol * (1.0 + arc_time):
        return None
    d = max(d, 0.0)
    if math.hypot(rx - d * dx, ry - d * dy) > tol.feas_tol * (1.0 + arc_time + d):
        return None
    schedule = ControlSchedule(
        ((variant.sigma, rho * alpha), (0, d), (variant.kappa, rho * gamma))
    )
    params = SegmentParams(
        alpha=alpha, beta=beta, gamma=gamma, d=d, n=n, sigma=variant.sigma, kappa=variant.kappa
    )
    return _finish(scenario, variant, params, schedule)


def _csc_degenerate(
    scenario: Scenario, variant: Variant, n: int, arc_sum: float
) -> PathCandidate | None:
    """Balance identically zero for an RSR/LSL branch: d = 0 is forced and the
    split of the single-direction arc is arbitrary; emit an even split."""
    rho = scenario.rho
    alpha = gamma = 0.5 * arc_sum
    if not (0.0 <= alpha < TWO_PI):
        return None
    beta = mod2pi(HALF_PI - alpha) if variant.sigma == -1 else mod2pi(HALF_PI + alpha)
    schedule = ControlSchedule(
        ((variant.sigma, rho * alpha), (0, 0.0), (variant.kappa, rho * gamma))
    )
    params = SegmentParams(
        alpha=alpha, beta=beta, gamma=gamma, d=0.0, n=n, sigma=variant.sigma, kappa=variant.kappa
    )
    return _finish(scenario, variant, params, schedule)


_DEDUPE_EPS = 1e-5  # grazing roots are located only to ~sqrt(eps)


def _dedupe(cands: list[PathCandidate]) -> list[PathCandidate]:
    """Merge near-identical candidates (same variant and segment data within
    the grazing-root location uncertainty), keeping the lower residual.
    Deterministic because solver order is."""
    out: list[PathCandidate] = []
    for cand in cands:
        dup = False
        for i, kept in enumerate(out):
            if kept.variant is not cand.variant:
                continue
            p, q = kept.params, cand.params
            if (
                abs(p.alpha - q.alpha) <= _DEDUPE_EPS
                and abs(p.beta - q.beta) <= _DEDUPE_EPS
                and abs(p.gamma - q.gamma) <= _DEDUPE_EPS
                and abs(p.d - q.d) <= _DEDUPE_EPS
            ):
                if cand.residual < kept.residual:
                    out[i] = cand
                dup = True
                break
        if not dup:
            out.append(cand)
    return out


def solve_all(scenario: Scenario) -> list[PathCandidate]:
    """Every validated candidate from all four families, solver order fixed."""
    return solve_sc(scenario) + solve_cc(scenario) + solve_ccc(scenario) + solve_csc(scenario)
