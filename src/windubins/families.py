"""Candidate construction for the four path families of the interception problem.

Every minimum-time path is a member (or degenerate member) of one of four
families, written with S for a straight segment, R/L for clockwise and
counterclockwise arcs:

  SC2pi  straight, then one full circle           (SR2pi, SL2pi)
  CC2pi  arc, then one full opposite circle       (RL2pi, LR2pi)
  CCC    three arcs with alternating direction    (RL<piR, RL>piR, LR<piL, LR>piL)
  CSC    arc, straight, arc                       (RSR, RSL, LSR, LSL)

The family solvers below work on one canonical problem: start pose
(0, 0, pi/2) and unit turn radius, so every length is in turn radii and an
arc's duration equals its radians.  ``solve_all`` is the only function that
knows rho: it divides the goal by rho, runs the four solvers and multiplies
each candidate's times and lengths back.  Each solver reduces its family's
interception conditions to one of the root shapes in ``rootfind``,
reconstructs the segment parameters for every root, and keeps only
candidates whose forward-integrated endpoint actually meets the moving
target.  Integration is the final arbiter for every emitted candidate.

Each solver proposes (variant, params, schedule) triples and returns
``_accept`` of them, the one place that decides: it integrates each
schedule, applies ``ToleranceSet.accepts`` to the position and heading
misses, as ``planner.validate`` does, and merges near-duplicates.  Before
it, a solver drops a root only to pick a root or a wrap branch, or to keep
the schedule valid:

* SC: the final heading must be pi/2, and the straight length not negative;
* CC: the first arc must lie in [0, 2*pi); in zero wind, the goal must sit
  on the first circle, which gives the one root;
* CCC: the middle arc must not be empty, and the wrapped arc sum must
  match the branch;
* CSC: the last arc must lie in the root's own wrap branch, and the straight
  length must not be negative.  RSR/LSL solve a sinusoid per wrap branch,
  RSL/LSR an envelope equation on each of two arcs of straight headings.

None of them tests the endpoint again: a second test with a tolerance of its
own could only reject a path that ``_accept`` accepts, and then residual_tol
would no longer be the one bound on the miss.

Derivation conventions used throughout (unit speed, unit radius, first arc
from the origin):

* A variant's turn directions are sigma (first arc) and kappa (last arc),
  -1 for R (clockwise, heading decreases) and +1 for L.  Each formula is
  written once in them; the variants of a family differ in nothing else.
  The first arc starts on the circle centred at (-sigma, 0).
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
from typing import NamedTuple

from .geometry import (
    DEFAULT_START,
    HALF_PI,
    TWO_PI,
    ControlSchedule,
    RelativeState,
    Scenario,
    ang_dist,
    integrate,
    mod2pi,
    target_relative,
)
from .rootfind import (
    _GRAZE_WINDOW,
    EnvelopeCoeffs,
    QuadCosCoeffs,
    SinusoidCoeffs,
    solve_envelope,
    solve_quadcos,
    solve_sinusoid,
)

#: Padding of the CCC and CSC root windows, so a root on a cut (an empty or full
#: arc) is inside one: over ``_refine``'s 1.3e-14 closing width, far under feas_tol.
_PAD = 1e-9

class Family(enum.Enum):
    SC = "SC"
    CC = "CC"
    CCC = "CCC"
    CSC = "CSC"


class Variant(enum.Enum):
    """Concrete path type; enum order is the deterministic tie-break order,
    kept in ``order``.

    sigma is the direction of the first arc (of the circle, for SC); kappa
    that of the last arc for CSC, and 0 elsewhere, where the last arc
    follows from sigma.
    """

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


for _order, _variant in enumerate(Variant):
    _variant.order = _order
del _order, _variant

#: (sigma, middle arc beyond pi) -> CCC variant
_CCC_VARIANT = {(v.sigma, ">" in v.label): v for v in Variant if v.family is Family.CCC}


class SegmentParams(NamedTuple):
    """Segment parameters of one candidate; fields unused by the variant are 0.

    alpha, beta, gamma are arc radians in [0, 2*pi) (beta doubles as the
    straight-segment heading for CSC, whose alpha or gamma reaches 2*pi when
    a root sits on a wrap-branch boundary), d is the straight length.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    d: float = 0.0


class PathCandidate(NamedTuple):
    variant: Variant
    params: SegmentParams
    total_time: float
    schedule: ControlSchedule
    residual: float


#: what a family solver proposes to ``_accept``
_Proposal = tuple[Variant, SegmentParams, ControlSchedule]


def _misses(
    scenario: Scenario, schedule: ControlSchedule, total: float, rho: float
) -> tuple[RelativeState, float, float]:
    """End pose of a schedule flown from the canonical start at turn radius
    rho, its distance from the moving target at time ``total``, and its
    heading error against the goal heading."""
    end = integrate(DEFAULT_START, schedule, rho)
    tx, ty = target_relative(scenario, total)
    return end, math.hypot(end.x - tx, end.y - ty), ang_dist(end.theta, scenario.theta_f)


def _accept(scenario: Scenario, proposals: list[_Proposal]) -> list[PathCandidate]:
    """The candidates of the (variant, params, schedule) proposals whose
    forward-integrated schedule meets the moving target in position and
    heading at its own total time, in proposal order.

    Near-identical ones (same variant, every param within the grazing-root
    location uncertainty ``_GRAZE_WINDOW``) merge into the first one's place,
    keeping the lower residual; deterministic because solver order is.  A
    CSC's beta is a heading, compared modulo 2*pi (CCC's is an arc).
    """
    out: list[PathCandidate] = []
    for variant, params, schedule in proposals:
        total = schedule.total_duration
        _, residual, heading_error = _misses(scenario, schedule, total, 1.0)
        if not scenario.tol.accepts(total, residual, heading_error, 1.0):
            continue
        cand = PathCandidate(variant, params, total, schedule, residual)
        heading = variant.family is Family.CSC
        for i, kept in enumerate(out):
            if kept.variant is variant and all(
                (ang_dist(p, q) if k == 1 and heading else abs(p - q)) <= _GRAZE_WINDOW
                for k, (p, q) in enumerate(zip(kept.params, params))
            ):
                if residual < kept.residual:
                    out[i] = cand
                break
        else:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# SC2pi: straight segment, then one full circle.


def solve_sc(scenario: Scenario) -> list[PathCandidate]:
    """Both SC2pi orientations of a unit-radius normalized scenario, or []
    when the family is infeasible.

    Exists only for final heading pi/2: the path goes straight up some length
    d and then flies one full circle back to the same pose.  d follows in
    closed form from the interception identity; whether the target's
    relative track actually passes through (0, d) at that time is left to
    ``_accept``.
    """
    tol = scenario.tol
    if ang_dist(scenario.theta_f, HALF_PI) > tol.feas_tol:
        return []
    wy = scenario.wind.wy
    d = (scenario.target_y - TWO_PI * wy) / (1.0 + wy)
    if d < -tol.feas_tol:
        return []
    d = max(0.0, d)
    params = SegmentParams(d=d)
    return _accept(scenario, [
        (variant, params, ControlSchedule(((0, d), (variant.sigma, TWO_PI))))
        for variant in (Variant.SR2PI, Variant.SL2PI)
    ])


# ---------------------------------------------------------------------------
# CC2pi: first arc, then one full circle in the opposite direction.


def solve_cc(scenario: Scenario) -> list[PathCandidate]:
    """Both CC2pi orientations of a unit-radius normalized scenario.

    The endpoint lies on the first-arc circle, so the interception identity
    squares into a quadratic in the first-arc radian.  Every real root in
    range is proposed to ``_accept``, which checks the heading and the
    endpoint; the global minimum is taken later by the planner.
    """
    tol = scenario.tol
    wx, wy = scenario.wind.wx, scenario.wind.wy
    X, Y = scenario.target
    ww = wx * wx + wy * wy
    proposals = []
    for variant in (Variant.RL2PI, Variant.LR2PI):
        sigma = variant.sigma
        cx = -sigma  # first-circle centre (cx, 0)
        # Circle condition (X - cx - T*wx)^2 + (Y - T*wy)^2 = 1, T = a + 2*pi.
        if ww == 0.0:
            # Still air (``WindVector`` zeroes a wind below ZERO_WIND_EPS): a
            # goal on the circle is reached at the heading's arc.
            on_circle = (X - cx) ** 2 + Y * Y - 1.0
            alpha_head = mod2pi(sigma * (scenario.theta_f - HALF_PI))
            roots = [alpha_head] if abs(on_circle) <= tol.feas_tol * (1.0 + X * X + Y * Y) else []
        else:
            proj = (X - cx) * wx + Y * wy
            a2 = 4.0 * math.pi * ww - 2.0 * proj
            a3 = 4.0 * math.pi * math.pi * ww - 4.0 * math.pi * proj + (X - cx) ** 2 + Y * Y - 1.0
            roots = _real_quadratic_roots(ww, a2, a3)
        for alpha in roots:
            if not (-tol.feas_tol <= alpha < TWO_PI):
                continue
            alpha = max(0.0, alpha)
            schedule = ControlSchedule(((sigma, alpha), (-sigma, TWO_PI)))
            proposals.append((variant, SegmentParams(alpha=alpha), schedule))
    return _accept(scenario, proposals)


def _real_quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c with a > 0, numerically stable, ascending."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else -0.5 * s
    roots = {q / a}
    if q != 0.0:
        roots.add(c / q)
    return sorted(roots)


# ---------------------------------------------------------------------------
# CCC: three alternating arcs.


def _ccc_equations(scenario: Scenario) -> list[tuple]:
    """Every non-empty CCC branch equation of a unit-radius normalized
    scenario, as (sigma, n, coeffs, base, lo, hi, m, nn) for orientation sigma
    and wrap branch n, in solver order.

    The heading identity fixes base = alpha + gamma - beta on branch n; the
    target identity then pins the endpoint as a linear function of beta, with
    components (m - 2*sigma*wx*beta, nn - 2*wy*beta), and the tangency of the
    first/last circles with the middle one squares into G(beta) =
    c1*b^2 + c2*b + c3*cos b + c4.  Branch window [lo, hi]: total time
    positive and alpha + gamma in [0, 4*pi) bound beta to a subinterval
    (padded against boundary roots); a branch whose window is empty is left out.
    """
    (wx, wy), X, Y, th_f = scenario[:4]  # wind, goal, theta_f
    sin_f, cos_f = math.sin(th_f), math.cos(th_f)
    c1 = 4.0 * (wx * wx + wy * wy)
    out = []
    for sigma in (-1, 1):
        for n in (-2, -1, 0, 1, 2):
            base = sigma * (th_f - HALF_PI - 2.0 * n * math.pi)
            lo = max(0.0, -base - _PAD, -0.5 * base - _PAD)
            hi = min(TWO_PI, 2.0 * TWO_PI - base + _PAD)
            if hi <= lo:
                continue
            m = sigma * (X - wx * base) - sin_f + 1.0
            nn = Y - wy * base + sigma * cos_f
            c2 = -4.0 * (sigma * m * wx + nn * wy)
            coeffs = QuadCosCoeffs(c1, c2, 8.0, m * m + nn * nn - 8.0)
            out.append((sigma, n, coeffs, base, lo, hi, m, nn))
    return out


def solve_ccc(scenario: Scenario) -> list[PathCandidate]:
    """All CCC candidates of a unit-radius normalized scenario, over both
    orientations and the wrap-branch window.

    For each root beta of the branch equation, the first-arc radian follows
    jointly from the two circle-tangency components (atan2, so no branch
    ambiguity), the third from the heading identity; roots whose wrapped arc
    sum disagrees with the branch by more than feas_tol are rejected, the rest
    is proposed to ``_accept``.  An empty middle arc, the single arc RSR/LSL
    list with d = 0, is skipped; small ones are left to ``_accept``.
    """
    (wx, wy), _, _, th_f = scenario[:4]
    tol = scenario.tol
    proposals = []
    for sigma, _, coeffs, base, lo, hi, m, nn in _ccc_equations(scenario):
        for beta in solve_quadcos(coeffs, tol, domain=(lo, hi)).roots:
            if beta == 0.0:
                continue
            # The path's time on branch n, >= -2*_PAD in the window; the check
            # below holds alpha + beta + gamma, positive as beta is, to it.
            tau = base + 2.0 * beta
            a_comp = m - 2.0 * sigma * wx * beta
            b_comp = nn - 2.0 * wy * beta
            alpha = mod2pi(0.5 * beta + math.atan2(-a_comp, b_comp))
            gamma = mod2pi(sigma * (th_f - HALF_PI) - alpha + beta)
            if abs(alpha + beta + gamma - tau) > tol.feas_tol:
                continue
            schedule = ControlSchedule(((sigma, alpha), (-sigma, beta), (sigma, gamma)))
            params = SegmentParams(alpha=alpha, beta=beta, gamma=gamma)
            proposals.append((_CCC_VARIANT[sigma, beta >= math.pi], params, schedule))
    return _accept(scenario, proposals)


# ---------------------------------------------------------------------------
# CSC: arc, straight, arc.


def _csc_equations(scenario: Scenario) -> tuple[tuple, list[tuple], list[tuple]]:
    """The plan's constants that ``_csc_from_beta`` reads (goal, wind, sin and
    cos of theta_f, feas_tol), then every non-empty CSC branch equation of a
    unit-radius normalized scenario: RSL/LSR's on each of its two arcs of
    straight headings, as (variant, n, coeffs, c, a, z, wrap, head, n2pi), and
    RSR/LSL's per wrap branch, as (variant, n, coeffs, arc_sum).

    On wrap branch n the arc sum is alpha + gamma = head + (sigma - kappa)*beta
    + n2pi, head = -sigma*pi/2 + kappa*theta_f and n2pi = 2*n*pi: free of beta
    for RSR/LSL, whose branches outside [0, 4*pi) are left out, and linear
    otherwise.  Eliminating the straight length d from the two
    displacement-balance components leaves, for RSR/LSL, a plain sinusoid,
    and for RSL/LSR a sinusoid with a linear envelope.  The coefficients
    below are the fully expanded cross products; they contain no divisions,
    so a zero wind component costs nothing.  For RSR/LSL, (e2, -e3) is the
    balance residual r: where it vanishes, so does every coefficient, and
    the balance holds for every beta.

    RSL/LSR's equation is solved in b' = b - c on the arc of
    ``_csc_branch_window`` (a, z and wrap are its): G'(b') = G(c + b').  With
    p = f2 + c*f4 and q = f3 + c*f5, each pair of sine and cosine
    coefficients, (p, q) and (f4, f5), turns by c into
    (p*cos c - q*sin c, p*sin c + q*cos c).
    """
    (wx, wy), X, Y, th_f = scenario[:4]  # wind, goal, theta_f
    sin_f, cos_f = math.sin(th_f), math.cos(th_f)
    consts = (X, Y, wx, wy, sin_f, cos_f, scenario.tol.feas_tol)
    arcs, branches = [], []
    for variant in (Variant.RSL, Variant.LSR, Variant.RSR, Variant.LSL):
        sigma, kappa = variant.sigma, variant.kappa
        head = -sigma * HALF_PI + kappa * th_f
        for n in (0, 1, 2) if sigma == kappa else (0, 1):
            n2pi = 2.0 * n * math.pi
            s = head + n2pi  # the arc sum at beta = 0
            if sigma == kappa and (s < 0.0 or s >= 2.0 * TWO_PI):
                continue
            rx = X - s * wx + sigma - kappa * sin_f
            ry = Y - s * wy + kappa * cos_f
            if sigma == kappa:
                branches.append((variant, n, SinusoidCoeffs(rx * wy - ry * wx, rx, -ry), s))
                continue
            t = 2.0 * sigma
            f4, f5 = -t * wx, t * wy
            c, (a, z), wrap = _csc_branch_window(sigma, th_f, n)
            sc, cc = math.sin(c), math.cos(c)
            p, q = rx - t * wy + c * f4, -ry - t * wx + c * f5
            coeffs = EnvelopeCoeffs(
                rx * wy - ry * wx - t, p * cc - q * sc, p * sc + q * cc,
                f4 * cc - f5 * sc, f4 * sc + f5 * cc,
            )
            arcs.append((variant, n, coeffs, c, a, z, wrap, head, n2pi))
    return consts, arcs, branches


def solve_csc(scenario: Scenario) -> list[PathCandidate]:
    """All CSC candidates of a unit-radius normalized scenario, across the
    four variants and wrap branches.

    Each root fixes the straight heading; the arcs follow by bookkeeping and
    the straight length from the displacement balance against the moving
    target, solved against its better-conditioned component.  The last arc
    comes from the branch's arc sum, not from mod2pi: a root on a branch
    boundary then gets the full turn (2*pi) or the empty one (0) that its own
    branch implies, and a root whose last arc leaves [0, 2*pi] by more than
    feas_tol belongs to another branch and is dropped before its balance is
    solved.  Negative lengths are dropped too, and the survivors are
    proposed to ``_accept``, which checks the whole endpoint.
    """
    tol = scenario.tol
    feas = tol.feas_tol
    consts, arcs, branches = _csc_equations(scenario)
    proposals = []
    for variant, _, coeffs, c, a, z, wrap, head, n2pi in arcs:
        sigma, turn = variant.sigma, variant.sigma - variant.kappa
        for b in solve_envelope(coeffs, tol, domain=(max(0.0, a), min(z, TWO_PI))).roots:
            for v in (b, b + sigma * TWO_PI):  # every point of the arc at this heading
                if a <= v <= z:
                    beta = c + v
                    alpha = max(0.0, sigma * (beta - HALF_PI) - wrap)
                    gamma = head + turn * beta + n2pi - alpha
                    if -feas <= gamma <= TWO_PI + feas:
                        proposals.append(_csc_from_beta(consts, variant, beta, alpha, gamma))
    for variant, _, coeffs, arc_sum in branches:
        rx0, ry0 = abs(coeffs.e2), abs(coeffs.e3)  # |r|, component-wise
        scale = feas * (1.0 + rx0 + ry0 + (1.0 + arc_sum))
        if rx0 <= scale and ry0 <= scale:
            # Identically satisfied balance: d = 0 is forced, and any split of
            # the (single-direction) arc works; propose the even split.
            half = 0.5 * arc_sum
            schedule = ControlSchedule(((variant.sigma, half), (0, 0.0), (variant.kappa, half)))
            beta = mod2pi(HALF_PI + variant.sigma * half)
            proposals.append((variant, SegmentParams(alpha=half, beta=beta, gamma=half), schedule))
            continue
        for beta in solve_sinusoid(coeffs, tol).roots:
            alpha = mod2pi(variant.sigma * (beta - HALF_PI))
            gamma = arc_sum - alpha
            if -feas <= gamma <= TWO_PI + feas:
                proposals.append(_csc_from_beta(consts, variant, beta, alpha, gamma))
    return _accept(scenario, [p for p in proposals if p is not None])


def _csc_branch_window(sigma: int, th_f: float, n: int) -> tuple[float, tuple[float, float], float]:
    """The arc of straight headings on which RSL (sigma = -1) or LSR
    (sigma = 1) solves its branch-n equation, n = 0 or 1: the heading c it is
    measured from, the arc as an interval of b - c, and the whole turns
    (0 or -2*pi) that mod 2*pi takes off sigma*(b - pi/2) on it.

    Only the first arc's wrap at pi/2 and the last arc's at theta_f cut the
    circle of headings, into two arcs, padded by ``_PAD`` against boundary
    roots (the arc-sum filter arbitrates).  Between the cuts the wrap count
    is 1, and b is the heading itself (c = 0) in [0, 2*pi].  Across heading 0
    it goes from 0 to 2, but branch 2's equation at b is branch 0's at
    b + 2*sigma*pi: one arc of branch 0 in the unwrapped heading.  The root
    finder covers b - c in [0, 2*pi); where the arc is longer (theta_f within
    ``_PAD`` of pi/2), that turn holds its branch-0 end, whose paths are 4*pi
    shorter, and the rest lies 2*sigma*pi from a point of it.
    """
    m1, m2 = min(HALF_PI, th_f), max(HALF_PI, th_f)
    if n:  # sigma*(b - pi/2) < 0 between the cuts when sigma*(theta_f - pi/2) < 0
        wrap = -TWO_PI if sigma * (th_f - HALF_PI) < 0.0 else 0.0
        return 0.0, (max(0.0, m1 - _PAD), min(m2 + _PAD, TWO_PI)), wrap
    lo, hi = (m2 - TWO_PI - _PAD, m1 + _PAD) if sigma < 0 else (m2 - _PAD, m1 + TWO_PI + _PAD)
    c = max(lo, hi - TWO_PI) if sigma < 0 else lo  # RSL's branch-0 end is its end
    return c, (lo - c, hi - c), 0.0


def _csc_from_beta(
    consts: tuple, variant: Variant, beta: float, alpha: float, gamma: float
) -> _Proposal | None:
    """The proposal of a root at straight heading beta with first arc alpha
    and last arc gamma, within feas_tol of its own wrap branch, or None when
    it gives a negative length.  ``consts`` are ``_csc_equations``'."""
    X, Y, wx, wy, sin_f, cos_f, feas = consts
    sigma, kappa = variant.sigma, variant.kappa
    gamma = max(0.0, gamma)
    arc_time = alpha + gamma
    sb, cb = math.sin(beta), math.cos(beta)
    # Balance: goal - arc_time*w minus the first-arc end -sigma*(1 - sin b, cos b)
    # minus the last arc's offset -kappa*(sin b - sin th_f, cos th_f - cos b).
    rx = X - arc_time * wx + sigma * (1.0 - sb) + kappa * (sb - sin_f)
    ry = Y - arc_time * wy + sigma * cb + kappa * (cos_f - cb)
    dx, dy = cb + wx, sb + wy
    d = rx / dx if abs(dx) >= abs(dy) else ry / dy
    if d < -feas * (1.0 + arc_time):
        return None
    d = max(0.0, d)
    schedule = ControlSchedule(((sigma, alpha), (0, d), (kappa, gamma)))
    return variant, SegmentParams(alpha=alpha, beta=mod2pi(beta), gamma=gamma, d=d), schedule


def solve_all(scenario: Scenario) -> list[PathCandidate]:
    """Every validated candidate from all four families of a normalized
    scenario, solver order fixed, in the scenario's units.

    The solvers see the goal in turn radii; each candidate's time, piece
    durations, straight length and residual are multiplied back by rho.  A
    candidate whose time overflows there (rho near the largest float) is
    dropped, since no schedule of finite pieces carries it; the pieces and
    length of the others, never above their time, stay finite.
    """
    rho = scenario.rho
    if rho != 1.0:
        x, y = scenario.target
        scenario = scenario._replace(target_x=x / rho, target_y=y / rho, rho=1.0)
    out = solve_sc(scenario) + solve_cc(scenario) + solve_ccc(scenario) + solve_csc(scenario)
    if rho == 1.0:
        return out
    return [
        PathCandidate(
            c.variant,
            c.params._replace(d=c.params.d * rho),
            c.total_time * rho,
            ControlSchedule(tuple((u, dur * rho) for u, dur in c.schedule.pieces)),
            c.residual * rho,
        )
        for c in out
        if math.isfinite(c.total_time * rho)
    ]
