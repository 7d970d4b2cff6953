"""Independent ground-truth machinery for testing the planner.

Nothing here shares solution logic with the family solvers: the integrator is
a fixed-step RK4 on the raw kinematics, the brute-force search scans segment
parameters exhaustively on a grid with local refinement, and the zero-wind
baseline is the classical six-word shortest-path construction.  These exist to
catch errors in the closed-form machinery, not to be fast or elegant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from windubins.geometry import (
    HALF_PI,
    TWO_PI,
    ControlSchedule,
    RelativeState,
    Scenario,
    ang_dist,
    integrate,
    mod2pi,
)

#: Completeness bound on the brute-force best time with the default grid,
#: validated by the acceptance suite: the search never misses the optimum by
#: more than this after refinement.
ORACLE_TIME_BOUND = 0.02


def _rk4_piece(x, y, th, u, dur, rho, step):
    n = int(math.ceil(dur / step))
    if n < 1:
        n = 1
    h = dur / n
    k = u / rho
    # All n steps at once.  np.cumsum adds in sequence, so the headings and
    # the x and y sums are those of stepping one at a time.
    ths = np.cumsum(np.concatenate(([th], np.full(n, h * k))))
    th0 = ths[:-1]
    th2 = th0 + 0.5 * h * k  # the midpoint heading of stages 2 and 3
    th4 = th0 + h * k
    c2, s2 = 2.0 * np.cos(th2), 2.0 * np.sin(th2)
    dx = h / 6.0 * (np.cos(th0) + c2 + c2 + np.cos(th4))
    dy = h / 6.0 * (np.sin(th0) + s2 + s2 + np.sin(th4))
    x = np.cumsum(np.concatenate(([x], dx)))[-1]
    y = np.cumsum(np.concatenate(([y], dy)))[-1]
    return float(x), float(y), float(ths[-1])


def rk4_integrate(
    start: RelativeState, schedule: ControlSchedule, rho: float, step: float
) -> RelativeState:
    """Fixed-step fourth-order integration of the kinematics; cross-check only."""
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    x, y, th = start.x, start.y, start.theta
    for u, dur in schedule.pieces:
        if dur > 0.0:
            x, y, th = _rk4_piece(x, y, th, float(u), dur, rho, step)
    return RelativeState(x, y, th)


# ---------------------------------------------------------------------------
# Brute-force minimum-time search.


@dataclass(frozen=True)
class GridSpec:
    """Grid resolutions (radians / length units) and refinement depth."""

    angle_res: float = 0.01
    length_res: float = 0.05
    depth: int = 42

    def __post_init__(self) -> None:
        if not (self.angle_res > 0.0 and self.length_res > 0.0):
            raise ValueError("grid resolutions must be positive")
        if self.depth < 1:
            raise ValueError("refinement depth must be >= 1")


@dataclass(frozen=True)
class BruteForceResult:
    time: float
    label: str
    params: tuple[float, ...]
    residual: float


def _arc_end_np(x, y, th, u, dur, rho):
    cx = x - u * rho * np.sin(th)
    cy = y + u * rho * np.cos(th)
    th2 = th + u * dur / rho
    return cx + u * rho * np.sin(th2), cy - u * rho * np.cos(th2), th2


def _wrap_np(a):
    return np.mod(a, TWO_PI)


def _ccc_vector(scenario: Scenario, sigma: int, alpha, beta):
    """Terminal miss vector of the three-arc pattern; gamma fixed by heading."""
    rho = scenario.rho
    th_f = scenario.theta_f
    gamma = _wrap_np(sigma * (th_f - HALF_PI) - alpha + beta)
    total = rho * (alpha + beta + gamma)
    x1, y1, t1 = _arc_end_np(0.0, 0.0, HALF_PI, sigma, rho * alpha, rho)
    x2, y2, t2 = _arc_end_np(x1, y1, t1, -sigma, rho * beta, rho)
    x3, y3, _ = _arc_end_np(x2, y2, t2, sigma, rho * gamma, rho)
    tx = scenario.target_x - total * scenario.wind.wx
    ty = scenario.target_y - total * scenario.wind.wy
    return x3 - tx, y3 - ty, total


def _ccc_residual(scenario: Scenario, sigma: int, alpha, beta):
    ex, ey, total = _ccc_vector(scenario, sigma, alpha, beta)
    return np.hypot(ex, ey), total


def _csc_vector(scenario: Scenario, sigma: int, kappa: int, beta, d):
    """Terminal miss vector of arc-straight-arc; arcs fixed by the heading."""
    rho = scenario.rho
    th_f = scenario.theta_f
    alpha = _wrap_np(sigma * (beta - HALF_PI))
    gamma = _wrap_np(kappa * (th_f - beta))
    total = rho * (alpha + gamma) + d
    x1, y1, t1 = _arc_end_np(0.0, 0.0, HALF_PI, sigma, rho * alpha, rho)
    x2 = x1 + d * np.cos(beta)
    y2 = y1 + d * np.sin(beta)
    x3, y3, _ = _arc_end_np(x2, y2, beta, kappa, rho * gamma, rho)
    tx = scenario.target_x - total * scenario.wind.wx
    ty = scenario.target_y - total * scenario.wind.wy
    return x3 - tx, y3 - ty, total


def _csc_residual(scenario: Scenario, sigma: int, kappa: int, beta, d):
    ex, ey, total = _csc_vector(scenario, sigma, kappa, beta, d)
    return np.hypot(ex, ey), total


def _newton_polish(vec_fn, p, q, q_floor, steps: int = 15):
    """Gauss-Newton on the 2-component miss vector; finishes what the
    shrinking grid starts.  Ill-conditioned valleys (near-unit wind makes the
    miss almost insensitive to the straight length) defeat axis-aligned
    descent, while the 2x2 Jacobian solve follows them without trouble."""
    h = 1e-7
    for _ in range(steps):
        fx, fy, _ = vec_fn(p, q)
        if math.hypot(float(fx), float(fy)) < 1e-13:
            break
        fxp, fyp, _ = vec_fn(p + h, q)
        fxq, fyq, _ = vec_fn(p, q + h)
        j11 = (float(fxp) - float(fx)) / h
        j21 = (float(fyp) - float(fy)) / h
        j12 = (float(fxq) - float(fx)) / h
        j22 = (float(fyq) - float(fy)) / h
        det = j11 * j22 - j12 * j21
        if not math.isfinite(det) or abs(det) < 1e-14:
            break
        dp = (-float(fx) * j22 + float(fy) * j12) / det
        dq = (-float(fy) * j11 + float(fx) * j21) / det
        if not (math.isfinite(dp) and math.isfinite(dq)):
            break
        p += dp
        q += dq
        if q_floor is not None and q < q_floor:
            q = q_floor
    return p, q


def _refine_2d(residual_fn, p0, q0, hp, hq, depth, p_bounds=None, q_bounds=None):
    """Shrinking-grid descent of a 2-D residual around a coarse hit, kept
    inside the valid parameter box (arc radians and lengths are nonnegative;
    letting them go negative would score time-reversed, infeasible paths)."""
    p, q = p0, q0
    best = math.inf
    for _ in range(depth):
        plo, phi = p - hp, p + hp
        if p_bounds is not None:
            plo, phi = max(plo, p_bounds[0]), min(phi, p_bounds[1])
        qlo, qhi = q - hq, q + hq
        if q_bounds is not None:
            qlo, qhi = max(qlo, q_bounds[0]), min(qhi, q_bounds[1])
        ps = np.linspace(plo, phi, 13)
        qs = np.linspace(qlo, qhi, 13)
        pp, qq = np.meshgrid(ps, qs, indexing="ij")
        res, _total = residual_fn(pp, qq)
        k = np.unravel_index(np.argmin(res), res.shape)
        best = float(res[k])
        p, q = float(pp[k]), float(qq[k])
        hp *= 0.5
        hq *= 0.5
    return p, q, best


def _block_minima(res, thresh, block_i: int, block_j: int):
    """Best (lowest-residual) cell of every coarse block that holds at least
    one sub-threshold cell; refinement seeds."""
    idx = np.argwhere(res < thresh)
    best: dict[tuple[int, int], tuple[float, int, int]] = {}
    for i, j in idx:
        key = (int(i) // block_i, int(j) // block_j)
        r = float(res[i, j])
        cur = best.get(key)
        if cur is None or r < cur[0]:
            best[key] = (r, int(i), int(j))
    return [(i, j) for _, i, j in best.values()]


def brute_force(
    scenario: Scenario,
    grid: GridSpec | None = None,
    patterns: tuple[str, ...] | None = None,
) -> BruteForceResult | None:
    """Exhaustive minimum-time search over every pattern of the family.

    Scans the free segment parameters of each pattern on a uniform grid (the
    heading constraint eliminates one arc), refines every near-feasible
    cluster with a shrinking local grid plus a Gauss-Newton polish, and
    returns the fastest refined point whose terminal residual is at machine
    scale.  ``patterns`` optionally restricts the search to a subset of
    {RLR, LRL, RSR, RSL, LSR, LSL, SC, CC}.  Completeness is limited by
    ORACLE_TIME_BOUND; accepted times are accurate to ~1e-9.
    """
    grid = grid or GridSpec()
    rho = scenario.rho
    w = scenario.wind.speed()
    reach = math.hypot(scenario.target_x, scenario.target_y)
    d_max = max(4.0 * rho, (reach + 8.0 * rho) / (1.0 - w))
    hits: list[BruteForceResult] = []

    n_ang = max(8, int(TWO_PI / grid.angle_res))
    angles = np.linspace(0.0, TWO_PI, n_ang, endpoint=False)
    # Near-unit wind inflates the search horizon; coarsen the length grid
    # rather than allocating unbounded scan arrays.
    length_step = max(grid.length_res, d_max / 40000.0)
    lengths = np.arange(0.0, d_max + length_step, length_step)

    accept = lambda total: 1e-9 * (1.0 + total)

    block = max(4, int(0.15 / grid.angle_res))

    def wanted(label: str) -> bool:
        return patterns is None or label in patterns

    # CCC patterns.
    for sigma in (-1, 1):
        if not wanted("RLR" if sigma == -1 else "LRL"):
            continue
        aa, bb = np.meshgrid(angles, angles, indexing="ij")
        res, total = _ccc_residual(scenario, sigma, aa, bb)
        thresh = (12.0 * rho + 2.0) * grid.angle_res
        half = block * grid.angle_res
        for i, j in _block_minima(res, thresh, block, block):
            fn = lambda p, q: _ccc_residual(scenario, sigma, p, q)
            p, q, r = _refine_2d(fn, float(aa[i, j]), float(bb[i, j]),
                                 half, half, grid.depth,
                                 p_bounds=(0.0, TWO_PI), q_bounds=(0.0, TWO_PI))
            p, q = _newton_polish(lambda pp, qq: _ccc_vector(scenario, sigma, pp, qq), p, q, 0.0)
            if -1e-9 <= p < 0.0:
                p = 0.0
            if -1e-9 <= q < 0.0:
                q = 0.0
            if not (0.0 <= p < TWO_PI and 0.0 <= q < TWO_PI):
                continue
            rr, tt = _ccc_residual(scenario, sigma, np.float64(p), np.float64(q))
            if float(rr) <= accept(float(tt)) and float(tt) > 0.0:
                label = "RLR" if sigma == -1 else "LRL"
                hits.append(BruteForceResult(float(tt), label, (p, q), float(rr)))

    # CSC patterns.
    block_d = max(4, int(0.5 / length_step))
    # Near-unit wind makes the residual almost flat along the straight
    # length (closing speed 1 - |w|); widen the refinement window in that
    # direction so the descent can traverse the valley.
    d_stretch = min(40.0, 1.0 / max(1.0 - w, 0.025))
    for sigma in (-1, 1):
        for kappa in (-1, 1):
            if not wanted(("R" if sigma == -1 else "L") + "S" + ("R" if kappa == -1 else "L")):
                continue
            bb, dd = np.meshgrid(angles, lengths, indexing="ij")
            res, total = _csc_residual(scenario, sigma, kappa, bb, dd)
            # Endpoint sensitivity to the straight heading grows with d.
            thresh = (dd + 12.0 * rho + 2.0) * grid.angle_res + 2.0 * length_step
            half = block * grid.angle_res
            half_d = block_d * length_step * d_stretch
            for i, j in _block_minima(res, thresh, block, block_d):
                fn = lambda p, q: _csc_residual(scenario, sigma, kappa, p, q)
                p, q, r = _refine_2d(fn, float(bb[i, j]), float(dd[i, j]),
                                     half, half_d, grid.depth,
                                     q_bounds=(0.0, math.inf))
                p, q = _newton_polish(
                    lambda pp, qq: _csc_vector(scenario, sigma, kappa, pp, qq), p, q, 0.0
                )
                p = float(mod2pi(p))  # straight heading is periodic
                rr, tt = _csc_residual(scenario, sigma, kappa, np.float64(p), np.float64(q))
                if float(rr) <= accept(float(tt)) and float(tt) > 0.0:
                    label = ("R" if sigma == -1 else "L") + "S" + ("R" if kappa == -1 else "L")
                    hits.append(BruteForceResult(float(tt), label, (p, q), float(rr)))

    # SC2pi: straight then a full circle; exists only for final heading pi/2.
    if wanted("SC") and ang_dist(scenario.theta_f, HALF_PI) <= 1e-7:
        wy = scenario.wind.wy
        d = (scenario.target_y - TWO_PI * rho * wy) / (1.0 + wy)
        if d >= 0.0:
            total = d + TWO_PI * rho
            tx = scenario.target_x - total * scenario.wind.wx
            ty = scenario.target_y - total * scenario.wind.wy
            r = math.hypot(tx, ty - d)
            if r <= accept(total):
                hits.append(BruteForceResult(total, "SC", (d,), r))

    # CC2pi: the heading fixes the first arc; only feasibility remains.
    for sigma in (-1, 1):
        if not wanted("CC"):
            continue
        alpha = mod2pi(sigma * (scenario.theta_f - HALF_PI))
        total = rho * (alpha + TWO_PI)
        cx = -sigma * rho
        ex = cx - rho * math.cos(alpha) if sigma == -1 else cx + rho * math.cos(alpha)
        ey = rho * math.sin(alpha)
        tx = scenario.target_x - total * scenario.wind.wx
        ty = scenario.target_y - total * scenario.wind.wy
        r = math.hypot(ex - tx, ey - ty)
        if r <= accept(total):
            hits.append(BruteForceResult(total, "CC", (alpha,), r))

    if not hits:
        return None
    return min(hits, key=lambda h: h.time)


# ---------------------------------------------------------------------------
# Classical zero-wind shortest path (six-word construction).

_WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")
_TURN = {"L": 1, "R": -1, "S": 0}


def _word_lengths(word: str, alpha: float, beta: float, d: float):
    """Normalized segment lengths (t, p, q) of one word, or None if infeasible.

    Standard closed forms in the chord-aligned frame: alpha and beta are the
    start/goal headings measured from the chord, d the chord length over rho.
    """
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    c_ab = math.cos(alpha - beta)
    if word == "LSL":
        p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sa - sb)
        if p_sq < 0.0:
            return None
        tmp = math.atan2(cb - ca, d + sa - sb)
        return (mod2pi(-alpha + tmp), math.sqrt(p_sq), mod2pi(beta - tmp))
    if word == "RSR":
        p_sq = 2.0 + d * d - 2.0 * c_ab + 2.0 * d * (sb - sa)
        if p_sq < 0.0:
            return None
        tmp = math.atan2(ca - cb, d - sa + sb)
        return (mod2pi(alpha - tmp), math.sqrt(p_sq), mod2pi(-beta + tmp))
    if word == "LSR":
        p_sq = -2.0 + d * d + 2.0 * c_ab + 2.0 * d * (sa + sb)
        if p_sq < 0.0:
            return None
        p = math.sqrt(p_sq)
        tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        return (mod2pi(-alpha + tmp), p, mod2pi(-mod2pi(beta) + tmp))
    if word == "RSL":
        p_sq = d * d - 2.0 + 2.0 * c_ab - 2.0 * d * (sa + sb)
        if p_sq < 0.0:
            return None
        p = math.sqrt(p_sq)
        tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        return (mod2pi(alpha - tmp), p, mod2pi(beta - tmp))
    if word == "RLR":
        tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sa - sb)) / 8.0
        if abs(tmp) > 1.0:
            return None
        p = mod2pi(TWO_PI - math.acos(tmp))
        t = mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + mod2pi(0.5 * p))
        return (t, p, mod2pi(alpha - beta - t + mod2pi(p)))
    tmp = (6.0 - d * d + 2.0 * c_ab + 2.0 * d * (sb - sa)) / 8.0  # LRL
    if abs(tmp) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(tmp))
    t = mod2pi(-alpha - math.atan2(ca - cb, d + sa - sb) + 0.5 * p)
    return (t, p, mod2pi(mod2pi(beta) - alpha - t + mod2pi(p)))


def classical_dubins(
    start: tuple[float, float, float], goal: tuple[float, float, float], rho: float
) -> float:
    """Length of the classical shortest bounded-curvature path, zero wind.

    Evaluates all six candidate words in closed form and keeps only those
    whose integrated endpoint actually reaches the goal pose, which guards
    against branch mistakes in the word formulas.
    """
    x1, y1, th1 = start
    x2, y2, th2 = goal
    dx, dy = x2 - x1, y2 - y1
    dist = math.hypot(dx, dy)
    if dist < 1e-14 and ang_dist(th1, th2) < 1e-12:
        return 0.0
    d = dist / rho
    theta = math.atan2(dy, dx)
    alpha = mod2pi(th1 - theta)
    beta = mod2pi(th2 - theta)

    best = math.inf
    start_state = RelativeState(x1, y1, th1)
    for word in _WORDS:
        lengths = _word_lengths(word, alpha, beta, d)
        if lengths is None:
            continue
        schedule = ControlSchedule(
            tuple((_TURN[c], seg * rho) for c, seg in zip(word, lengths))
        )
        end = integrate(start_state, schedule, rho)
        if math.hypot(end.x - x2, end.y - y2) > 1e-6 * (1.0 + dist) or ang_dist(
            end.theta, th2
        ) > 1e-6:
            continue
        best = min(best, (lengths[0] + lengths[1] + lengths[2]) * rho)
    return best
