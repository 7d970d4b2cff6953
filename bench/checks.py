"""Output checks that share no code with the planner.

Every function here takes plain numbers (or the planner's outputs reduced to
plain numbers) and returns a list of problem strings; an empty list means the
output passed.  The geometry is re-derived from the kinematics: unit speed,
turn rate u/rho with u = +1 counterclockwise, and a goal that drifts against
the wind in the air-relative frame.  Nothing is imported from ``windubins``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: acceptance slack the planner is specified to meet (ToleranceSet defaults)
RESIDUAL_TOL = 1e-6
HEADING_TOL = 1e-6
#: a solver root and a scan root closer than this are the same root
MATCH_TOL = 1e-6
#: cells of the uniform root scan over [0, 2*pi)
SCAN_CELLS = 1 << 16

#: reference interception scenarios: (wx, wy, X, Y, theta_f, rho)
CASE1 = (
    0.5 * math.cos(math.radians(-18.0)),
    0.5 * math.sin(math.radians(-18.0)),
    5.0,
    -2.0,
    math.radians(72.0),
    1.0,
)
CASE2 = (
    0.0,
    -(4.0 + 2.0 * math.sqrt(2.0)) / (9.0 * math.pi),
    1.0 - 1.0 / math.sqrt(2.0),
    -1.0,
    math.pi / 4.0,
    1.0,
)
#: expected winner and time of each reference scenario, within REF_TIME_TOL
REFERENCE_WINNERS = {"case1": ("LSL", 7.5294), "case2": ("RL2pi", 2.25 * math.pi)}
REF_TIME_TOL = 1e-3


def wrap(angle: float) -> float:
    r = angle % TWO_PI
    return 0.0 if r >= TWO_PI else r


def angle_gap(a: float, b: float) -> float:
    d = wrap(a - b)
    return min(d, TWO_PI - d)


def propagate(pose, pieces, rho):
    """Endpoint of (u, duration) pieces flown from pose (x, y, theta)."""
    x, y, th = pose
    for u, dur in pieces:
        if u == 0:
            x += dur * math.cos(th)
            y += dur * math.sin(th)
        else:
            # centre of the turning circle, then rotate about it
            cx = x - u * rho * math.sin(th)
            cy = y + u * rho * math.cos(th)
            th += u * dur / rho
            x = cx + u * rho * math.sin(th)
            y = cy - u * rho * math.cos(th)
    return x, y, th


def interception_lower_bound(dx: float, dy: float, wx: float, wy: float) -> float:
    """Least t >= 0 with |(dx, dy) - t*w| <= t: a straight flight at full
    speed toward the drifting goal, ignoring the turn radius."""
    a = 1.0 - (wx * wx + wy * wy)
    dw = dx * wx + dy * wy
    dd = dx * dx + dy * dy
    return (-dw + math.sqrt(dw * dw + a * dd)) / a


def mirror_label(label: str) -> str:
    """Reflection of a path label across the start heading: L and R swap."""
    return label.translate(str.maketrans("LR", "RL"))


def mirror_scenario(wx, wy, x, y, theta_f, start):
    """Reflect a scenario across the y-axis: x -> -x, theta -> pi - theta."""
    sx, sy, sth = start
    return (-wx, wy, -x, y, wrap(math.pi - theta_f), (-sx, sy, wrap(math.pi - sth)))


# ---------------------------------------------------------------------------
# classical zero-wind shortest paths (six words)

_WORD_TURNS = {"L": 1, "R": -1, "S": 0}


def _word_segments(word: str, a: float, b: float, d: float):
    """Normalised segment lengths (t, p, q) of one word, or None."""
    sa, ca, sb, cb = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    cab = math.cos(a - b)
    if word == "LSL":
        p2 = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sa - sb)
        if p2 < 0.0:
            return None
        phi = math.atan2(cb - ca, d + sa - sb)
        return wrap(phi - a), math.sqrt(p2), wrap(b - phi)
    if word == "RSR":
        p2 = 2.0 + d * d - 2.0 * cab + 2.0 * d * (sb - sa)
        if p2 < 0.0:
            return None
        phi = math.atan2(ca - cb, d - sa + sb)
        return wrap(a - phi), math.sqrt(p2), wrap(phi - b)
    if word == "LSR":
        p2 = d * d - 2.0 + 2.0 * cab + 2.0 * d * (sa + sb)
        if p2 < 0.0:
            return None
        p = math.sqrt(p2)
        phi = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        return wrap(phi - a), p, wrap(phi - b)
    if word == "RSL":
        p2 = d * d - 2.0 + 2.0 * cab - 2.0 * d * (sa + sb)
        if p2 < 0.0:
            return None
        p = math.sqrt(p2)
        phi = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        return wrap(a - phi), p, wrap(b - phi)
    if word == "RLR":
        c = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sa - sb)) / 8.0
        if abs(c) > 1.0:
            return None
        p = wrap(TWO_PI - math.acos(c))
        t = wrap(a - math.atan2(ca - cb, d - sa + sb) + 0.5 * p)
        return t, p, wrap(a - b - t + p)
    # LRL
    c = (6.0 - d * d + 2.0 * cab + 2.0 * d * (sb - sa)) / 8.0
    if abs(c) > 1.0:
        return None
    p = wrap(TWO_PI - math.acos(c))
    t = wrap(-a - math.atan2(ca - cb, d + sa - sb) + 0.5 * p)
    return t, p, wrap(b - a - t + p)


def dubins_length(start, goal, rho: float) -> float:
    """Length of the shortest curvature-bounded path between two poses.

    Every word whose flown endpoint misses the goal is discarded, so a
    formula slip cannot produce a length that no path attains."""
    dx, dy = goal[0] - start[0], goal[1] - start[1]
    dist = math.hypot(dx, dy)
    heading = math.atan2(dy, dx)
    a, b = wrap(start[2] - heading), wrap(goal[2] - heading)
    best = math.inf
    for word in ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL"):
        seg = _word_segments(word, a, b, dist / rho)
        if seg is None:
            continue
        pieces = [(_WORD_TURNS[c], s * rho) for c, s in zip(word, seg)]
        ex, ey, eth = propagate(start, pieces, rho)
        if math.hypot(ex - goal[0], ey - goal[1]) > 1e-9 * (1.0 + dist):
            continue
        if angle_gap(eth, goal[2]) > 1e-9:
            continue
        best = min(best, rho * sum(seg))
    return best


# ---------------------------------------------------------------------------
# plan-mixed


def check_plan(scn, t_f, label, pieces, candidate_times):
    """One planned scenario.

    ``scn`` = (wx, wy, X, Y, theta_f, rho, start); ``pieces`` is the winning
    control schedule as (u, duration) pairs.  Checks the flown endpoint
    against the drifting goal, the final heading, the schedule's length, the
    interception lower bound and that the winner is the fastest candidate.
    """
    wx, wy, x, y, theta_f, rho, start = scn
    problems = []
    if not math.isfinite(t_f) or label is None:
        return ["no feasible path"]
    total = math.fsum(dur for _, dur in pieces)
    if abs(total - t_f) > 1e-9 * (1.0 + t_f):
        problems.append(f"schedule lasts {total!r}, t_f is {t_f!r}")
    ex, ey, eth = propagate(start, pieces, rho)
    gx, gy = x - t_f * wx, y - t_f * wy
    miss = math.hypot(ex - gx, ey - gy)
    if miss > RESIDUAL_TOL * (1.0 + t_f):
        problems.append(f"endpoint misses the drifting goal by {miss:.3e}")
    if angle_gap(eth, theta_f) > HEADING_TOL:
        problems.append(f"final heading off by {angle_gap(eth, theta_f):.3e}")
    bound = interception_lower_bound(x - start[0], y - start[1], wx, wy)
    if t_f < bound - 1e-9 * (1.0 + bound):
        problems.append(f"t_f {t_f!r} below the interception bound {bound!r}")
    fastest = min(candidate_times)
    if t_f > fastest + 1e-12:
        problems.append(f"t_f {t_f!r} is not the fastest candidate ({fastest!r})")
    return problems


def check_reference(kind, t_f, label):
    want_label, want_t = REFERENCE_WINNERS[kind]
    if label != want_label or abs(t_f - want_t) > REF_TIME_TOL:
        return [f"{kind}: got {label} {t_f!r}, want {want_label} {want_t!r}"]
    return []


def check_zero_wind(scn, t_f):
    """Zero wind, goal farther than 4 rho: the classical shortest path."""
    _, _, x, y, theta_f, rho, start = scn
    want = dubins_length(start, (x, y, theta_f), rho)
    if abs(t_f - want) > 1e-9:
        return [f"zero-wind t_f {t_f!r} differs from the six-word length {want!r}"]
    return []


def check_mirror(t_f, label, m_t_f, m_label):
    problems = []
    if abs(t_f - m_t_f) > 1e-9:
        problems.append(f"mirrored t_f {m_t_f!r} differs from {t_f!r}")
    if m_label != mirror_label(label):
        problems.append(f"mirrored winner {m_label} is not the mirror of {label}")
    return problems


# ---------------------------------------------------------------------------
# roots-direct
#
# Each shape is given as (value, first derivative, second derivative), all
# vectorised over numpy arrays and valid for Python floats too.


def quadcos_shape(c1, c2, c3, c4):
    return (
        lambda b: (c1 * b + c2) * b + c3 * np.cos(b) + c4,
        lambda b: 2.0 * c1 * b + c2 - c3 * np.sin(b),
        lambda b: 2.0 * c1 - c3 * np.cos(b),
    )


def sinusoid_shape(e1, e2, e3):
    return (
        lambda b: e1 + e2 * np.sin(b) + e3 * np.cos(b),
        lambda b: e2 * np.cos(b) - e3 * np.sin(b),
        lambda b: -e2 * np.sin(b) - e3 * np.cos(b),
    )


def envelope_shape(f1, f2, f3, f4, f5):
    # G  = f1 + f2 s + f3 c + b (f4 s + f5 c)
    # G' = (f2 + f5) c + (f4 - f3) s + b (f4 c - f5 s)
    # G''= (2 f4 - f3) c - (f2 + 2 f5) s - b (f4 s + f5 c)
    return (
        lambda b: f1 + f2 * np.sin(b) + f3 * np.cos(b) + b * (f4 * np.sin(b) + f5 * np.cos(b)),
        lambda b: (f2 + f5) * np.cos(b) + (f4 - f3) * np.sin(b) + b * (f4 * np.cos(b) - f5 * np.sin(b)),
        lambda b: (2.0 * f4 - f3) * np.cos(b) - (f2 + 2.0 * f5) * np.sin(b) - b * (f4 * np.sin(b) + f5 * np.cos(b)),
    )


SHAPES = {"quadcos": quadcos_shape, "sinusoid": sinusoid_shape, "envelope": envelope_shape}


def _bisect(fn, lo, hi):
    """Vectorised bisection of sign-change brackets [lo, hi]."""
    flo = fn(lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        left = np.signbit(fm) != np.signbit(flo)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


def scan_roots(shape) -> list[float]:
    """Every real root on [0, 2*pi) from a uniform sign-change scan.

    Close pairs that share one grid cell leave no sign change at the cell's
    ends, so each cell where G' changes sign is searched too: when G at the
    located extremum has the other sign, both roots of the pair are added.
    """
    g, gp, _ = shape
    xs = np.linspace(0.0, TWO_PI, SCAN_CELLS + 1)
    v, dv = g(xs), gp(xs)
    sign = np.signbit(v)
    zero = v == 0.0
    roots = [xs[zero & (xs < TWO_PI)]]
    flip = (sign[:-1] != sign[1:]) & ~zero[:-1] & ~zero[1:]
    idx = np.nonzero(flip)[0]
    roots.append(_bisect(g, xs[idx], xs[idx + 1]))
    turn = (np.signbit(dv[:-1]) != np.signbit(dv[1:])) & ~flip & ~zero[:-1] & ~zero[1:]
    idx = np.nonzero(turn)[0]
    if idx.size:
        ext = _bisect(gp, xs[idx], xs[idx + 1])
        pair = np.signbit(g(ext)) != sign[idx]
        idx, ext = idx[pair], ext[pair]
        roots.append(_bisect(g, xs[idx], ext))
        roots.append(_bisect(g, ext, xs[idx + 1]))
    out = np.concatenate(roots)
    return sorted(float(r) for r in out if r < TWO_PI)


def check_root_set(shape, scale, roots, tangential, scanned=None):
    """One solver's output on one equation.

    Every simple root must lie in [0, 2*pi) with |G|/scale <= 1e-9.  With
    ``scanned`` (the scan's roots) the simple roots must pair one-to-one with
    scan roots within MATCH_TOL.  A scan root left over is accepted only
    next to a reported tangential root: the solver reports a near-double
    root at a stationary point p with |G(p)| <= 1e-6*scale as one grazing
    root, and the real roots around it lie within sqrt(2|G(p)|/|G''(p)|).
    """
    g, _, gpp = shape
    problems = []
    simple = sorted(r for r, t in zip(roots, tangential) if not t)
    grazing = [r for r, t in zip(roots, tangential) if t]
    for r in simple:
        if not 0.0 <= r < TWO_PI:
            problems.append(f"root {r!r} outside [0, 2pi)")
        res = abs(float(g(r))) / scale
        if res > 1e-9:
            problems.append(f"root {r!r} has scaled residual {res:.2e}")
    for r in grazing:
        if abs(float(g(r))) > 1e-6 * scale:
            problems.append(f"grazing root {r!r} has |G| {abs(float(g(r))):.2e}")
    if scanned is None:
        return problems
    left = list(scanned)
    for r in simple:
        near = min(left, key=lambda s: abs(s - r), default=None)
        if near is None or abs(near - r) > MATCH_TOL:
            problems.append(f"root {r!r} not found by the scan")
        else:
            left.remove(near)
    def reach(p):
        curv = abs(float(gpp(p)))
        return math.sqrt(2.0 * 1e-6 * scale / curv) if curv > 0.0 else math.inf

    for s in left:
        if not any(abs(s - p) <= 2.0 * reach(p) + MATCH_TOL for p in grazing):
            problems.append(f"scan root {s!r} missing from the solver's roots")
    return problems


# ---------------------------------------------------------------------------
# batch-csv


def parse_batch_output(text: str):
    """Split `windubins batch --output both` text into scenario blocks.

    Returns a list of (header, t_f, rows) with rows as float tuples
    (t, x_rel, y_rel, theta, u, x_inertial, y_inertial)."""
    blocks = []
    for chunk in text.split("# scenario ")[1:]:
        lines = chunk.rstrip("\n").split("\n")
        header = lines[0]
        t_f = math.nan
        rows = []
        in_csv = False
        for line in lines[1:]:
            if line.startswith("t_f="):
                t_f = float(line.split()[0][4:])
            elif line.startswith("t,x_rel,"):
                in_csv = True
            elif in_csv and line:
                rows.append(tuple(float(v) for v in line.split(",")))
        blocks.append((header, t_f, rows))
    return blocks


def check_csv_block(scn, dt, t_f, rows):
    """One sampled path: starts at the start pose, t rises to t_f, ends on
    the goal with the goal heading, and no step outruns (1+|w|)*dt."""
    wx, wy, x, y, theta_f, _rho = scn
    problems = []
    if len(rows) < 2:
        return ["fewer than two sampled rows"]
    if any(len(r) != 7 for r in rows):
        return ["a row without seven columns"]
    t0, xr0, yr0, th0, _u, xi0, yi0 = rows[0]
    if t0 != 0.0 or max(abs(xr0), abs(yr0), abs(xi0), abs(yi0)) > 1e-12:
        problems.append(f"first row {rows[0]} is not the start position")
    if angle_gap(th0, 0.5 * math.pi) > 1e-12:
        problems.append(f"first row heading {th0!r} is not the start heading")
    t_last, _, _, th_last, _, xi, yi = rows[-1]
    if abs(t_last - t_f) > 1e-6:
        problems.append(f"last row at t={t_last!r}, t_f is {t_f!r}")
    miss = math.hypot(xi - x, yi - y)
    if miss > RESIDUAL_TOL * (1.0 + t_last):
        problems.append(f"last row misses the goal by {miss:.3e}")
    if angle_gap(th_last, theta_f) > HEADING_TOL:
        problems.append(f"last row heading off by {angle_gap(th_last, theta_f):.3e}")
    bound = interception_lower_bound(x, y, wx, wy)
    if t_last < bound - 1e-9 * (1.0 + bound):
        problems.append(f"path time {t_last!r} below the interception bound {bound!r}")
    speed = 1.0 + math.hypot(wx, wy)
    for a, b in zip(rows, rows[1:]):
        gap = b[0] - a[0]
        if not 0.0 < gap <= dt * (1.0 + 1e-9):
            problems.append(f"t steps by {gap!r} at t={b[0]!r}")
            break
        step = math.hypot(b[5] - a[5], b[6] - a[6])
        if step > speed * gap * (1.0 + 1e-9) + 1e-12:
            problems.append(f"inertial step {step!r} longer than {speed * gap!r} at t={b[0]!r}")
            break
    return problems
