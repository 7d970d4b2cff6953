"""Dense sign-change scan used as the independent root-finding oracle.

Evaluates the function on a uniform million-point grid over [0, 2*pi) and
refines every sign change by plain bisection.  Deliberately brainless; it
misses only roots the grid cannot resolve (tangential contacts and pairs
closer than one grid cell).  Each grid and its sin and cos are computed once
per process; the shape functions read them back when evaluated on the grid,
with the same values and evaluation order as a fresh np.sin or np.cos.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: n -> (grid, sin of it, cos of it)
_GRIDS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _grid(n: int) -> np.ndarray:
    if n not in _GRIDS:
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        _GRIDS[n] = (xs, np.sin(xs), np.cos(xs))
    return _GRIDS[n][0]


def _sin(b):
    grid = _GRIDS.get(np.size(b))
    return grid[1] if grid is not None and grid[0] is b else np.sin(b)


def _cos(b):
    grid = _GRIDS.get(np.size(b))
    return grid[2] if grid is not None and grid[0] is b else np.cos(b)


def quadcos_fn(c1, c2, c3, c4):
    return lambda b: c1 * b * b + c2 * b + c3 * _cos(b) + c4


def envelope_fn(f1, f2, f3, f4, f5):
    return lambda b: f1 + f2 * _sin(b) + f3 * _cos(b) + b * (f4 * _sin(b) + f5 * _cos(b))


def dense_grid_roots(fn, n: int = 1_000_000) -> list[float]:
    xs = _grid(n)
    vals = fn(xs)
    sign = np.signbit(vals)
    flips = np.nonzero(sign[:-1] != sign[1:])[0]
    exact = np.nonzero(vals == 0.0)[0]
    roots = [float(xs[i]) for i in exact]
    h = TWO_PI / n
    for i in flips:
        a = float(xs[i])
        b = a + h
        fa = float(fn(np.array([a]))[0])
        if fa == 0.0:
            continue  # already collected as an exact hit
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(fn(np.array([m]))[0])
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0.0) != (fm < 0.0):
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    return sorted(roots)


def match_root_sets(found, expected, tol: float = 1e-6) -> bool:
    """True when the two sorted root lists pair one-to-one within tol."""
    if len(found) != len(expected):
        return False
    return all(abs(a - b) <= tol for a, b in zip(sorted(found), sorted(expected)))


def simple_roots(root_set) -> tuple[float, ...]:
    """The roots of a ``RootSet`` found by a sign change, without the
    tangential (grazing) ones a sign-change scan cannot see."""
    return tuple(r for r, t in zip(root_set.roots, root_set.tangential) if not t)
