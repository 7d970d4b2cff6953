"""Complete real-root isolation on [0, 2*pi) for the three equation shapes the
path families produce.

* quadratic-plus-cosine   c1*b^2 + c2*b + c3*cos(b) + c4 = 0
* constant-plus-sinusoid  e1 + e2*sin(b) + e3*cos(b) = 0
* linear-envelope         f1 + f2*sin(b) + f3*cos(b) + b*(f4*sin(b) + f5*cos(b)) = 0

The sinusoid is solved analytically.  The other two shapes share one idea:
every stationary point of G is found first, from critical points known in
closed form, so that G is monotone between consecutive stationary points and
each of those pieces holds at most one sign change (``_monotone_roots``).

* quadcos: G'' = 2*c1 - c3*cos(b) has at most two roots (an arccosine), so G'
  is monotone on at most three pieces and has at most one root on each,
  which ``_monotone_roots`` finds as it finds those of G.
* envelope: G' = P*sin(b) + Q*cos(b) = R*sin(h) with P = f4 - f3 - f5*b,
  Q = f2 + f5 + f4*b, R = hypot(P, Q) and the phase h = b + phi, where phi
  is the polar angle of (P, Q).  That point moves along a straight line, so
  phi is monotone and sweeps less than pi, and K = P*Q' - Q*P' =
  f4^2 + f5^2 - f3*f4 + f2*f5 is a constant.  h' = 1 + K/R^2 vanishes only
  where R^2 = -K, a quadratic in b: at most two critical points of h.  G' = 0
  where h crosses a multiple of pi, found by a bracketed solve on each
  monotone piece of h, and at the point where P = Q = 0, which exists only
  when K = 0 (phi jumps by pi there).

Before any of that, both shapes check an O(1) no-root certificate: a bound
showing |G| > graze (the feasibility slack) on the whole domain, so there is
no sign change, exact zero or grazing stationary point.  The bound carries
``_ROUNDING``*scale more, far above the rounding of G, so it fires only
where the full isolation returns no root either.

* quadcos: |c3*cos(b)| <= |c3|, and q(b) = c1*b^2 + c2*b + c4 takes its
  extremes on [lo, hi] at the ends or at the vertex -c2/(2*c1).  No root if
  q stays above |c3| + graze, or below -(|c3| + graze).
* envelope: |(f2 + b*f4)*sin(b) + (f3 + b*f5)*cos(b)| <= hypot(f2 + b*f4,
  f3 + b*f5), a norm of an affine function of b, so convex and largest at
  an end of [lo, hi].  No root if |f1| exceeds that plus graze.

Every bracketed solve is a safeguarded Newton iteration polished to machine
precision.  A piece is bracketed when G has strictly opposite signs at its
ends, compared as signs: their product underflows below about 1e-162.  A knot
where G is exactly zero is a root, grazing unless G has strictly opposite
signs at the neighbouring knots, and a plain crossing within ``_KNOT_EDGE``
of an end.  Stationary points where |G| stays within the feasibility slack
are reported separately as tangential roots.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import DEFAULT_TOLERANCES, TWO_PI, ToleranceSet, _Record, mod2pi

#: Bound on G's rounding relative to its scale: a few eps on terms of at most
#: 4*pi^2*scale, < 5e-14.  Larger only makes the no-root certificates rarer.
_ROUNDING = 1e-12
#: Merge window of tangential roots and of candidates: rounding moves a double root
#: by sqrt(2*_ROUNDING) = 1.4e-6; roots sqrt(8*feas_tol) = 2.8e-3 apart are 2 contacts.
_GRAZE_WINDOW = 1e-5
#: A zero at a knot this close to lo or hi is a crossing: G at that end is then
#: |G''|*e^2/2 ~ _ROUNDING*scale (e = sqrt(_ROUNDING), |G''| ~ scale), rounding.
_KNOT_EDGE = 1e-6
#: scale above which a solver first rescales its coefficients (``_rescaled``)
_HUGE = 2.0**128


def _finite(cls, values: tuple[float, ...]):
    """A coefficient record of ``values``, which must all be finite."""
    if not math.isfinite(sum(values)):  # a sum of finite values can overflow
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"coefficients must be finite, got {v}")
    return tuple.__new__(cls, values)


class _Coeffs(_Record):
    """The ``scale`` of the coefficient records: 1 + the sum of |coefficient|."""
    __slots__ = ()

    @property
    def scale(self) -> float:
        total = 1.0
        for v in self:
            total += abs(v)
        return total


class QuadCosCoeffs(_Coeffs, namedtuple("QuadCosCoeffs", "c1 c2 c3 c4")):
    __slots__ = ()

    def __new__(cls, c1: float, c2: float, c3: float, c4: float):
        return _finite(cls, (c1, c2, c3, c4))


class SinusoidCoeffs(_Coeffs, namedtuple("SinusoidCoeffs", "e1 e2 e3")):
    __slots__ = ()

    def __new__(cls, e1: float, e2: float, e3: float):
        return _finite(cls, (e1, e2, e3))


class EnvelopeCoeffs(_Coeffs, namedtuple("EnvelopeCoeffs", "f1 f2 f3 f4 f5")):
    __slots__ = ()

    def __new__(cls, f1: float, f2: float, f3: float, f4: float, f5: float):
        return _finite(cls, (f1, f2, f3, f4, f5))


class RootSet(_Record, namedtuple("RootSet", "roots tangential")):
    """Isolated roots on [0, 2*pi), sorted ascending; ``tangential[i]`` marks a
    grazing root, found where |G| is small rather than by a sign change.
    ``len`` counts the roots, not the two fields."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.roots)


_EMPTY = RootSet((), ())


def _rescaled(coeffs):
    """``coeffs`` and its scale.  Above ``_HUGE`` the record is first divided
    by the power of two of its largest |coefficient|: exact, so G keeps its
    roots, and neither the scale nor G overflows.  Smaller records pass
    untouched."""
    scale = coeffs.scale
    if scale > _HUGE:
        shift = -math.frexp(max(map(abs, coeffs)))[1]
        coeffs = type(coeffs)(*(math.ldexp(v, shift) for v in coeffs))
        scale = coeffs.scale
    return coeffs, scale


def _root_set(found: list[tuple[float, bool]]) -> RootSet:
    """The root set of (root, tangential) detections in detection order,
    dropping those outside [0, 2*pi).  Sign-change roots merge only when
    equal; a tangential detection merges within ``_GRAZE_WINDOW`` and yields to
    a sign-change root: both see one near-double contact, reported once."""
    kept: list[tuple[float, bool]] = []
    for root, tangential in found:
        if not 0.0 <= root < TWO_PI:
            continue
        for i, (r, was_tangential) in enumerate(kept):
            if r == root or (tangential or was_tangential) and abs(r - root) <= _GRAZE_WINDOW:
                if was_tangential and not tangential:
                    kept[i] = (root, False)
                break
        else:
            kept.append((root, tangential))
    if not kept:
        return _EMPTY
    kept.sort()
    roots, tangential = zip(*kept)
    return RootSet(roots, tangential)


def _refine(fused, lo: float, hi: float, flo: float, level: float = 0.0) -> float:
    """Safeguarded Newton inside a sign-change bracket of value - ``level``.

    ``fused(x)`` returns (value, derivative), and ``flo`` is value - level at
    ``lo``.  Each step starts from an end of the current bracket.  A Newton
    step that would leave the bracket falls back to bisection, and from the
    ninth step on so does one not shorter than 0.9 of the bracket.  So a
    Newton step that overshoots the root leaves a bracket at most 0.9 as
    wide, and one that falls short moves its end toward the root: convergence
    is guaranteed, and a Newton 2-cycle across a steep rise, which shrinks the
    bracket by almost nothing per step, cannot last.  A Newton step onto an
    end or just past it probes half the closing width inside that end.  The
    bracket closes around the root at machine width, and the root returned is
    the bracket end where |value - level| is smaller."""
    x = 0.5 * (lo + hi)
    neg = flo < 0.0
    fhi = math.inf
    for n in range(120):
        fx, dx = fused(x)
        fx -= level
        if fx == 0.0:
            return x
        if neg != (fx < 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        width = 1e-14 + 4.0e-16 * hi
        if hi - lo <= width:
            break
        if dx != 0.0:
            step = fx / dx
            if abs(step) < 0.5 * width:
                # Converged from one side: step just past the root so that the
                # bracket closes, instead of bisecting the far end down.
                step = math.copysign(0.5 * width, step)
            xn = x - step
            if lo < xn < hi and (n < 8 or abs(step) < 0.9 * (hi - lo)):
                x = xn
                continue
            if lo - width <= xn <= lo or hi <= xn <= hi + width:  # a root within rounding of an end
                x = lo + 0.5 * width if xn <= lo else hi - 0.5 * width
                continue
        x = 0.5 * (lo + hi)
    return lo if abs(flo) <= abs(fhi) else hi


def _monotone_roots(
    fused, lo: float, hi: float, stationary, graze: float
) -> list[tuple[float, bool]]:
    """Roots of G on [lo, hi), given every stationary point of G there, as
    (root, tangential) detections for ``_root_set``.  ``fused(x)`` returns
    (G(x), G'(x)), the form ``_refine`` takes.

    G is monotone between consecutive points of {lo, hi} and ``stationary``,
    so each piece holds at most one sign change, found by a bracketed solve.
    A knot where G is exactly zero counts once: grazing unless G has strictly
    opposite signs at the two neighbouring knots, which carry its sign on
    each side because G is monotone there; within ``_KNOT_EDGE`` of lo or hi
    it is a plain crossing.  A stationary point where |G| is within
    ``graze`` is a tangential (grazing) root.
    """
    found, tangents = [], []
    a, fa, left = lo, math.nan, math.nan  # the last knot, G there and at the one before
    for b in sorted({lo, hi, *stationary}):
        fb = fused(b)[0]
        if fa == 0.0:
            edge = a - _KNOT_EDGE < lo or a + _KNOT_EDGE > hi  # a = lo leaves left unused
            found.append((a, not (edge or left < 0.0 < fb or fb < 0.0 < left)))
        elif fa < 0.0 < fb or fb < 0.0 < fa:  # as signs: fa * fb underflows below 1e-162
            found.append((_refine(fused, a, b, fa), False))
        if b in stationary and abs(fb) <= graze:
            tangents.append((b, True))
        a, fa, left = b, fb, fa
    return found + tangents


def _quadcos_rootless(coeffs: QuadCosCoeffs, lo: float, hi: float, slack: float) -> bool:
    """The no-root certificate of the module docstring; slack = graze + rounding."""
    c1, c2, c3, c4 = coeffs
    v = min(max(-c2 / (2.0 * c1), lo), hi) if c1 != 0.0 else lo  # vertex, clamped
    extremes = ((c1 * lo + c2) * lo + c4, (c1 * hi + c2) * hi + c4, (c1 * v + c2) * v + c4)
    reach = abs(c3) + slack
    return min(extremes) > reach or max(extremes) < -reach


def _envelope_rootless(coeffs: EnvelopeCoeffs, lo: float, hi: float, slack: float) -> bool:
    """The no-root certificate of the module docstring; slack = graze + rounding."""
    f1, f2, f3, f4, f5 = coeffs
    reach = max(math.hypot(f2 + lo * f4, f3 + lo * f5), math.hypot(f2 + hi * f4, f3 + hi * f5))
    return abs(f1) > reach + slack


def solve_quadcos(
    coeffs: QuadCosCoeffs,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    domain: tuple[float, float] | None = None,
) -> RootSet:
    """All real roots of c1*b^2 + c2*b + c3*cos(b) + c4 on [0, 2*pi), or on a
    half-open subinterval of it when ``domain`` narrows the search.

    No-root certificate first: |G| >= |q| - |c3| with q = c1*b^2 + c2*b + c4,
    whose extremes on [lo, hi] lie at the ends or the vertex; if q clears
    |c3| + graze (plus rounding) with one sign, G has no root there.

    Otherwise, subdivision order: the at-most-two closed-form roots of G''
    split the domain into pieces where G' is monotone; bracketed solves give
    every root of G' (at most three); those stationary points in turn split
    the domain into at most four pieces where G itself is monotone.
    """
    lo, hi = domain if domain is not None else (0.0, TWO_PI)
    if not hi > lo:
        return _EMPTY
    coeffs, scale = _rescaled(coeffs)
    graze = tol.feas_tol * scale
    if _quadcos_rootless(coeffs, lo, hi, graze + _ROUNDING * scale):
        return _EMPTY
    c1, c2, c3, c4 = coeffs
    two_c1 = 2.0 * c1
    cos, sin = math.cos, math.sin

    def g_fused(b: float) -> tuple[float, float]:
        return (c1 * b + c2) * b + c3 * cos(b) + c4, two_c1 * b + c2 - c3 * sin(b)

    def gp_fused(b: float) -> tuple[float, float]:
        return two_c1 * b + c2 - c3 * sin(b), two_c1 - c3 * cos(b)

    # Roots of G'' in closed form.
    inflections: list[float] = []
    if c3 != 0.0 and -1.0 <= two_c1 / c3 <= 1.0:
        b = math.acos(two_c1 / c3)
        if lo < b < hi:
            inflections.append(b)
        if lo < TWO_PI - b < hi:  # b = pi twice is harmless: knots are a set
            inflections.append(TWO_PI - b)

    # G' is monotone between the inflections (constant when c1 = c3 = 0); no
    # graze, so every root of G' is one where it changes sign or is exactly
    # zero.
    stationary = [r for r, _ in _monotone_roots(gp_fused, lo, hi, inflections, -1.0)]
    return _root_set(_monotone_roots(g_fused, lo, hi, stationary, graze))


def solve_sinusoid(coeffs: SinusoidCoeffs, tol: ToleranceSet = DEFAULT_TOLERANCES) -> RootSet:
    """Roots of e1 + e2*sin(b) + e3*cos(b) = 0, analytically.

    Writes the oscillating part as R*sin(b + phi) with R = hypot(e2, e3):
    no roots when |e1| > R + graze, a single grazing root when |e1| is
    within graze of R, and two arcsine branches otherwise.  The band is
    compared without dividing by R, which a subnormal R would overflow.
    """
    coeffs, scale = _rescaled(coeffs)
    e1, e2, e3 = coeffs
    amp = math.hypot(e2, e3)
    if amp == 0.0:
        return _EMPTY
    phi = math.atan2(e3, e2)
    graze = tol.feas_tol * scale
    if abs(e1) > amp + graze:
        return _EMPTY
    if abs(e1) >= amp - graze:
        # Grazing: R*sin(b + phi) = -e1 with |e1| ~ R.
        return _root_set([(mod2pi(math.copysign(math.pi / 2.0, -e1) - phi), True)])
    psi = math.asin(-e1 / amp)
    return _root_set([(mod2pi(psi - phi), False), (mod2pi(math.pi - psi - phi), False)])


def solve_envelope(
    coeffs: EnvelopeCoeffs,
    tol: ToleranceSet = DEFAULT_TOLERANCES,
    domain: tuple[float, float] | None = None,
) -> RootSet:
    """All roots of f1 + f2*sin(b) + f3*cos(b) + b*(f4*sin(b) + f5*cos(b)) on
    [0, 2*pi), or on a half-open subinterval of it when ``domain`` narrows the
    search.

    No-root certificate first: the oscillating part is at most hypot(f2 +
    b*f4, f3 + b*f5), convex in b and so largest at an end of [lo, hi]; if
    |f1| exceeds that by graze (plus rounding), G has no root there.

    Otherwise the cost is bounded whatever the coefficients.  h is monotone
    on at most three pieces, and a piece whose image has length V holds at
    most ceil(V/pi) multiples of pi.  For K > 0, h rises by less than
    2*pi + pi: at most three roots of G'.  For K < 0, h falls by less than pi
    between its critical points and rises by at most 2*pi elsewhere: at most
    1 + 3.  For K = 0, G' = (b - b0)*|d|*sin(b + theta): at most 1 + 2.  So G
    has at most four stationary points and five monotone pieces, which takes
    at most nine bracketed solves (four for h, five for G) of at most 120
    steps each, plus fewer than 30 single evaluations at knots.
    """
    lo, hi = domain if domain is not None else (0.0, TWO_PI)
    if not hi > lo:
        return _EMPTY
    coeffs, scale = _rescaled(coeffs)
    graze = tol.feas_tol * scale
    if _envelope_rootless(coeffs, lo, hi, graze + _ROUNDING * scale):
        return _EMPTY
    f1, f2, f3, f4, f5 = coeffs
    cos, sin = math.cos, math.sin

    def g_fused(b: float) -> tuple[float, float]:
        s, c = sin(b), cos(b)
        return (
            f1 + f2 * s + f3 * c + b * (f4 * s + f5 * c),
            f2 * c - f3 * s + f4 * s + f5 * c + b * (f4 * c - f5 * s),
        )

    stationary = _envelope_stationary(coeffs, lo, hi)
    return _root_set(_monotone_roots(g_fused, lo, hi, stationary, graze))


def _envelope_stationary(coeffs: EnvelopeCoeffs, lo: float, hi: float) -> list[float]:
    """Every root of the envelope shape's G' on [lo, hi): at most four.

    With d = (P', Q') = (-f5, f4), a = |d|^2 and b0 = -(f2*f4 + f3*f5)/a,
    where (P, Q) passes closest to the origin, the polar angle of (P, Q) is
    phi(b) = atan2(f4, -f5) + atan2(-K, a*(b - b0)), continuous for K != 0.
    For K = 0 the line runs through the origin (or (P, Q) stands still, when
    a = 0), and G' = (b - b0)*|d|*sin(b + theta) gives the roots directly.
    """
    _, f2, f3, f4, f5 = coeffs
    # G' has the roots of any positive multiple of it: scale by a power of
    # two, which is exact, so that a product of four of the largest
    # coefficients, as in k*k below, does not underflow.  It cannot overflow:
    # ``solve_envelope`` has brought every coefficient to at most ``_HUGE``.
    big = max(abs(f2), abs(f3), abs(f4), abs(f5))
    if 0.0 < big < 2.0**-128:
        f2, f3, f4, f5 = (math.ldexp(f, -math.frexp(big)[1]) for f in (f2, f3, f4, f5))
    pi, atan2 = math.pi, math.atan2
    a = f4 * f4 + f5 * f5
    cross = f2 * f4 + f3 * f5
    k = a - f3 * f4 + f2 * f5
    if k == 0.0:
        theta = atan2(f4, -f5) if a > 0.0 else atan2(f2, -f3)
        first = math.floor((lo + theta) / pi)
        found = [j * pi - theta for j in range(first, first + 4)]
        if a > 0.0:
            found.append(-cross / a)
        return sorted({b for b in found if lo <= b < hi})

    theta, kk, ka, minus_k = atan2(f4, -f5), k * k, k * a, -k

    def phase(b: float) -> tuple[float, float]:
        # (h, h').  k*k + x*x underflows to 0 only where K and x are
        # both below 1e-162; h' is then only a Newton hint, which ``_refine``
        # drops when it leaves the bracket.
        x = a * b + cross
        r2 = kk + x * x
        return b + theta + atan2(minus_k, x), 1.0 + ka / r2 if r2 else 1.0

    knots = [lo]
    if k < 0.0 and a + k >= 0.0:
        b0, half = -cross / a, math.sqrt(-k * (a + k)) / a
        knots += [c for c in (b0 - half, b0 + half) if lo < c < hi]
    knots.append(hi)
    phases = [phase(c)[0] for c in knots]
    found = []
    for p, q, hp, hq in zip(knots, knots[1:], phases, phases[1:]):
        low, high = min(hp, hq), max(hp, hq)
        for j in range(math.floor(low / pi), math.ceil(high / pi) + 1):
            level = j * pi
            if level == hp:
                found.append(p)
            elif low < level < high:
                found.append(_refine(phase, p, q, hp - level, level))
    return found

