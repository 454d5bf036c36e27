"""Independent reference implementations for cross-checking.

Everything here is deliberately naive: a bytearray sieve, a batch convex
hull over Fraction heights (compared by its own cross-multiplied formula,
not the production stacks'), and mpmath-based analytic values.  The point
is that none of the production shortcuts (segmenting, int64 kernels,
closed-form derivatives, fixed-panel quadrature) are shared with these
implementations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    mask = bytearray([1]) * (limit + 1)
    mask[0] = mask[1] = 0
    p = 2
    while p * p <= limit:
        if mask[p]:
            mask[p * p :: p] = bytearray(len(mask[p * p :: p]))
        p += 1
    return [i for i in range(2, limit + 1) for _ in range(mask[i])]


def window_primes(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], 2 <= lo, by a sieve over every integer of the window."""
    mask = bytearray([1]) * (hi - lo + 1)
    for p in sieve_primes(math.isqrt(hi)):
        first = max(p * p, -(-lo // p) * p)
        mask[first - lo :: p] = bytearray(len(range(first - lo, len(mask), p)))
    return list(compress(range(lo, hi + 1), mask))


def prime_points(limit: int) -> list[tuple[int, int]]:
    """(p, pi(p)) for all primes p <= limit."""
    return [(p, i + 1) for i, p in enumerate(sieve_primes(limit))]


class OracleVertex:
    def __init__(self, p, y, ties):
        self.p = p
        self.y = y  # Fraction: pi(p) for the main hull, p/pi(p) for M
        self.ties = ties

    def __repr__(self):
        return f"OracleVertex({self.p}, {self.y}, ties={self.ties})"


def batch_upper_hull(points: Sequence[tuple[int, Fraction]]) -> list[OracleVertex]:
    """Monotone-chain upper hull over Fraction heights, with tie recording.

    A new point pops the stack while slope(prev, top) <= slope(top, new).
    With each height written n/d in lowest terms, both sides are compared
    as integers, multiplied by the positive run lengths and denominators:
    (top.n prev.d - prev.n top.d) new.d (new.p - top.p) against
    (new.n top.d - top.n new.d) prev.d (top.p - prev.p).  An exactly-equal
    comparison transfers the popped vertex and its ties into the new
    point's tie list (the popped vertex lies on the new edge), while a
    strict pop on the first iteration clears any inherited ties (the edge
    that carried them is gone).
    """
    stack: list[OracleVertex] = []
    for p, y in points:
        n, d = y.numerator, y.denominator
        ties: list[int] = []
        first_pop = True
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            an, ad = a.y.numerator, a.y.denominator
            bn, bd = b.y.numerator, b.y.denominator
            lhs = (bn * ad - an * bd) * d * (p - b.p)
            rhs = (n * bd - bn * d) * ad * (b.p - a.p)
            if lhs > rhs:
                break
            popped = stack.pop()
            if lhs == rhs:
                ties = popped.ties + [popped.p] + ties
            elif first_pop:
                ties = []
            first_pop = False
        stack.append(OracleVertex(p, y, ties))
    return stack


def hull_of_primes(limit: int) -> list[OracleVertex]:
    """Upper hull of (p, pi(p)) over all primes <= limit."""
    return batch_upper_hull([(p, Fraction(k)) for p, k in prime_points(limit)])


def m_hull_of_primes(limit: int) -> list[OracleVertex]:
    """Upper hull of (p, p/pi(p)) over all primes <= limit."""
    return batch_upper_hull([(p, Fraction(p, k)) for p, k in prime_points(limit)])


def chord_dominates(vertices: Sequence[tuple[int, Fraction]], points: Sequence[tuple[int, Fraction]]) -> bool:
    """Every point lies on or below the piecewise-linear top of `vertices`."""
    vi = 0
    for p, y in points:
        while vi + 1 < len(vertices) and vertices[vi + 1][0] < p:
            vi += 1
        (ap, ay) = vertices[vi]
        if p == ap:
            if y != ay:
                return False
            continue
        if vi + 1 >= len(vertices):
            continue
        (bp, by) = vertices[vi + 1]
        # y <= ay + (by-ay)/(bp-ap) * (p-ap), cleared of denominators
        if (y - ay) * (bp - ap) > (by - ay) * (p - ap):
            return False
    return True


def m_filter_chain(P, y, idx):
    """The M filter's float chain by the per-point formula, as a bit-exact reference.

    Point i lies on the float hull edge (a, b) = (idx[j], idx[j+1]) with j
    the last vertex position at or before i (the last point closes the
    last edge), and c_i = y[a] + (y[b] - y[a]) * ((P - P[a]) / (P[b] - P[a]))
    with every operand gathered per point.
    """
    import numpy as np

    j = np.minimum(np.searchsorted(idx, np.arange(len(P)), side="right") - 1, len(idx) - 2)
    a, b = idx[j], idx[j + 1]
    return y[a] + (y[b] - y[a]) * ((P - P[a]) / (P[b] - P[a]))


def check_concave(points: Sequence[tuple[int, int]]) -> tuple[bool, Optional[int]]:
    """Whether consecutive slopes of a point chain strictly decrease.

    Returns (True, None) or (False, i) with i the index of the middle point
    of the first violating triple. Fewer than three points are vacuously
    concave.
    """
    for i in range(1, len(points) - 1):
        (xa, ya), (xb, yb), (xc, yc) = points[i - 1], points[i], points[i + 1]
        if xa >= xb or xb >= xc:
            raise ValueError("points must be strictly increasing in x")
        if (yb - ya) * (xc - xb) <= (yc - yb) * (xb - xa):
            return False, i
    return True, None


def mp_li(x, dps: int = 30):
    """Offset logarithmic integral via mpmath: integral from 2 to x."""
    import mpmath as mp

    with mp.workdps(dps):
        return mp.li(x, offset=True)


def mp_tangent_gap(x, h, dps: int = 40):
    """F(h) = L(x+h) + eps(x+h) - (phi(x) + phi'(x) h) in mpmath arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(x)
        h = mp.mpf(h)
        y = mp.log(x)
        eps = mp.sqrt(x) * y
        eps1 = (y + 2) / (2 * mp.sqrt(x))
        phi_p = 1 / y - eps1
        z = x + h
        return mp.li(z, offset=True) - mp.li(x, offset=True) + mp.sqrt(z) * mp.log(z) + eps - phi_p * h


def _mp_bisect(f, lo, hi):
    flo = f(lo)
    assert (flo > 0) != (f(hi) > 0)
    for _ in range(80):
        mid = (lo + hi) / 2
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_h_crossings(x):
    """Exact tangent crossings (h-, h+) solved with mpmath bisection.

    For x >= 1e6 both crossings lie beyond x^(3/4) in size.  Each side
    doubles from there until the gap changes sign, clamped on the negative
    side at the domain edge, then halves the last doubling's bracket 80
    times: to 2^-80 of the crossing.  The precision covers the cancellation
    in li(x+h) - li(x), about sqrt(x) relative to the gap, with 30 digits to
    spare.
    """
    import mpmath as mp

    dps = int(math.log10(x) / 2) + 30
    with mp.workdps(dps):
        f = lambda h: mp_tangent_gap(x, h, dps)
        inner = mp.mpf(x) ** 0.75
        hi = 2 * inner
        while f(hi) > 0:
            inner, hi = hi, 2 * hi
        h_plus = _mp_bisect(f, inner, hi)
        edge = 2 - mp.mpf(x) + mp.mpf(x) * mp.mpf(10) ** -9
        inner = -(mp.mpf(x) ** 0.75)
        lo = max(2 * inner, edge)
        while f(lo) > 0:
            assert lo > edge, f"no negative-side crossing before the domain edge at x={x}"
            inner, lo = lo, max(2 * lo, edge)
        h_minus = _mp_bisect(f, lo, inner)
        return h_minus, h_plus


def mp_taylor3(x):
    """Degree-3 Taylor coefficients [f(x), f'(x), f''(x)/2, f'''(x)/6] of L and of eps.

    Each derivative is mp.diff's central difference with step x * 1e-12.
    Its truncation error, about 1e-24 relative, is what limits it: mp.diff
    evaluates f at several times the 30 digits asked for, so the differencing
    loses nothing.
    """
    import mpmath as mp

    with mp.workdps(30):
        x = mp.mpf(x)
        step = x * mp.mpf(10) ** -12
        return tuple(
            [f(x)] + [mp.diff(f, x, k, h=step) / mp.factorial(k) for k in (1, 2, 3)]
            for f in (lambda t: mp.li(t, offset=True), lambda t: mp.sqrt(t) * mp.log(t))
        )


def mp_w_coeffs(x):
    """A3, A2, A1, A0 of the cubic majorant W_x(h) = T_L(x+h) + T_eps(x+h) - phi(x) - phi'(x) h.

    T_L and T_eps are the degree-3 Taylor polynomials at x and phi = L - eps,
    so the constant and linear terms of L cancel: A1 = 2 eps'(x), A0 = 2 eps(x).
    """
    (_, _, l2, l3), (e0, e1, e2, e3) = mp_taylor3(x)
    return l3 + e3, l2 + e2, 2 * e1, 2 * e0


def mp_theta_roots(v2, v1, v0):
    """Negative root and smallest positive root (None if none) of t^3 + (v2-3) t^2 + v1 t + v0.

    mp.polyroots finds all three roots of the cubic with the given
    coefficients; a root counts as real when its imaginary part is below
    1e-20.
    """
    import mpmath as mp

    with mp.workdps(30):
        roots = mp.polyroots([1, mp.mpf(v2) - 3, v1, v0], maxsteps=200, extraprec=60)
        real = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -20)
        positive = [r for r in real if r > 0]
        return real[0], positive[0] if positive else None


def mp_window_threshold():
    """The x near 1.478e10 where g(1) = v2 + v1 + v0 - 2 changes sign, by mp.findroot.

    The v_i come from mp_w_coeffs through v2 = 3 + A2/(A3 x),
    v1 = A1/(A3 x^2) and v0 = A0/(A3 x^3), so g(1) = W_x(x) / (A3 x^3).
    """
    import mpmath as mp

    def g1(x):
        a3, a2, a1, a0 = mp_w_coeffs(x)
        return 1 + (a2 + (a1 + a0 / x) / x) / (a3 * x)

    with mp.workdps(30):
        return mp.findroot(g1, (mp.mpf(1.4e10), mp.mpf(1.6e10)), solver="anderson")
