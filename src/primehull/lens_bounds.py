"""Analytic window bounds around the prime counting function, and a scan of
the primes against them.

Models the envelope phi(x) = L(x) - eps(x) with L(x) = integral from 2 to
x of dt/ln t and eps(x) = sqrt(x) ln x, and bounds how far from x the
tangent to phi at x stays below L + eps.  The exact crossings h- < 0 < h+
of

    L(x+h) + eps(x+h) = phi(x) + phi'(x) h

are bracketed by the roots of a cubic majorant W_x(h) obtained by
replacing L and eps with their degree-3 Taylor polynomials (their fourth
derivatives are negative, so the polynomials dominate):

    W_x(h) = A3 h^3 + A2 h^2 + A1 h + A0,
    A3 = (L'''(x) + eps'''(x)) / 6,   A2 = (L''(x) + eps''(x)) / 2,
    A1 = 2 eps'(x),                   A0 = 2 eps(x).

Substituting h = theta x and normalizing by A3 x^3 gives the reduced cubic

    theta^3 - 3 theta^2 + v2 theta^2 + v1 theta + v0 = 0

whose coefficients v_i are positive, o(1), and evaluated from symbolic
closed forms (never by dividing evaluated A's, which span ~30 orders of
magnitude).  With y = ln x and D = 8 sqrt(x)(y+2) + y^3 (3y-2):

    v2 = 3 (16 sqrt(x) + y^4 - 2 y^3) / D
    v1 = 48 (y+2) y^3 / D
    v0 = 96 y^4 / D

All terms are positive, so the closed forms are cancellation-free and
float64 evaluation is accurate to a few ulp.  The tests check the Taylor
domination, these identities, the window roots and its threshold against
mpmath references in tests/oracles.py.

``verify_envelope`` checks the band L - eps < pi < L + eps itself at
every prime up to a limit: it sieves the primes, sums L over the gaps
between consecutive primes with ``li_panels``, and reports the primes where
|pi(p) - L(p)| >= eps(p) and the largest ratio |pi(p) - L(p)| / eps(p).
Under RH, pi stays within a constant times eps of L (von Koch 1901;
Schoenfeld, Math. Comp. 1976).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prime_stream import LimitTooLargeError, SieveConfig, iter_prime_blocks

# Gauss-Legendre (nodes, weights): 32 points for the geometric panels of
# _tangent_gap, 12 for the short prime-gap panels of the envelope scan.
GL32 = np.polynomial.legendre.leggauss(32)
GL12 = np.polynomial.legendre.leggauss(12)


class ThetaPreconditionError(ValueError):
    """x is too small for the window [-1, 1]."""


def li_panels(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Integral of dt/ln t over each [lefts[i], rights[i]], one GL12 panel each.

    One 12-point panel suffices for consecutive-prime gaps: even the worst,
    [2, 3], is accurate to ~1e-18 relative, and long gaps sit far from the
    integrand's singularity.
    """
    nodes, weights = GL12
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    return half * np.dot(1.0 / np.log(t), weights)


def cubic_coeffs(x: float) -> tuple[float, float, float]:
    """Closed-form reduced-cubic coefficients (v2, v1, v0).

    They are computed symbolically (common factors cancelled by hand); the
    identities v2 = 3 + A2/(A3 x), v1 = A1/(A3 x^2) and v0 = A0/(A3 x^3)
    hold to 1e-14 relative against A3..A0 from mpmath in the tests.  v1 carries the factor (y+2)
    from A1: the identity forces it.
    """
    if x < 2:
        raise ValueError(f"cubic_coeffs requires x >= 2, got {x}")
    y = math.log(x)
    sx = math.sqrt(x)
    y3 = y**3
    y4 = y3 * y
    d_common = 8.0 * sx * (y + 2.0) + y3 * (3.0 * y - 2.0)
    v2 = 3.0 * (16.0 * sx + y4 - 2.0 * y3) / d_common
    v1 = 48.0 * (y + 2.0) * y3 / d_common
    v0 = 96.0 * y4 / d_common
    return v2, v1, v0


def reduced_value(theta: float, v2: float, v1: float, v0: float) -> float:
    """The reduced cubic g(theta) = theta^3 + (v2 - 3) theta^2 + v1 theta + v0."""
    return ((theta + (v2 - 3.0)) * theta + v1) * theta + v0


def _bisect(f, lo: float, hi: float) -> float:
    """Bisection on [lo, hi], with f(lo) and f(hi) of opposite sign, to adjacent floats."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("bisection bracket does not change sign")
    while (mid := 0.5 * (lo + hi)) != lo and mid != hi:
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _double_until(pred, start: float) -> float:
    """First of start, 2 start, 4 start, ... where pred holds; 64 doublings at most."""
    for k in range(65):
        x = start * 2.0**k
        if pred(x):
            return x
    raise ValueError(f"no bracket found within 64 doublings of {start}")


def solve_theta(x: float) -> tuple[float, float]:
    """Roots (theta_minus, theta_plus), theta- < 0 < theta+, of the reduced cubic g in [-1, 1].

    Requires g(1) = v2 + v1 + v0 - 2 < 0.  Then g(-1) = v2 - v1 + v0 - 4 < 0
    as well, while g(0) = v0 > 0, so g changes sign on both half-windows;
    its third root lies beyond 1, which leaves exactly one root in each.
    Raises ThetaPreconditionError where g(1) >= 0, that is where g has no
    positive root or its smallest one is >= 1: below x ~ 1.4778e10, the
    root of g(1) that the tests find with mpmath (mp_window_threshold).
    """
    v2, v1, v0 = cubic_coeffs(x)
    g = lambda theta: reduced_value(theta, v2, v1, v0)
    if not g(1.0) < 0.0:
        raise ThetaPreconditionError(
            f"x={x} too small for the window [-1, 1]: g(1) = {g(1.0):.6g} >= 0 "
            f"(v2, v1, v0 = {v2:.6g}, {v1:.6g}, {v0:.6g})"
        )
    return _bisect(g, -1.0, 0.0), _bisect(g, 0.0, 1.0)


def _tangent_gap(x: float, h: float) -> float:
    """F(h) = L(x+h) + eps(x+h) - phi(x) - phi'(x) h, evaluated relative to x.

    With r = h/x and y = ln x,

        F = x I + sqrt(x) (sqrt(1+r) (y + log1p(r)) + y + (y+2) r/2),
        I = integral from 0 to r of -log1p(u) / (y (y + log1p(u))) du.

    x I is L(x+h) - L(x) - h/y, whose two terms of size h/y would cancel
    down to about eps(x); so neither is formed, and neither is x + h.  I is
    integrated in s = log1p(u), on 32-point Gauss-Legendre panels of width
    at most ln 2 (geometric in 1 + u).  The integrand -s e^s / (y (y+s))
    has its one pole at t = x e^s = 1, at least ln 2 away on the domain
    x + h >= 2.  F(0) = 2 eps(x) > 0.
    """
    y = math.log(x)
    r = h / x
    s_end = math.log1p(r)
    edges = np.linspace(0.0, s_end, max(1, math.ceil(abs(s_end) / math.log(2.0))) + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    s = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * GL32[0]
    integral = math.fsum((half * np.dot(s * np.exp(s) / (y + s), GL32[1])).tolist())
    tail = math.sqrt(1.0 + r) * (y + s_end) + y + 0.5 * (y + 2.0) * r
    return math.sqrt(x) * tail - x * integral / y


def solve_h_exact(x: float) -> tuple[float, float]:
    """Exact crossings (h_minus, h_plus), h- < 0 < h+, of L + eps with the tangent.

    F is strictly concave in h (its second derivative is L'' + eps'' < 0),
    positive at h=0, and heads to -inf as h grows, so each side has at most
    one crossing.  Both lie beyond x^(3/4) in size (about 2 x^(3/4) ln^1.5 x
    for large x), so each side is searched by doubling from there.  The
    negative side requires F to have turned negative by the domain edge
    x+h = 2, which first holds near x = 8.03e5; smaller x is rejected.
    """
    f = lambda h: _tangent_gap(x, h)
    start = x**0.75
    h_plus = _bisect(f, 0.0, _double_until(lambda h: f(h) < 0, start))

    edge = 2.0 - x + 1e-9 * x
    lo = max(_double_until(lambda h: h <= edge or f(h) < 0, -start), edge)
    if not f(lo) < 0:
        raise ValueError(
            f"tangent does not cross on the negative side before the domain "
            f"edge at x={x}; x too small"
        )
    return _bisect(f, lo, 0.0), h_plus


@dataclass(frozen=True)
class EnvelopeReport:
    checked: int
    violations: tuple[int, ...]  # primes p >= 11 with |pi - Li| >= sqrt(p) ln p
    boundary_flags: tuple[int, ...]  # same exceedance among p < 11
    max_ratio: float  # max over p >= 11 of |pi - Li| / (sqrt(p) ln p)
    argmax_p: int


ENVELOPE_BOUNDARY = 11
_ENVELOPE_MAX = 10**9


def verify_envelope(limit: int) -> EnvelopeReport:
    """Scan primes p <= limit for |pi(p) - Li(p)| < sqrt(p) ln p.

    Li is accumulated incrementally, one ``li_panels`` panel per prime gap.
    Within a sieve block the increments are summed by a float64 cumulative
    sum onto Li at the block's first left end; that base is the ``math.fsum``
    of every earlier block's increments, so rounding does not build up
    across blocks.  The inequality genuinely fails at p=2, so primes below
    11 are reported as boundary flags rather than counted as violations.  A
    limit below 11 leaves nothing to measure and raises ValueError; one
    above 10^9 raises LimitTooLargeError.
    """
    if limit > _ENVELOPE_MAX:
        raise LimitTooLargeError(f"envelope scan limited to {_ENVELOPE_MAX}, got {limit}")
    if limit < ENVELOPE_BOUNDARY:
        raise ValueError(f"envelope limit must be >= {ENVELOPE_BOUNDARY}, got {limit}")
    block_sums: list[float] = []  # fsum of each block's Li increments
    prev_p = 2.0
    violations: list[int] = []
    boundary: list[int] = []
    max_ratio = -1.0
    argmax_p = 2
    checked = 0
    for primes, pis, _high in iter_prime_blocks(SieveConfig(limit=limit)):
        if not len(primes):
            continue
        pf = primes.astype(np.float64)
        lefts = np.concatenate(([prev_p], pf[:-1]))
        incs = li_panels(lefts, pf)
        # Li at each prime of the block, from Li at prev_p.
        li_vals = math.fsum(block_sums) + np.cumsum(incs)
        bounds = np.sqrt(pf) * np.log(pf)
        ratios = np.abs(pis.astype(np.float64) - li_vals) / bounds
        for p in primes[ratios >= 1.0].tolist():
            if p < ENVELOPE_BOUNDARY:
                boundary.append(p)
            else:
                violations.append(p)
        big = primes >= ENVELOPE_BOUNDARY
        if np.any(big):
            j = int(np.argmax(np.where(big, ratios, -np.inf)))
            if ratios[j] > max_ratio:
                max_ratio = float(ratios[j])
                argmax_p = int(primes[j])
        block_sums.append(math.fsum(incs.tolist()))
        prev_p = float(pf[-1])
        checked += len(primes)
    return EnvelopeReport(
        checked=checked,
        violations=tuple(violations),
        boundary_flags=tuple(boundary),
        max_ratio=max_ratio,
        argmax_p=argmax_p,
    )
