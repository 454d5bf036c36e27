"""Analytic window bounds around the prime counting function.

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
float64 evaluation is accurate to a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Gauss-Legendre (nodes, weights): 32 points for the geometric panels of
# li_between and _tangent_gap, 12 for the short prime-gap panels of the
# envelope scan.
GL32 = np.polynomial.legendre.leggauss(32)
GL12 = np.polynomial.legendre.leggauss(12)


class ThetaPreconditionError(ValueError):
    """x is too small for the window [-1, 1]."""


def li_panels(lefts: np.ndarray, rights: np.ndarray, rule) -> np.ndarray:
    """Integral of dt/ln t over each [lefts[i], rights[i]], one panel each.

    ``rule`` is a Gauss-Legendre (nodes, weights) pair, GL32 or GL12.  One
    12-point panel suffices for consecutive-prime gaps: even the worst,
    [2, 3], is accurate to ~1e-18 relative, and long gaps sit far from the
    integrand's singularity.
    """
    nodes, weights = rule
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    return half * np.dot(1.0 / np.log(t), weights)


def li_between(a: float, b: float) -> float:
    """Integral of dt/ln t over [a, b] for 2 <= a <= b.

    Panels are split geometrically with ratio 2; the integrand is analytic
    on [2, inf) with its singularity at t=1 at least one panel-width away,
    so each 32-point panel is accurate to far below 1e-14 relative.
    """
    if b < a or a < 2:
        raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")
    edges = [a]
    while 2 * edges[-1] < b:
        edges.append(2 * edges[-1])
    edges = np.array(edges + [b], dtype=np.float64)
    return math.fsum(li_panels(edges[:-1], edges[1:], GL32).tolist())


def li(x: float) -> float:
    """L(x) = integral from 2 to x of dt/ln t, relative error <= 1e-12."""
    if x < 2:
        raise ValueError(f"li requires x >= 2, got {x}")
    return li_between(2.0, x)


@dataclass(frozen=True)
class AnalyticDerivatives:
    """Closed-form derivatives of L and eps at one point, y = ln x.

    The middle member identities (all verified against finite differences
    in the tests):

        L'   = 1/y                     eps   = sqrt(x) y
        L''  = -1/(x y^2)              eps'  = (y+2)/(2 sqrt(x))
        L''' = (y+2)/(x^2 y^3)         eps'' = -y/(4 x sqrt(x))
        L'''' = -(2y^2+6y+6)/(x^3 y^4) eps''' = (3y-2)/(8 x^2 sqrt(x))
                                       eps''''= (16-15y)/(16 x^3 sqrt(x))
    """

    x: float
    l1: float
    l2: float
    l3: float
    l4: float
    eps: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float


def derivatives(x: float) -> AnalyticDerivatives:
    if x < 2:
        raise ValueError(f"derivatives require x >= 2, got {x}")
    y = math.log(x)
    sx = math.sqrt(x)
    return AnalyticDerivatives(
        x=x,
        l1=1.0 / y,
        l2=-1.0 / (x * y * y),
        l3=(y + 2.0) / (x * x * y**3),
        l4=-(2.0 * y * y + 6.0 * y + 6.0) / (x**3 * y**4),
        eps=sx * y,
        eps1=(y + 2.0) / (2.0 * sx),
        eps2=-y / (4.0 * x * sx),
        eps3=(3.0 * y - 2.0) / (8.0 * x * x * sx),
        eps4=(16.0 - 15.0 * y) / (16.0 * x**3 * sx),
    )


def taylor_upper_l(x: float, h: float) -> float:
    """Degree-3 Taylor polynomial of L at x; dominates L(x+h) since L''''<0."""
    d = derivatives(x)
    return li(x) + h * (d.l1 + h * (d.l2 / 2.0 + h * d.l3 / 6.0))


def taylor_upper_eps(x: float, h: float) -> float:
    """Degree-3 Taylor polynomial of eps at x; dominates eps(x+h) for x > e^(16/15)."""
    d = derivatives(x)
    return d.eps + h * (d.eps1 + h * (d.eps2 / 2.0 + h * d.eps3 / 6.0))


@dataclass(frozen=True)
class CubicProblem:
    """Coefficients of the reduced theta cubic at one x."""

    x: float
    v2: float
    v1: float
    v0: float

    def w_value(self, h: float) -> float:
        """W_x(h), with the coefficients A3..A0 taken from ``derivatives``."""
        d = derivatives(self.x)
        a3 = (d.l3 + d.eps3) / 6.0
        a2 = (d.l2 + d.eps2) / 2.0
        return ((a3 * h + a2) * h + 2.0 * d.eps1) * h + 2.0 * d.eps

    def reduced_value(self, theta: float) -> float:
        return ((theta + (self.v2 - 3.0)) * theta + self.v1) * theta + self.v0


def cubic_coeffs(x: float) -> CubicProblem:
    """Closed-form reduced-cubic coefficients v2, v1, v0.

    They are computed symbolically (common factors cancelled by hand); the
    identities v2 = 3 + A2/(A3 x), v1 = A1/(A3 x^2) and v0 = A0/(A3 x^3)
    are pinned to 1e-12 relative in the tests.  v1 carries the factor (y+2)
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
    return CubicProblem(x=x, v2=v2, v1=v1, v0=v0)


@dataclass(frozen=True)
class ThetaRoots:
    x: float
    theta_minus: float
    theta_plus: float
    residual_minus: float
    residual_plus: float

    @property
    def h_star_minus(self) -> float:
        return self.theta_minus * self.x

    @property
    def h_star_plus(self) -> float:
        return self.theta_plus * self.x


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


def solve_theta(x: float) -> ThetaRoots:
    """Roots theta- < 0 < theta+ of the reduced cubic g inside [-1, 1].

    Requires g(1) = v2 + v1 + v0 - 2 < 0.  Then g(-1) = v2 - v1 + v0 - 4 < 0
    as well, while g(0) = v0 > 0, so g changes sign on both half-windows;
    its third root lies beyond 1, which leaves exactly one root in each.
    Raises ThetaPreconditionError where g(1) >= 0, that is where g has no
    positive root or its smallest one is >= 1: below working_threshold()
    ~ 1.478e10.
    """
    prob = cubic_coeffs(x)
    g = prob.reduced_value
    if not g(1.0) < 0.0:
        raise ThetaPreconditionError(
            f"x={x} too small for the window [-1, 1]: g(1) = {g(1.0):.6g} >= 0 "
            f"(v2, v1, v0 = {prob.v2:.6g}, {prob.v1:.6g}, {prob.v0:.6g})"
        )
    theta_plus = _bisect(g, 0.0, 1.0)
    theta_minus = _bisect(g, -1.0, 0.0)
    return ThetaRoots(
        x=x,
        theta_minus=theta_minus,
        theta_plus=theta_plus,
        residual_minus=abs(g(theta_minus)),
        residual_plus=abs(g(theta_plus)),
    )


def theta_extreme_roots(x: float) -> tuple[float, Optional[float]]:
    """The cubic's negative root and smallest positive root (None if absent).

    The reduced cubic always has exactly one negative root (one sign change
    in its reflection), and zero or two positive roots.  No window
    restriction: this is the honest "where does the majorant cross zero"
    question, answered wherever the crossing exists.
    """
    prob = cubic_coeffs(x)
    g = prob.reduced_value
    theta_minus = _bisect(g, _double_until(lambda t: g(t) < 0.0, -1.0), 0.0)
    # Positive side: g(0) = v0 > 0 and g'(0) = v1 > 0, so the smallest
    # positive root, when it exists, lies between the two critical points.
    b = prob.v2 - 3.0
    disc = b * b - 3.0 * prob.v1
    if disc <= 0.0:
        return theta_minus, None
    c_lo = (-b - math.sqrt(disc)) / 3.0
    c_hi = (-b + math.sqrt(disc)) / 3.0
    if c_hi <= 0.0 or g(c_hi) > 0.0:
        return theta_minus, None
    theta_plus = _bisect(g, max(c_lo, 0.0), c_hi)
    return theta_minus, theta_plus


@dataclass(frozen=True)
class ExactCrossings:
    x: float
    h_minus: float
    h_plus: float

    @property
    def width(self) -> float:
        return self.h_plus - self.h_minus


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


def solve_h_exact(x: float) -> ExactCrossings:
    """Exact tangent crossings h- < 0 < h+ of L + eps versus the tangent.

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
    h_minus = _bisect(f, lo, 0.0)
    return ExactCrossings(x=x, h_minus=h_minus, h_plus=h_plus)


def working_threshold() -> float:
    """The x where g(1) turns negative, so solve_theta's window starts to hold.

    The v_i decrease beyond ~1e6, so the window holds on an upper ray in
    the ranges of interest; found by doubling, then bisection on g(1) to
    adjacent floats.
    """
    g1 = lambda x: cubic_coeffs(x).reduced_value(1.0)
    hi = _double_until(lambda x: g1(x) < 0.0, 1e6)
    if hi == 1e6:
        raise ValueError("threshold search must start below the acceptance region")
    return _bisect(g1, hi / 2.0, hi)
