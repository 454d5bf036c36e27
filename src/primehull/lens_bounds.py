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

_GL32_NODES, _GL32_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL12_NODES, _GL12_WEIGHTS = np.polynomial.legendre.leggauss(12)


class ThetaPreconditionError(ValueError):
    """x is too small for the requested alpha window."""


def _gl_panel(a: float, b: float) -> float:
    """Gauss-Legendre 32-point integral of 1/ln t over [a, b], 2 <= a <= b."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    t = mid + half * _GL32_NODES
    return half * float(np.dot(_GL32_WEIGHTS, 1.0 / np.log(t)))


def li_between(a: float, b: float) -> float:
    """Integral of dt/ln t over [a, b] for 2 <= a <= b.

    Panels are split geometrically with ratio 2; the integrand is analytic
    on [2, inf) with its singularity at t=1 at least one panel-width away,
    so each 32-point panel is accurate to far below 1e-14 relative.
    """
    if b < a or a < 2:
        raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")
    pieces = []
    lo = a
    while 2 * lo < b:
        pieces.append(_gl_panel(lo, 2 * lo))
        lo = 2 * lo
    pieces.append(_gl_panel(lo, b))
    return math.fsum(pieces)


def li(x: float) -> float:
    """L(x) = integral from 2 to x of dt/ln t, relative error <= 1e-12."""
    if x < 2:
        raise ValueError(f"li requires x >= 2, got {x}")
    return li_between(2.0, x)


def li_gap_increments(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Vectorized integral of dt/ln t over many short intervals.

    Single 12-point panel per interval; intended for consecutive-prime
    gaps, where even the worst case ([2, 3]) is accurate to ~1e-18
    relative and long gaps sit far from the integrand's singularity.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    t = mid[:, None] + half[:, None] * _GL12_NODES[None, :]
    vals = np.dot(1.0 / np.log(t), _GL12_WEIGHTS)
    return half * vals


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
    """Coefficients of W_x and of the reduced theta cubic at one x."""

    x: float
    a3: float
    a2: float
    a1: float
    a0: float
    b2: float
    b1: float
    b0: float
    v2: float
    v1: float
    v0: float

    def w_value(self, h: float) -> float:
        return ((self.a3 * h + self.a2) * h + self.a1) * h + self.a0

    def reduced_value(self, theta: float) -> float:
        return ((theta + (self.v2 - 3.0)) * theta + self.v1) * theta + self.v0


def cubic_coeffs(x: float) -> CubicProblem:
    """Closed-form W_x and reduced-cubic coefficients.

    The normalized forms B_i = A_i / A3 and v_i are computed symbolically
    (common factors cancelled by hand); the identity B_i * A3 = A_i is
    pinned to 1e-12 relative in the tests.  B1 carries the factor (y+2)
    from A1: the consistency identity forces it.
    """
    if x < 2:
        raise ValueError(f"cubic_coeffs requires x >= 2, got {x}")
    y = math.log(x)
    sx = math.sqrt(x)
    y3 = y**3
    y4 = y3 * y
    d_common = 8.0 * sx * (y + 2.0) + y3 * (3.0 * y - 2.0)
    a3 = d_common / (48.0 * x * x * sx * y3)
    if not a3 > 0.0:
        raise ValueError(f"cubic leading coefficient not positive at x={x}")
    a2 = -(4.0 * sx + y3) / (8.0 * x * sx * y * y)
    a1 = (y + 2.0) / sx
    a0 = 2.0 * sx * y
    b2 = -6.0 * x * (4.0 * sx * y + y4) / d_common
    b1 = 48.0 * x * x * (y + 2.0) * y3 / d_common
    b0 = 96.0 * x**3 * y4 / d_common
    v2 = 3.0 * (16.0 * sx + y4 - 2.0 * y3) / d_common
    v1 = 48.0 * (y + 2.0) * y3 / d_common
    v0 = 96.0 * y4 / d_common
    return CubicProblem(x=x, a3=a3, a2=a2, a1=a1, a0=a0, b2=b2, b1=b1, b0=b0, v2=v2, v1=v1, v0=v0)


@dataclass(frozen=True)
class ThetaRoots:
    x: float
    alpha: float
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


def _bisect(f, lo: float, hi: float, iters: int = 120) -> float:
    """Bisection on [lo, hi] with f(lo) and f(hi) of opposite sign."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("bisection bracket does not change sign")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _window_holds(prob: CubicProblem, alpha: float) -> bool:
    """solve_theta's window inequalities; working_threshold searches them too."""
    a2_ = alpha * alpha
    return (
        prob.v2 * a2_ + prob.v1 * alpha + prob.v0 < 2.0 * a2_
        and prob.v2 * a2_ - prob.v1 * alpha + prob.v0 < 2.0 * a2_
    )


def solve_theta(x: float, alpha: float = 1.0) -> ThetaRoots:
    """Roots of the reduced cubic inside [-alpha, alpha], alpha in (0, 1].

    Requires the window inequalities

        v2 a^2 + v1 a + v0 < 2 a^2   and   v2 a^2 - v1 a + v0 < 2 a^2

    which force a sign change of the cubic on both half-windows and pin
    exactly one root in each (the third root lies beyond alpha).  Raises
    ThetaPreconditionError when x is too small for this alpha.  At alpha = 1
    the plus-side inequality is g(1) < 0 for the reduced cubic g, so the
    window fails exactly where g has no positive root or one >= 1, which is
    below working_threshold(1.0) ~ 1.478e10.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    prob = cubic_coeffs(x)
    if not _window_holds(prob, alpha):
        raise ThetaPreconditionError(
            f"x={x} too small for alpha={alpha}: window inequalities fail "
            f"(v2, v1, v0 = {prob.v2:.6g}, {prob.v1:.6g}, {prob.v0:.6g})"
        )
    g = prob.reduced_value
    theta_plus = _bisect(g, 0.0, alpha)
    theta_minus = _bisect(g, -alpha, 0.0)
    return ThetaRoots(
        x=x,
        alpha=alpha,
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
    lo = -1.0
    while g(lo) >= 0.0:
        lo *= 2.0
    theta_minus = _bisect(g, lo, 0.0)
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
    """F(h) = L(x+h) + eps(x+h) - l(x,h); F(0) = 2 eps(x) > 0."""
    d = derivatives(x)
    pp = d.l1 - d.eps1
    if h >= 0:
        dl = li_between(x, x + h)
    else:
        dl = -li_between(x + h, x)
    z = x + h
    return dl + math.sqrt(z) * math.log(z) + d.eps - pp * h


def solve_h_exact(x: float, max_expand: int = 64) -> ExactCrossings:
    """Exact tangent crossings h- < 0 < h+ of L + eps versus the tangent.

    F is strictly concave in h (its second derivative is L'' + eps'' < 0),
    positive at h=0, and heads to -inf as h grows, so each side has at most
    one crossing.  The negative side requires F to have turned negative by
    the domain edge x+h = 2, which first holds near x = 8.03e5; smaller x is
    rejected.
    """
    f = lambda h: _tangent_gap(x, h)
    hi = x
    for _ in range(max_expand):
        if f(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"no positive tangent crossing found below {hi}")
    h_plus = _bisect(f, hi / 2.0 if hi > x else 0.0, hi)

    edge = 2.0 - x + 1e-9 * x
    if not f(edge) < 0:
        raise ValueError(
            f"tangent does not cross on the negative side before the domain "
            f"edge at x={x}; x too small"
        )
    h_minus = _bisect(f, edge, 0.0)
    return ExactCrossings(x=x, h_minus=h_minus, h_plus=h_plus)


def working_threshold(alpha: float = 1.0) -> float:
    """Smallest x (to 1e-6 relative) where solve_theta's window inequalities hold.

    The v_i decrease beyond ~1e6, so the acceptance region is an upper ray
    in the ranges of interest; found by doubling then bisection.
    """

    def ok(x: float) -> bool:
        return _window_holds(cubic_coeffs(x), alpha)

    lo = 1e6
    if ok(lo):
        raise ValueError("threshold search must start below the acceptance region")
    hi = lo
    while not ok(hi):
        hi *= 2.0
        if hi > 1e30:
            raise ValueError(f"no working threshold found for alpha={alpha}")
    lo = hi / 2.0
    while hi - lo > 1e-6 * lo:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
