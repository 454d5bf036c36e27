"""Extremal primes of the average-gap function M(x) = x / pi(x).

Upper convex hull over the discrete points (p, p/pi(p)) at primes p.  The
y-coordinates are rationals, so every decision of the hull stack
cross-multiplies denominators and compares integers; none is rounded.
Cross terms reach ~p^2 pi^3 (about 2^140 at the 1e9 cap), comfortably exact
in arbitrary-width integers.

Confirmation rule (conservative, integer-exact): let u -> v be a hull edge
with slope s = (M(v) - M(u)) / (v.p - u.p) and let x be the sieve frontier
(every prime <= x processed).  Since pi is nondecreasing, any later point
t > x has M(t) = t/pi(t) <= t/pi(x).  If

    s > 0,    s * pi(x) >= 1,    and    ell(x) > x / pi(x)

where ell is the edge line extended, then for t > x

    ell(t) - t/pi(x) = [ell(x) - x/pi(x)] + (t - x)(s - 1/pi(x)) > 0,

so no future point can reach the extended edge and v can never be popped.
All three conditions are monotone in x, so confirmations never depend on
where segment boundaries fall.

A segment is merged through a float filter, the hook ``MHullState._on_hull``,
which drops whole blocks of points and then single points; its docstring
states and proves it.  Every decision the stack takes is still the exact
``_cross``; the floats only rule points out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._seghull import BLOCK, segment_hull
from .analysis import CONFIRMED, PROVISIONAL
from .hull_engine import HullState, HullVertex
from .prime_stream import LimitTooLargeError

M_MAX_LIMIT = 10**9

# delta / Y in MHullState._on_hull: 8u with u = 2^-53, which covers the
# 7.004u its docstring derives and keeps delta = Y * 2^-50 exact.
FILTER_MARGIN = 2.0**-50


class MHullState(HullState):
    """The hull engine over the heights p/pi(p): only its hooks differ."""

    @staticmethod
    def _cross(u, v, p: int, pi: int) -> tuple[int, int]:
        """slope(u, v) vs slope(v, new) of the heights p/pi, denominators cleared.

        Both sides are multiplied by the positive
        u.pi * v.pi * pi * (v.p - u.p) * (p - v.p).
        """
        return (
            (v.p * u.pi - u.p * v.pi) * pi * (p - v.p),
            (p * v.pi - v.p * pi) * u.pi * (v.p - u.p),
        )

    @staticmethod
    def _final(u: HullVertex, v: HullVertex, x: int, pi_x: int) -> bool:
        """The module docstring's three conditions, cleared of denominators."""
        s_num = v.p * u.pi - u.p * v.pi
        s_den = u.pi * v.pi * (v.p - u.p)
        if not (s_num > 0 and s_num * pi_x >= s_den):
            return False
        # ell(x) > x/pi(x), cleared of denominators (all positive):
        lhs = v.p * s_den * pi_x + s_num * (x - v.p) * v.pi * pi_x
        return lhs > x * v.pi * s_den

    @staticmethod
    def _on_hull(primes, pis):
        """Increasing indices of the points of one segment that can be on its hull.

        The heights are y_i = fl(p_i/pi_i) in float64.  ``segment_hull``
        runs on the highest point of each block of ``BLOCK`` consecutive
        points (the last block may be partial), plus the first and last
        points.  It returns indices v_0 = 0 < v_1 < ... = n - 1 (its ties
        are meaningless for floats and are ignored), and the chain C is the
        exact polyline through the (p_v, y_v).  Point i passes when
        y_i >= fl(c_i - delta), where c_i is C(p_i) as evaluated below,
        delta = FILTER_MARGIN * Y and Y = max y over the segment, which is
        the largest block top.  A block is kept when it holds a vertex of
        C, or when its top passes this test at its first or its last
        point; the points of the kept blocks that pass are returned, for
        ``merge_segment`` to push through the exact ``push``.

        Soundness, with u = 2^-53, u' = u/(1 - u), h_i = p_i/pi_i and H the
        exact upper hull of the segment's points (p_i, h_i), a concave
        function:

        1. p_i < 2^53 (the M_MAX_LIMIT cap) converts to float exactly, and
           so does pi_i <= p_i; so y_i is h_i correctly rounded and
           |y_i - h_i| <= u h_i <= u'Y.
        2. The vertices of C are points of the segment, so each edge of C
           is a chord whose ends lie at most u'Y above the concave H, and
           so does the whole chord: C <= H + u'Y on [p_0, p_n-1], whichever
           points the float passes kept.
        3. For i on edge (a, b), c_i = y_a + (y_b - y_a) * t with
           t = (p_i - p_a)/(p_b - p_a) in [0, 1], the differences exact in
           int64, each of the four operations rounded once (separate numpy
           ufuncs, no fused multiply-add).  The operands p_a, p_b - p_a,
           y_a and y_b - y_a are computed once per edge and repeated over
           the points where it is evaluated (``_chain``), which changes no
           rounding.
           |y_b - y_a| <= Y and C(p_i) in [0, Y] give
           |c_i - C(p_i)| <= 3.001uY + 1.001uY.
        4. delta is exact (Y times a power of two), and c_i - delta is
           rounded once, by at most 1.001uY.

        A point on H, a vertex or a point exactly on an edge (a tie), has
        y_i >= H(p_i) - u'Y >= C(p_i) - 2u'Y by 1 and 2, while the threshold
        is at most C(p_i) + 5.003uY - delta by 3 and 4.  So it passes once
        delta >= 2u'Y + 5.003uY, which is below 7.004uY; FILTER_MARGIN = 8u.

        Whole blocks are dropped by the same bound.  The vertices of C are
        block tops or the segment's ends, and a block that holds none of
        them lies strictly inside one edge of C, where C is affine.  So
        C(p_i) >= C(p_e) on the block, with e its first or its last point,
        whichever has the lower C.  A point i of the block on H has
        y_i >= C(p_i) - 2u'Y >= C(p_e) - 2u'Y, and when the block is
        dropped its top, and so y_i, is below fl(c_e - delta)
        <= C(p_e) + 5.003uY - delta: the margin above rules this out.

        So every vertex and tie of H is kept, the two ends among them, and
        a point that is not lies strictly below H, as ``merge_segment``
        asks of its hook.
        """
        y = primes / pis
        n = len(y)
        if n == 1:
            return np.zeros(1, dtype=np.int64)
        # The chain's points: the highest of each block (the last one
        # may be partial) and both ends.
        full = n - n % BLOCK
        tops = y[:full].reshape(-1, BLOCK).argmax(1) + np.arange(0, full, BLOCK)
        if full < n:
            tops = np.append(tops, full + y[full:].argmax())
        top = y[tops]
        delta = FILTER_MARGIN * top.max()
        # tops increases and may already start at 0 or end at n - 1.
        sub = np.concatenate(([0], tops, [n - 1]))
        sub = sub[int(tops[0] == 0) : len(sub) - int(tops[-1] == n - 1)]
        idx = sub[segment_hull(primes[sub], y[sub])[0]]
        # A block is kept when it holds a chain vertex or its top passes
        # the test at its first or last point; only its points are tested.
        ends = np.minimum(np.arange(0, n, BLOCK)[:, None] + [0, BLOCK - 1], n - 1)
        c = _chain(primes, y, idx, ends.ravel()).reshape(-1, 2)
        kept = (top[:, None] >= c - delta).any(1)
        kept[idx // BLOCK] = True
        q = (np.flatnonzero(kept)[:, None] * BLOCK + np.arange(BLOCK)).ravel()
        q = q[q < n]
        return q[y[q] >= _chain(primes, y, idx, q) - delta]


def _chain(primes, y, idx, q):
    """c_i of ``MHullState._on_hull`` at the indices q, nondecreasing.

    Point i lies on the edge (a, b) of the float hull ``idx`` with a the
    last vertex at or before i; the last point closes the last edge.  The
    operands p_a, p_b - p_a, y_a and y_b - y_a are taken once per edge and
    repeated over the indices of q on that edge, so c_i is the same float
    whichever other points are asked for.  The filter asks for its blocks'
    ends and then for the points of the blocks it keeps.
    """
    counts = np.diff(np.searchsorted(q, idx[:-1]), append=len(q))
    pv, yv = primes[idx], y[idx]
    t = (primes[q] - np.repeat(pv[:-1], counts)) / np.repeat(np.diff(pv), counts)
    return np.repeat(yv[:-1], counts) + np.repeat(np.diff(yv), counts) * t


@dataclass(frozen=True)
class MRecord:
    k: int
    p: int
    pi: int
    value: Fraction
    status: str
    ties: tuple[int, ...]


@dataclass(frozen=True)
class MComputeResult:
    records: list[MRecord]
    state: MHullState


def records_from_m_state(state: MHullState) -> list[MRecord]:
    return [
        MRecord(
            k=i + 1,
            p=v.p,
            pi=v.pi,
            value=Fraction(v.p, v.pi),
            status=CONFIRMED if i < state.confirmed_len else PROVISIONAL,
            ties=tuple(v.ties),
        )
        for i, v in enumerate(state.stack)
    ]


def compute_m_extremal(limit: int) -> MComputeResult:
    """Stream primes to `limit` and build the M hull with exact arithmetic."""
    if limit > M_MAX_LIMIT:
        raise LimitTooLargeError(
            f"M-variant limit {limit} exceeds supported maximum {M_MAX_LIMIT}"
        )
    state = MHullState()
    state.extend(limit)
    return MComputeResult(records=records_from_m_state(state), state=state)
