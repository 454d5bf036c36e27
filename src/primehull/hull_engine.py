"""Streaming upper convex hull of the prime counting function's graph.

The subgraph of pi (the region under its plot) has a well defined upper
convex boundary; its vertices are the extremal primes e_1 = 2, e_2 = 3,
e_3 = 7, ...  The boundary's vertices can only occur at points (p, pi(p))
with p prime, because pi is a right-continuous step function whose concave
majorant is supported on the staircase's outer corners.

The engine consumes prime points in increasing order and maintains a
monotone-chain stack with two extra obligations on top of the textbook
algorithm:

* exactness: every orientation test is an integer cross product, never a
  float, so hull membership and collinearity decisions are exact;
* finality: a vertex is only promoted from provisional to confirmed once
  an analytic bound on pi proves that no future prime point can pop it.

Ties (points lying exactly on a hull edge) are popped but retained as
annotations on the surviving vertex, implementing "take the largest prime
among slope-equal candidates" for the vertex itself while preserving the
equal-slope predecessors for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ._seghull import segment_hull
from .analysis import ExtremalRecord, records_from_state
from .prime_stream import SieveConfig, iter_prime_blocks

RS_CONSTANT = 1.25506
DUSART_CUTOFF = 88789
E_SQUARED = math.exp(2.0)


def pi_bound(x: float) -> tuple[float, float]:
    """An explicit upper bound on pi(x) and its slope, for x > e^2.

    Below 88789 the bound is 1.25506 x / ln x (Rosser and Schoenfeld 1962),
    with slope 1.25506 (ln x - 1) / ln^2 x.  From 88789 on it is
    x/ln x (1 + 1/ln x + 2/ln^2 x + 7.59/ln^3 x) (Dusart 2018), with slope
    1/ln x + 1.59/ln^4 x - 30.36/ln^5 x.  The slope decreases on each piece
    for x > e^2 and the switch only jumps downward, which is what
    ``HullState._final`` needs; smaller x is rejected.
    """
    if x <= E_SQUARED:
        raise ValueError(f"pi_bound requires x > e^2, got {x}")
    y = math.log(x)
    if x < DUSART_CUTOFF:
        return RS_CONSTANT * x / y, RS_CONSTANT * (y - 1.0) / (y * y)
    y4 = y * y * y * y
    return (
        x / y * (1.0 + 1.0 / y + 2.0 / (y * y) + 7.59 / (y * y * y)),
        1.0 / y + 1.59 / y4 - 30.36 / (y4 * y),
    )


@dataclass
class HullVertex:
    """A hull stack entry: the point plus primes tied on its incoming edge.

    ``ties`` lists the primes that were popped with exactly equal slope
    while this vertex advanced; they lie strictly between the previous hull
    vertex and this one, exactly on the connecting chord.
    """

    p: int
    pi: int
    ties: list[int] = field(default_factory=list)


@dataclass
class HullState:
    """Mutable hull computation state.

    The hull is over the points (p, y(p)) for the stored (p, pi) pairs; this
    class has y = pi.  A sequence over another height differs only in its
    two static hooks, ``_cross`` (the orientation test) and ``_final`` (the
    finality rule), and in ``merge_segment``, whose exact segment kernel is
    for y = pi; a subclass overrides those three (see ``m_variant``).

    Invariants (checked by the test suite, not at runtime):
    * stack slopes strictly decrease left to right;
    * stack[0] is (2, 1) once any input has been consumed;
    * the first ``confirmed_len`` entries are final and never popped;
    * ``last_processed``/``pi_at_last`` describe the fully sieved frontier.
    """

    stack: list[HullVertex] = field(default_factory=list)
    confirmed_len: int = 0
    last_processed: int = 1
    pi_at_last: int = 0

    @staticmethod
    def _cross(u, v, p: int, pi: int) -> tuple[int, int]:
        """Cross-product pair (lhs, rhs) for hull vertices u, v and a new point.

        slope(u, v) > slope(v, new) exactly when lhs > rhs, and the two are
        equal exactly when lhs == rhs.
        """
        return (v.pi - u.pi) * (p - v.p), (pi - v.pi) * (v.p - u.p)

    @staticmethod
    def _final(u: HullVertex, v: HullVertex, x: int, pi_x: int) -> bool:
        """Whether the edge u -> v is final once every prime <= x is pushed.

        With incoming slope s = dpi/dp and ``(bound, slope) = pi_bound(x)``,
        v can never be popped once

            slope < s   and   bound < u.pi + s * (x - u.p)

        because then the line through u with slope s dominates the pi upper
        bound for every z >= x (the bound's slope keeps decreasing), while
        popping v would require a prime point on or above that line.  The
        bound's slope is only decreasing for x > e^2.  (3, 2) is final on
        sight: no later point can reach slope 1 from (2, 1).
        """
        if u.p == 2 and v.p == 3:
            return True
        if x <= E_SQUARED:
            return False
        dpi = v.pi - u.pi
        dp = v.p - u.p
        bound, slope = pi_bound(x)
        return slope * dp < dpi and bound < u.pi + dpi * (x - u.p) / dp

    def push(self, p: int, pi: int, pre_ties: Sequence[int] = ()) -> None:
        """Push one point past the frontier, popping dominated vertices.

        ``pre_ties`` carries ties already collected for this point by a
        segment-level hull; they are anchored to the current stack top and
        are dropped if that anchor is popped strictly below the new chord.
        """
        if p <= self.last_processed:
            raise ValueError(f"point {p} arrives at or before frontier {self.last_processed}")
        stack = self.stack
        cross = self._cross
        ties = list(pre_ties)
        while len(stack) >= 2:
            lhs, rhs = cross(stack[-2], stack[-1], p, pi)
            if lhs > rhs:
                break
            if len(stack) <= self.confirmed_len:
                raise AssertionError(
                    f"confirmed vertex {stack[-1].p} would be popped by {p}; "
                    "confirmation rule unsound"
                )
            v = stack.pop()
            if lhs == rhs:
                # v lies exactly on the chord to the new point; an equal pop
                # is necessarily the last pop of this push, so v's tie list
                # extends with v itself and any ties carried by the point.
                ties = v.ties + [v.p] + ties
            else:
                # v fell strictly below the new chord.  Strict pops all come
                # before the equal one, so what is carried is the
                # pre-collected ties, anchored to the first v popped, or
                # nothing; they go with it.
                ties = []
        stack.append(HullVertex(p, pi, ties))
        self.last_processed = p
        self.pi_at_last = pi

    def confirm_through(self, x: int) -> int:
        """Move the frontier to x and promote the longest final prefix.

        The caller asserts every point <= x has been pushed.  The first
        vertex is final on sight, since pops only remove the top of a stack
        of length >= 2; each later one is final when ``_final`` holds for
        its incoming edge.  Returns the newly confirmed count.
        """
        if x < self.last_processed:
            raise ValueError(
                f"confirmation frontier {x} behind sieved frontier {self.last_processed}"
            )
        self.last_processed = x
        stack = self.stack
        n = self.confirmed_len
        if n == 0 and stack:
            n = 1
        while n < len(stack) and self._final(stack[n - 1], stack[n], x, self.pi_at_last):
            n += 1
        newly = n - self.confirmed_len
        self.confirmed_len = n
        return newly

    def merge_segment(self, primes, pis) -> None:
        """Push one non-empty segment (aligned int64 arrays) through its hull.

        Only the segment-hull vertices are pushed, each with its ties as
        pre-ties; the last point is always one of them.  No confirmation is
        attempted.  The kernel's exact int64 path needs heights pi; the M
        hull overrides this method with a float filter over the same kernel.
        """
        idx, tie_lo, tie_hi, tie_buf = segment_hull(primes, pis)
        tie_ps = primes[tie_buf].tolist()
        for p, pi, lo, hi in zip(
            primes[idx].tolist(), pis[idx].tolist(), tie_lo.tolist(), tie_hi.tolist()
        ):
            self.push(p, pi, tie_ps[lo:hi])

    def extend(self, limit: int) -> None:
        """Sieve from the frontier to ``limit``, merging and confirming per segment.

        A state extended in steps ends equal to one extended straight to the
        last limit, which is what makes checkpoint resume exact.  ``SieveConfig``
        refuses a limit below 2, past ``MAX_LIMIT`` or below the frontier.
        """
        if limit == self.last_processed and self.stack:
            return
        cfg = SieveConfig(
            limit=limit,
            start=self.last_processed + 1,
            start_pi=self.pi_at_last,
        )
        for primes, pis, high in iter_prime_blocks(cfg):
            if len(primes):
                self.merge_segment(primes, pis)
            self.confirm_through(high)
        self.confirm_through(limit)


@dataclass
class ComputeResult:
    state: HullState
    confirmed: list[ExtremalRecord]


def compute_extremal(limit: int) -> ComputeResult:
    """Stream primes up to ``limit`` and return confirmed extremal records.

    A state to resume, e.g. one loaded from a checkpoint, continues with
    ``HullState.extend``; results are identical to an uninterrupted run.
    """
    state = HullState()
    state.extend(limit)
    return ComputeResult(state=state, confirmed=records_from_state(state))
