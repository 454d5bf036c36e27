"""Extremal primes of the average-gap function M(x) = x / pi(x).

Upper convex hull over the discrete points (p, p/pi(p)) at primes p.  The
y-coordinates are rationals, so every hull decision cross-multiplies
denominators and compares integers; nothing is ever rounded.  Cross terms
reach ~p^2 pi^3 (about 2^140 at the 1e9 cap), comfortably exact in
arbitrary-width integers.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import CONFIRMED, PROVISIONAL
from .hull_engine import HullState, HullVertex
from .prime_stream import LimitTooLargeError

M_MAX_LIMIT = 10**9


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

    def merge_segment(self, primes, pis) -> None:
        """Push every point of the segment: its kernel is for heights pi."""
        for p, pi in zip(primes.tolist(), pis.tolist()):
            self.push(p, pi)


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
    out = []
    for i, v in enumerate(state.stack):
        out.append(
            MRecord(
                k=i + 1,
                p=v.p,
                pi=v.pi,
                value=Fraction(v.p, v.pi),
                status=CONFIRMED if i < state.confirmed_len else PROVISIONAL,
                ties=tuple(v.ties),
            )
        )
    return out


def compute_m_extremal(limit: int) -> MComputeResult:
    """Stream primes to `limit` and build the M hull with exact arithmetic."""
    if limit > M_MAX_LIMIT:
        raise LimitTooLargeError(
            f"M-variant limit {limit} exceeds supported maximum {M_MAX_LIMIT}"
        )
    state = MHullState()
    state.extend(limit)
    return MComputeResult(records=records_from_m_state(state), state=state)
