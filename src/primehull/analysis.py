"""Statistics over the extremal prime sequence.

Terminology used throughout: for consecutive extremal primes e_k, e_{k+1}
the half-open interval S_k = [e_k, e_{k+1}) is the k-th lens, delta_k is
the exact slope of the hull edge over it (1/delta_k is the mean prime gap
inside the lens), and ratio_next the float quotient e_{k+1}/e_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .hull_engine import HullState

CONFIRMED = "confirmed"
PROVISIONAL = "provisional"


@dataclass(frozen=True)
class ExactSlope:
    """Slope of a hull edge as the unreduced pair (dpi, dp), dp > 0."""

    dpi: int
    dp: int

    def __post_init__(self) -> None:
        if self.dp <= 0:
            raise ValueError("slope denominator must be positive")


@dataclass(frozen=True)
class ExtremalRecord:
    """One extremal prime with the data of the lens it opens.

    ``delta`` and ``ratio_next`` describe the edge to the next hull vertex
    and are None for the final vertex of a run; ``delta.dp`` is the lens
    length e_{k+1} - e_k.  ``ties`` lists the primes lying exactly on that
    edge (strictly between the two vertices), i.e. the slope-equal
    candidates this lens absorbed.  ``sum_inv``/``sum_invlog`` are the
    correctly rounded sums of 1/e_j and 1/ln e_j over confirmed records up
    to and including k, the bits ``math.fsum`` gives for that prefix;
    provisional records carry None.
    """

    k: int
    e: int
    pi_e: int
    delta: Optional[ExactSlope]
    ratio_next: Optional[float]
    ties: tuple[int, ...]
    status: str
    sum_inv: Optional[float] = None
    sum_invlog: Optional[float] = None


def _prefix_sums(values) -> list[float]:
    """``math.fsum`` of every prefix of ``values``, in linear time.

    Every float is an integer over a power of two, so over the largest of
    these denominators, 2^shift, the running sum is an exact integer.  Int
    division is correctly rounded, so each total / 2^shift rounds once,
    exactly as fsum does.
    """
    ratios = [v.as_integer_ratio() for v in values]
    shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
    totals = accumulate(n << (shift - d.bit_length() + 1) for n, d in ratios)
    scale = 1 << shift
    return [total / scale for total in totals]


def records_from_state(state: HullState, include_provisional: bool = False) -> list[ExtremalRecord]:
    """Materialize ExtremalRecords from a hull state's final stack."""
    stack = state.stack
    n = len(stack) if include_provisional else state.confirmed_len
    confirmed_ps = [v.p for v in stack[: state.confirmed_len]]
    sums_inv = _prefix_sums(1.0 / p for p in confirmed_ps)
    sums_invlog = _prefix_sums(1.0 / math.log(p) for p in confirmed_ps)
    records: list[ExtremalRecord] = []
    for i in range(n):
        v = stack[i]
        confirmed = i < state.confirmed_len
        if i + 1 < len(stack):
            w = stack[i + 1]
            delta = ExactSlope(w.pi - v.pi, w.p - v.p)
            ratio: Optional[float] = w.p / v.p
            ties = tuple(w.ties)
        else:
            delta = None
            ratio = None
            ties = ()
        records.append(
            ExtremalRecord(
                k=i + 1,
                e=v.p,
                pi_e=v.pi,
                delta=delta,
                ratio_next=ratio,
                ties=ties,
                status=CONFIRMED if confirmed else PROVISIONAL,
                sum_inv=sums_inv[i] if confirmed else None,
                sum_invlog=sums_invlog[i] if confirmed else None,
            )
        )
    return records


@dataclass(frozen=True)
class TwinPair:
    k: int
    e: int
    e_next: int
    pi_e: int


def find_twins(records: Sequence[ExtremalRecord]) -> list[TwinPair]:
    """Indices k where consecutive extremal primes are consecutive primes.

    Detected exactly via pi(e_{k+1}) - pi(e_k) == 1; includes k=1 (2, 3).
    Only consecutive confirmed records are inspected.
    """
    out = []
    for a, b in zip(records, records[1:]):
        if a.status != CONFIRMED or b.status != CONFIRMED:
            break
        if b.pi_e - a.pi_e == 1:
            out.append(TwinPair(k=a.k, e=a.e, e_next=b.e, pi_e=a.pi_e))
    return out
