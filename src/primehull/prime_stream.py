"""Segmented prime sieve with an exact running prime counter.

Produces the stream of points (p, pi(p)) consumed by the hull engine.
Segments are sieved with numpy over odd integers only; 2 is special-cased.
Small base primes strike their multiples with one strided slice each; all
larger ones are struck together with one numpy scatter per segment, the
vectorized form of the bucket sieve of Oliveira e Silva, Herzog and Pardi
(Math. Comp. 2014). Near 3e11 a segment has about 45k base primes, and a
Python-level loop over them made a 1e8 window there about five times
slower. The stream is deterministic for a given (start, limit) wherever a
resume frontier cuts the segments, and supports resuming from any
(start, start_pi) frontier.
The explicit bound on pi(x) that proves vertices final lives beside the
rule that uses it, ``hull_engine.pi_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MAX_LIMIT = 10**12
# Odd integers per segment. A segment spans 2^21 integers, so in-segment
# hull cross products stay below (delta pi) * (delta p) < 2^20 * 2^21 = 2^41,
# well inside int64.
SEGMENT_SIZE = 1 << 20
# Base primes from here on are struck by one numpy scatter per segment; below
# it a strided slice is cheaper, since it writes at least 2^20 / 2^12 = 256
# entries of a segment per Python-level call.
SCATTER_MIN_PRIME = 1 << 12
# The scatter builds its index runs this many at a time, so its scratch
# arrays stay a small fraction of the segment mask.
SCATTER_CHUNK = 1 << 14


class LimitTooLargeError(ValueError):
    """Requested limit exceeds the supported sieve range."""


@dataclass(frozen=True)
class SieveConfig:
    """Range of a sieve run.

    ``start``/``start_pi`` describe the resume frontier: sieving begins at
    ``start`` (inclusive) with ``start_pi`` primes already counted strictly
    below it.  A fresh run uses start=2, start_pi=0.
    """

    limit: int
    start: int = 2
    start_pi: int = 0

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise ValueError(f"limit must be >= 2, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise LimitTooLargeError(
                f"limit {self.limit} exceeds supported maximum {MAX_LIMIT}"
            )
        if self.start < 2:
            raise ValueError(f"start must be >= 2, got {self.start}")
        if self.start > self.limit:
            raise ValueError(f"start {self.start} exceeds limit {self.limit}")
        if self.start_pi < 0:
            raise ValueError("start_pi must be >= 0")
        if self.start == 2 and self.start_pi != 0:
            raise ValueError("start_pi must be 0 when starting from 2")


def base_primes(limit: int) -> np.ndarray:
    """Primes <= limit via a plain boolean sieve (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def iter_prime_blocks(cfg: SieveConfig) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (primes, pi_values, segment_high) per segment, in order.

    ``primes`` and ``pi_values`` are aligned int64 arrays; ``segment_high``
    is the largest integer fully sieved so far (the confirmation frontier).
    Single-threaded by construction, which trivially satisfies the ordered
    delivery contract; a parallel sieve would have to re-order before
    yielding.

    Each segment holds ``SEGMENT_SIZE`` odd integers lo..hi (the last one
    may hold fewer), and the constant is read when iteration starts. Per
    segment, the first odd multiple at or above max(p*p, lo) of every odd
    base prime p with p*p <= hi is computed once, as one vectorized step.
    The mask is then marked in two ways. An odd base prime below
    ``SCATTER_MIN_PRIME`` clears its multiples with one strided slice,
    which is cheap while the slice is long. Every larger one is handled
    by ``_strike_large``, a single numpy scatter for all of them, because
    a Python-level loop over tens of thousands of short slices costs far
    more than the writes themselves. Thresholds
    from 2^11 to 2^14 time alike on 1e8 windows at 3e11 and on the sieve
    from 2 to 1e8; 2^12 sits in the middle. The first scattered prime is
    4099, so segments ending below 4099^2 (about 1.68e7) never scatter.
    """
    limit = cfg.limit
    basis = base_primes(math.isqrt(limit))
    odd_basis = basis[basis >= 3]
    split = int(np.searchsorted(odd_basis, SCATTER_MIN_PRIME))

    count = cfg.start_pi
    lo = cfg.start
    if lo <= 2:
        yield (
            np.array([2], dtype=np.int64),
            np.array([1], dtype=np.int64),
            min(2, limit),
        )
        count = 1
        lo = 3
    if lo % 2 == 0:
        lo += 1

    span = 2 * SEGMENT_SIZE
    while lo <= limit:
        hi = min(lo + span - 2, limit if limit % 2 == 1 else limit - 1)
        odd_count = (hi - lo) // 2 + 1
        mask = np.ones(odd_count, dtype=bool)
        P = odd_basis[: np.searchsorted(odd_basis, math.isqrt(hi), side="right")]
        first = np.maximum(P * P, -(-lo // P) * P)
        first += (1 - (first & 1)) * P
        i0 = (first - lo) // 2
        # An offset past the mask gives an empty slice.
        for p, i in zip(P[:split].tolist(), i0[:split].tolist()):
            mask[i::p] = False
        _strike_large(mask, P[split:], i0[split:])
        idx = np.flatnonzero(mask)
        primes = lo + 2 * idx.astype(np.int64)
        pis = count + 1 + np.arange(len(primes), dtype=np.int64)
        count += len(primes)
        yield primes, pis, min(hi + 1, limit)
        lo = hi + 2


def _strike_large(mask: np.ndarray, P: np.ndarray, i0: np.ndarray) -> None:
    """Clear every odd multiple of each prime P[j] from mask index i0[j] on.

    ``mask[i]`` stands for the odd integer lo + 2i, and i0[j] indexes the
    first odd multiple of P[j] at or above max(P[j]^2, lo). Prime p strikes
    the indices i0, i0 + p, ..., one run per prime; the runs are laid end
    to end as steps (p inside a run, a jump between runs) and summed.
    """
    # n >= 0, since the first multiple is p*p <= hi or below lo + 2p. A
    # prime with n == 0 must go, or its run would start where the next one
    # does.
    n = (len(mask) - 1 - i0) // P + 1
    hit = n > 0
    P, i0, n = P[hit], i0[hit], n[hit]
    # A segment much shorter than 2p, such as a last one cut short by the
    # limit, can hold no odd multiple of any large prime at all.
    if len(P) == 0:
        return
    ends = np.cumsum(n)
    starts = ends - n
    jump = i0.copy()
    jump[1:] -= i0[:-1] + P[:-1] * (n[:-1] - 1)
    cuts = np.searchsorted(ends, np.arange(SCATTER_CHUNK, ends[-1], SCATTER_CHUNK), side="right")
    bounds = [0, *cuts.tolist(), len(P)]
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            continue
        steps = np.repeat(P[a:b], n[a:b])
        steps[starts[a:b] - starts[a]] = jump[a:b]
        steps[0] = i0[a]
        mask[np.cumsum(steps, out=steps)] = False
