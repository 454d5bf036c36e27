"""Segmented prime sieve with an exact running prime counter.

Produces the stream of points (p, pi(p)) consumed by the hull engine.
Segments are sieved with numpy over odd integers only; 2 is special-cased.
Small base primes strike their multiples with one strided slice each; all
larger ones are struck together with one numpy scatter per segment, the
vectorized form of the bucket sieve of Oliveira e Silva, Herzog and Pardi
(Math. Comp. 2014). Near 3e11 a segment has about 45k base primes, and a
Python-level loop over them made a 1e8 window there about five times
slower. The stream is deterministic for a given (start, limit) regardless
of segment size, and supports resuming from any (start, start_pi) frontier.
The explicit bound on pi(x) that proves vertices final lives beside the
rule that uses it, ``hull_engine.pi_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MAX_LIMIT = 10**12
MIN_SEGMENT_SIZE = 1024
# Segment spans must keep in-segment hull cross products inside int64:
# (delta pi) * (delta p) < 2^25 * 2^26 = 2^51.
MAX_SEGMENT_SIZE = 1 << 25
DEFAULT_SEGMENT_SIZE = 1 << 20
# Base primes from here on are struck by one numpy scatter per segment; below
# it a strided slice is cheaper, since it writes at least 2^20 / 2^12 = 256
# entries of a default segment per Python-level call.
SCATTER_MIN_PRIME = 1 << 12
# The scatter builds its index runs this many at a time, so its scratch
# arrays stay a small fraction of the segment mask.
SCATTER_CHUNK = 1 << 14


class LimitTooLargeError(ValueError):
    """Requested limit exceeds the supported sieve range."""


@dataclass(frozen=True)
class SieveConfig:
    """Range and segmentation of a sieve run.

    ``start``/``start_pi`` describe the resume frontier: sieving begins at
    ``start`` (inclusive) with ``start_pi`` primes already counted strictly
    below it.  A fresh run uses start=2, start_pi=0.
    """

    limit: int
    segment_size: int = DEFAULT_SEGMENT_SIZE
    start: int = 2
    start_pi: int = 0

    def __post_init__(self) -> None:
        if self.limit < 2:
            raise ValueError(f"limit must be >= 2, got {self.limit}")
        if self.limit > MAX_LIMIT:
            raise LimitTooLargeError(
                f"limit {self.limit} exceeds supported maximum {MAX_LIMIT}"
            )
        if not (MIN_SEGMENT_SIZE <= self.segment_size <= MAX_SEGMENT_SIZE):
            raise ValueError(
                f"segment_size must be in [{MIN_SEGMENT_SIZE}, {MAX_SEGMENT_SIZE}],"
                f" got {self.segment_size}"
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

    Each segment's mask is marked in two ways. An odd base prime below
    ``SCATTER_MIN_PRIME`` clears its multiples with one strided slice,
    which is cheap while the slice is long. Every larger base prime with
    p*p <= hi is handled by ``_strike_large``, a single numpy scatter for
    all of them, because a Python-level loop over tens of thousands of
    short slices costs far more than the writes themselves. Thresholds
    from 2^11 to 2^14 time alike on 1e8 windows at 3e11 and on the sieve
    from 2 to 1e8; 2^12 sits in the middle. The first scattered prime is
    4099, so segments ending below 4099^2 (about 1.68e7) never scatter.
    """
    limit = cfg.limit
    basis = base_primes(math.isqrt(limit))
    odd_basis = basis[basis >= 3]
    split = int(np.searchsorted(odd_basis, SCATTER_MIN_PRIME))
    small = odd_basis[:split].tolist()
    large = odd_basis[split:]

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

    span = 2 * cfg.segment_size
    while lo <= limit:
        hi = min(lo + span - 2, limit if limit % 2 == 1 else limit - 1)
        odd_count = (hi - lo) // 2 + 1
        mask = np.ones(odd_count, dtype=bool)
        for p in small:
            p2 = p * p
            if p2 > hi:
                break
            first = max(p2, ((lo + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first <= hi:
                mask[(first - lo) // 2 :: p] = False
        _strike_large(mask, lo, hi, large)
        idx = np.flatnonzero(mask)
        primes = lo + 2 * idx.astype(np.int64)
        pis = count + 1 + np.arange(len(primes), dtype=np.int64)
        count += len(primes)
        yield primes, pis, min(hi + 1, limit)
        lo = hi + 2


def _strike_large(mask: np.ndarray, lo: int, hi: int, large: np.ndarray) -> None:
    """Clear the odd multiples of every prime in ``large`` with p*p <= hi.

    ``mask[i]`` stands for the odd integer lo + 2i. Prime p strikes the
    indices i0, i0 + p, ..., one run per prime; the runs are laid end to
    end as steps (p inside a run, a jump between runs) and summed.
    """
    P = large[: np.searchsorted(large, math.isqrt(hi), side="right")]
    first = np.maximum(P * P, -(-lo // P) * P)
    first += (1 - (first & 1)) * P
    i0 = (first - lo) // 2
    # n >= 0, since first is p*p <= hi or below lo + 2p. A prime with n == 0
    # must go, or its run would start where the next one does.
    n = (len(mask) - 1 - i0) // P + 1
    hit = n > 0
    P, i0, n = P[hit], i0[hit], n[hit]
    # Short segments (a resumed last one, or small --segment-size far up)
    # can hold no odd multiple of any large prime at all.
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
