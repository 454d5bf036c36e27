"""Segmented prime sieve with an exact running prime counter.

Produces the stream of points (p, pi(p)) consumed by the hull engine.
Segments are sieved with numpy over odd integers only; 2 is special-cased.
Small base primes strike their multiples with one strided slice each; all
larger ones are struck together with one numpy scatter per segment, the
vectorized form of the bucket sieve of Oliveira e Silva, Herzog and Pardi
(Math. Comp. 2014), with indices built by one product and one sum per
chunk of strikes. Near 3e11 a segment has about 45k base primes, and a
Python-level loop over them made a 1e8 window there about five times
slower. The stream is deterministic for a given (start, limit) wherever a
resume frontier cuts the segments, and supports resuming from any
(start, start_pi) frontier.
Segments are sieved on a pool of one thread per usable CPU, at most one
segment per thread at a time, into one reused mask per thread plus a
spare, and delivered strictly in segment order; see ``iter_prime_blocks``.
This is the one module of the package that starts threads, so every
consumer of the stream (the E and M hulls, the envelope scan) shares them
through one code path.
The explicit bound on pi(x) that proves vertices final lives beside the
rule that uses it, ``hull_engine.pi_bound``.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
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
    Each segment holds ``SEGMENT_SIZE`` odd integers lo..hi (the last one
    may hold fewer), and the constant is read when iteration starts.

    Segments are sieved on a pool of one thread per usable CPU, started
    when iteration starts and joined when the generator ends, is closed or
    raises. Segment bounds are drawn lazily, and each worker runs
    ``_sieve_segment`` into one of ``workers + 1`` masks, allocated once
    per generator and reused. The generator's own thread takes the segments
    back strictly in order: it waits for the oldest one, hands the spare
    mask to the next segment, turns the finished mask into primes, keeps
    that mask as the new spare, and only then numbers the primes on from
    the running count and yields them. ``np.flatnonzero`` releases the
    interpreter lock, so every worker sieves while the primes are
    extracted. At most one segment per worker is being sieved while the
    caller holds one block, and the caller's work on it (the hull kernel,
    merging, confirmation) overlaps the sieving of the segments after it.
    A worker's exception is raised from the ``next()`` that reaches its
    segment, after every block before it.

    Memory: the masks take ``(workers + 1) * SEGMENT_SIZE`` bytes. While
    its scatter runs, a segment in flight holds 24 bytes of scratch per
    base prime and about 256 KB per chunk of strikes; tracemalloc measures
    0.91 MB near 1e11 and 2.14 MB near 1e12. The block held costs 16 bytes
    per prime.
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
    top = limit if limit % 2 == 1 else limit - 1
    span = 2 * SEGMENT_SIZE
    segments = ((a, min(a + span - 2, top)) for a in range(lo | 1, top + 1, span))
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        workers = os.cpu_count() or 1

    with ThreadPoolExecutor(max_workers=workers) as pool:

        def submit(bounds, buf):
            return (*bounds, buf, pool.submit(_sieve_segment, *bounds, buf, odd_basis, split))

        pending = deque(
            submit(bounds, np.empty(SEGMENT_SIZE, dtype=bool)) for bounds in islice(segments, workers)
        )
        spare = np.empty(SEGMENT_SIZE, dtype=bool)
        while pending:
            lo, hi, buf, future = pending.popleft()
            mask = future.result()
            # The next segment goes into the spare mask before this one is
            # read, so every worker sieves while the primes are extracted.
            pending.extend(submit(bounds, spare) for bounds in islice(segments, 1))
            # Primes are extracted here, not on the workers: int64 arrays
            # built there, one per worker in flight and then kept by the
            # allocator's per-thread arenas, raised the benchmark's
            # compute-1e8 peak RSS from 47.6 to 52-55 MB; here it is 49.5.
            primes = np.flatnonzero(mask)
            spare = buf
            primes *= 2
            primes += lo
            pis = np.arange(count + 1, count + 1 + len(primes), dtype=np.int64)
            count += len(primes)
            yield primes, pis, min(hi + 1, limit)
            # Hold no block while waiting for the next one.
            del primes, pis


def _sieve_segment(lo: int, hi: int, buf: np.ndarray, odd_basis: np.ndarray, split: int) -> np.ndarray:
    """Sieve the odd integers lo..hi into ``buf``; returns the mask used.

    The mask is the view of ``buf`` whose entry i is True exactly when
    lo + 2i is prime. Nothing but ``buf`` is written, so segments can be
    sieved concurrently with the read-only odd base primes. The first odd
    multiple at or above max(p*p, lo) of every odd base prime p with
    p*p <= hi is computed once, as one vectorized step. The mask is then
    marked in two ways. An odd base prime below ``SCATTER_MIN_PRIME`` (the
    first ``split`` of them) clears its multiples with one strided slice,
    which is cheap while the slice is long. Every larger one is handled by
    ``_strike_large``, a single numpy scatter for all of them, because a
    Python-level loop over tens of thousands of short slices costs far more
    than the writes themselves. Thresholds from 2^11 to 2^14 time alike on
    1e8 windows at 3e11 and on the sieve from 2 to 1e8; 2^12 sits in the
    middle. The first scattered prime is 4099, so segments ending below
    4099^2 (about 1.68e7) never scatter.
    """
    mask = buf[: (hi - lo) // 2 + 1]
    mask.fill(True)
    P = odd_basis[: np.searchsorted(odd_basis, math.isqrt(hi), side="right")]
    # The first odd multiple at or above max(p*p, lo) is m*p, with m the
    # least odd integer at or above both p and ceil(lo / p). Built in place,
    # it ends as its mask index (m*p - lo) / 2.
    i0 = -lo // P
    np.negative(i0, out=i0)
    i0 |= 1
    np.maximum(i0, P, out=i0)
    i0 *= P
    i0 -= lo
    i0 >>= 1
    # An offset past the mask gives an empty slice.
    for p, i in zip(P[:split].tolist(), i0[:split].tolist()):
        mask[i::p] = False
    _strike_large(mask, P[split:], i0[split:])
    return mask


def _strike_large(mask: np.ndarray, P: np.ndarray, i0: np.ndarray) -> None:
    """Clear every odd multiple of each prime P[j] from mask index i0[j] on.

    ``mask[i]`` stands for the odd integer lo + 2i, and i0[j] indexes the
    first odd multiple of P[j] at or above max(P[j]^2, lo); both arrays are
    int64. Prime P[j] strikes n[j] indices i0[j], i0[j] + P[j], ...; its run
    is laid after those of P[0..j-1], which hold start[j] strikes in all.
    So the strike with overall number t, for start[j] <= t < start[j] + n[j],
    lies at a[j] + t * P[j] with a[j] = i0[j] - start[j] * P[j], and each
    chunk of whole runs is one arange times the repeated primes plus the
    repeated a. A prime with n[j] == 0 repeats nothing. A full segment
    takes fewer than 2^20 strikes (530k at 10^12) and base primes are
    below 10^6 < 2^20, so start * P, t * P and |a| stay below 2^40, far
    inside int64 (though not int32).
    """
    # n >= 0, since the first multiple is p*p <= hi or below lo + 2p.
    n = len(mask) - 1 - i0
    n //= P
    n += 1
    # A segment with no large base prime has nothing to strike.
    if len(n) == 0:
        return
    ends = np.cumsum(n)
    cuts = np.searchsorted(ends, np.arange(SCATTER_CHUNK, ends[-1], SCATTER_CHUNK), side="right")
    runs = [0, *cuts.tolist(), len(P)]
    # The first strike number of each chunk's runs, and one past the last.
    firsts = [int(ends[j] - n[j]) for j in runs[:-1]] + [int(ends[-1])]
    # ends becomes a in place.
    a = ends
    a -= n
    a *= P
    np.subtract(i0, a, out=a)
    for j, k, t, u in zip(runs, runs[1:], firsts, firsts[1:]):
        idx = np.arange(t, u)
        idx *= np.repeat(P[j:k], n[j:k])
        idx += np.repeat(a[j:k], n[j:k])
        mask[idx] = False
