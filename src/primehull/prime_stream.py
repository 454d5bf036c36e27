"""Segmented prime sieve with an exact running prime counter.

Produces the stream of points (p, pi(p)) consumed by the hull engine.
Segments are sieved with numpy over odd integers only; 1 stands for 2.
The base primes come from the same sieve, run on one mask from 1.
Small base primes strike their multiples with one strided slice each; all
larger ones are struck together with one numpy scatter per segment, the
vectorized form of the bucket sieve of Oliveira e Silva, Herzog and Pardi
(Math. Comp. 2014), with indices built by one product and one sum per
chunk of strikes. Near 3e11 a segment has about 45k base primes, and a
Python-level loop over them made a 1e8 window there about five times
slower. The stream is deterministic for a given (start, limit) wherever a
resume frontier cuts the segments, and supports resuming from any
(start, start_pi) frontier.
Every segment after a stream's first is sieved in a worker process, one
per usable CPU, forked once per process and reused by later streams; a
stream that stops early closes the set, and the next one forks anew. Each
worker builds one fixed table of the odd base primes up to
isqrt(``MAX_LIMIT``) as it starts, as the bucket sieve assumes, sieves
into its own mask and also extracts the primes, into one of its two slots
of shared memory. For the E hull a worker also runs the exact segment
kernel (``_seghull.hull_points``) on the segment's local heights 1..c and
leaves only the points on the segment's upper hull in its slot, so the
parent never sees the other primes; the M hull, the envelope scan and the
window read every prime. The blocks are delivered strictly in segment
order; see ``iter_prime_blocks``. Each mask of ``SEGMENT_SIZE`` entries
has up to ``SEGMENT_SIZE // 9 + 64`` bytes of room after it, which lets a
mask at most 10% set, as every mask above about 4.9e8 is, take numpy's
fast dense path to its primes; see ``_nonzero``. Processes, not threads,
because the interpreter lock held two sieve threads to 1.2-1.4x one
thread's work.
This is the one module of the package that starts threads or processes,
so every consumer of the stream (the E and M hulls, the envelope scan)
shares them through one code path.
The explicit bound on pi(x) that proves vertices final lives beside the
rule that uses it, ``hull_engine.pi_bound``.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import weakref
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._seghull import hull_points

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
# A worker with no answer this many seconds after its segment is awaited is
# taken for stalled; a segment takes milliseconds even at 10^12.
WORKER_DEADLINE_S = 600


# The process's worker set, forked by the first stream with a second segment.
_workers: _Workers | None = None


class LimitTooLargeError(ValueError):
    """Requested limit exceeds the supported sieve range."""


class SieveWorkerError(RuntimeError):
    """A sieve worker raised, exited, gave no answer in time or could not be forked."""


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
    """Primes <= limit (int64 array), by the segment sieve on one mask from 1.

    Every caller asks for at most 10^6, so the mask stays below
    ``SEGMENT_SIZE`` and the recursion is at most 5 deep.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    top = limit - 1 + limit % 2
    return _segment_primes(1, top, _mask_buffer(top // 2 + 1), base_primes(math.isqrt(limit))[1:])


def iter_prime_blocks(cfg: SieveConfig, hull: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (primes, pi_values, segment_high) per segment, in order.

    ``primes`` and ``pi_values`` are aligned int64 arrays that belong to the
    caller; ``segment_high`` is the largest integer fully sieved so far (the
    confirmation frontier). With ``hull`` set, a block holds only the
    segment's points on the upper hull of its points (p, pi(p)), vertices
    and ties, as ``_seghull.hull_points`` picks them, still with their
    absolute pi; a segment with no prime yields an empty block either way.
    Each segment holds ``SEGMENT_SIZE`` odd integers lo..hi (the last one
    may hold fewer), and the constant is read when iteration starts. A fresh stream's first segment starts at 1, which
    stands for 2 (see ``_segment_primes``), so its first block holds 2 and
    the odd primes after it; a resumed stream's first segment starts at the
    first odd integer at or after ``cfg.start``.

    The generator sieves segment 0 itself, after handing the next ones to
    the workers, so a stream of one segment forks nothing. Every later
    segment is sieved by the process's worker set (see ``_Workers``): one
    forked process per usable CPU, started by the first stream that has a
    second segment and reused by every later stream, so a chunked run forks
    once. A stream that finds the set busy, as a stream opened inside
    another does, sieves every segment itself, as it does where ``os.fork``
    is missing. With W workers, segment i >= 1 goes to the worker slot
    ``tickets[(i - 1) % 2W]``, two slots per worker: worker w sieves into
    its own mask, extracts the primes into the slot, with ``hull`` keeps
    there only the hull points and their local heights, and answers with
    the two counts. The generator takes the segments back strictly in
    order. It copies segment i's points out of its slot, deals segment
    i + 2W to that slot at once, numbers the points on from the running
    count and yields them, so the caller's work on a block overlaps the
    sieving of the segments after it. A segment the generator sieves
    itself goes through the same kernel in this process. A worker that
    raises, exits (as one killed by a signal does) or gives no answer
    within ``WORKER_DEADLINE_S`` seconds raises ``SieveWorkerError`` from
    the ``next()`` that reaches its segment, after every block before it,
    as a set that cannot be forked does from the first. A stream that stops early, because it is closed or
    a worker or the caller raised, closes the set instead, killing and
    reaping the workers with their segments in flight; the next stream
    forks a new set.
    A nested stream holds no set, so stopping it early closes nothing.

    Memory: a mask is ``SEGMENT_SIZE`` bytes plus up to
    ``SEGMENT_SIZE // 9 + 64`` bytes of room after it, which a mask at most
    10% set fills in part to reach numpy's fast extraction (``_nonzero``).
    The generator holds no mask between blocks; each segment it sieves
    itself borrows one for as long as it is sieved. Each worker holds its
    own mask, the 0.63 MB table of its 78,497 odd base primes up to 10^6,
    and two slots of two rows of ``SEGMENT_SIZE`` int64 in shared memory,
    of which a segment's primes touch 8 bytes each (about 0.66 MB near
    1e11). With ``hull`` the generator reads only the few pages of the
    hull points, a median of 15 per segment to 1e8 (a full segment there
    holds 114k primes), and each worker holds the kernel's temporaries
    while it runs, which raised a worker's peak resident memory from 27.6
    to 31.1 MB over ``compute_extremal(10**8)``. The generator releases
    its view of the slots when a stream is exhausted.
    While its scatter runs, a segment in flight holds 24 bytes of scratch
    per base prime and about 256 KB per chunk of strikes; tracemalloc
    measures 0.91 MB near 1e11 and 2.14 MB near 1e12. The block held costs
    16 bytes per prime; a block the generator sieved itself from a sparse
    mask also keeps 8 bytes per padding entry.
    """
    limit = cfg.limit
    odd_basis = base_primes(math.isqrt(limit))[1:]
    size = SEGMENT_SIZE
    span = 2 * size
    top = limit if limit % 2 == 1 else limit - 1
    starts = range(1 if cfg.start == 2 else cfg.start | 1, top + 1, span)
    workers = _acquire(size) if len(starts) > 1 and hasattr(os, "fork") else None
    tickets = [] if workers is None else workers.tickets

    def deal(i):
        if i < len(starts):
            workers.submit(*tickets[(i - 1) % len(tickets)], starts[i], min(starts[i] + span - 2, top), hull)

    count = cfg.start_pi
    try:
        for i in range(1, len(tickets) + 1):
            deal(i)
        for i, lo in enumerate(starts):
            hi = min(lo + span - 2, top)
            if i == 0 or workers is None:
                primes = _segment_primes(lo, hi, _mask_buffer(size), odd_basis)
                c, heights = len(primes), None
                if hull:
                    primes, heights = _hull_points(primes)
            else:
                c, primes, heights = workers.collect(*tickets[(i - 1) % len(tickets)], hull)
                deal(i + len(tickets))
            if heights is None:
                heights = np.arange(count + 1, count + c + 1, dtype=np.int64)
            else:
                heights += count
            count += c
            yield primes, heights, min(hi + 1, limit)
            # Hold no block while waiting for the next one.
            del primes, heights
    except BaseException:
        if workers is not None:
            workers.close()
        raise
    if workers is not None:
        workers.release()


def _acquire(size: int) -> _Workers | None:
    """The process's worker set for segments of ``size`` odd integers, marked busy.

    The set is forked again if it is closed, as a stream that stopped early
    leaves it, or was forked for another segment size or CPU count. None
    while another stream holds it.
    """
    global _workers
    cached = _workers
    if cached is not None and cached.alive and cached.busy:
        return None
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:  # macOS
        count = os.cpu_count() or 1
    if cached is None or not cached.alive or (cached.size, len(cached.pids)) != (size, count):
        if cached is not None:
            cached.close()
        cached = _workers = _Workers(count, size)
    cached.busy = True
    return cached


class _Workers:
    """Forked sieve worker processes, each with a mask and two prime slots.

    Slot (w, s) of worker w is two rows of ``size`` int64 in one shared
    anonymous mmap, which takes memory only where it is written. Each
    worker reads pickled commands ``(s, lo, hi, hull)`` from its own pipe,
    each of which makes it sieve the odd integers lo..hi into its mask and
    write their c primes to the start of row 0 of slot (w, s). With
    ``hull`` it then overwrites the start of row 0 with the k points of
    ``_hull_points`` and writes their local heights to the start of row 1.
    Both fit whatever the segment size: c is at most the mask's length,
    which is at most ``size``, and k <= c. One row would need 2k <= size,
    which small segments break: with ``size`` 4, all three primes of
    17..23 are on the hull. It answers on a second pipe, in command order,
    with the pair (c, k), k = c without ``hull``, or with the type and
    message of the exception, also one from building its base-prime table
    at the first command. A worker exits at its command pipe's end of
    file, as when this process dies; ``close`` kills and reaps the
    workers, and runs when a stream stops early, at exit and when the set
    is collected.
    """

    def __init__(self, count: int, size: int) -> None:
        self.size = size
        self.busy = False
        self._map = mmap.mmap(-1, count * 2 * 2 * size * 8)
        self._slots = np.frombuffer(self._map, dtype=np.int64).reshape(count, 2, 2, size)
        # (worker, slot) in the order a stream's first segments are dealt.
        self.tickets = [(w, s) for s in (0, 1) for w in range(count)]
        self.pids: list[int] = []
        # Per worker, its command pipe's read and write ends, then its answer
        # pipe's; unbuffered readers leave every answer for ``select`` to see.
        ends: list = []
        self._stop = weakref.finalize(self, _stop, os.getpid(), self.pids, ends)
        try:
            for _ in range(2 * count):
                read_fd, write_fd = os.pipe()
                ends += open(read_fd, "rb", buffering=0), open(write_fd, "wb")
            self._commands, self._answers = ends[1::4], ends[2::4]
            for w in range(count):
                pid = os.fork()
                if pid == 0:
                    try:
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        mine = ends[4 * w], ends[4 * w + 3]
                        for f in ends:
                            if f not in mine:
                                os.close(f.fileno())
                        _serve(*mine, self._slots[w])
                    finally:
                        os._exit(0)
                self.pids.append(pid)
        except BaseException as exc:
            self.close()
            if isinstance(exc, OSError):
                raise SieveWorkerError(f"could not fork sieve workers: {exc}") from exc
            raise
        finally:
            for f in ends[0::4] + ends[3::4]:
                f.close()

    @property
    def alive(self) -> bool:
        return self._stop.alive

    def submit(self, w: int, s: int, lo: int, hi: int, hull: bool) -> None:
        # A worker that exited refuses the command; ``collect`` reports it
        # when the stream reaches the segment the worker did not answer.
        with suppress(BrokenPipeError):
            pickle.dump((s, lo, hi, hull), self._commands[w])
            self._commands[w].flush()

    def collect(self, w: int, s: int, hull: bool) -> tuple[int, np.ndarray, np.ndarray | None]:
        """Worker w's oldest segment from slot s, or ``SieveWorkerError``.

        Returns the segment's prime count c, its primes or with ``hull``
        its hull points as a new array, and with ``hull`` their local
        heights as a new array, else None.
        """
        try:
            if not select.select([self._answers[w]], [], [], WORKER_DEADLINE_S)[0]:
                raise SieveWorkerError(f"sieve worker {self.pids[w]} gave no answer in {WORKER_DEADLINE_S} s")
            reply = pickle.load(self._answers[w])
        except EOFError:
            # Not reaped here: the stream closes the set at once, and
            # reaping first would let ``_stop`` signal a reused pid.
            raise SieveWorkerError(f"sieve worker {self.pids[w]} exited") from None
        if isinstance(reply, str):
            raise SieveWorkerError(f"sieve worker {self.pids[w]} failed: {reply}")
        c, k = reply
        points, heights = self._slots[w, s, :, :k]
        return c, points.copy(), heights.copy() if hull else None

    def release(self) -> None:
        """Return the slots' memory to the system and mark the set idle."""
        self._map.madvise(mmap.MADV_DONTNEED)
        self.busy = False

    def close(self) -> None:
        self._stop()


def _stop(owner: int, pids: list[int], files: list) -> None:
    """Kill and reap the workers and close their pipes; only in the process that forked them."""
    if os.getpid() != owner:
        return
    for pid in pids:
        # Under SIGCHLD set to SIG_IGN, a worker that exited is already reaped.
        with suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for f in files:
        # A command that a dead worker's pipe refused is still buffered, and
        # flushing it fails again; the pipe is closed all the same.
        with suppress(OSError):
            f.close()


def _serve(commands, answers, slots: np.ndarray) -> None:
    """A worker's loop: answer each command with two counts or an error's text, until EOFError."""
    buf = _mask_buffer(slots.shape[-1])
    odd_basis = None
    while True:
        s, lo, hi, hull = pickle.load(commands)
        try:
            if odd_basis is None:  # built here, so its error is answered too
                odd_basis = base_primes(math.isqrt(MAX_LIMIT))[1:]
            primes = _segment_primes(lo, hi, buf, odd_basis, slots[s, 0])
            k = len(primes)
            if hull:
                points, heights = _hull_points(primes)
                k = len(points)
                slots[s, 0, :k], slots[s, 1, :k] = points, heights
            reply = len(primes), k
        except Exception as exc:
            reply = f"{type(exc).__name__}: {exc}"
        pickle.dump(reply, answers)
        answers.flush()


def _hull_points(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of one segment's primes on its upper hull, and their local heights.

    The kernel runs on the heights 1..c of the segment's c primes, which
    differ from their pi by one constant and so pick the same vertices and
    ties. Both arrays are new.
    """
    c = len(primes)
    q = hull_points(primes, np.arange(1, c + 1, dtype=np.int64)) if c else np.empty(0, dtype=np.int64)
    return primes[q], q + 1


def _mask_buffer(size: int) -> np.ndarray:
    """A buffer for masks of up to ``size`` entries and the room ``_nonzero`` pads them with."""
    return np.empty(size + size // 9 + 64, dtype=bool)


def _segment_primes(
    lo: int, hi: int, buf: np.ndarray, odd_basis: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The primes among the odd integers lo..hi, sieved in ``buf`` (see ``_mask_buffer``).

    When lo is 1, 1 stands for 2: mask index 0 is never struck, since
    strikes start at p*p, and its entry ends as 2. The primes are written
    to the start of ``out`` and returned as that view, or returned as a new
    int64 array when ``out`` is None.
    """
    idx = _nonzero(buf, len(_sieve_segment(lo, hi, buf, odd_basis)))
    primes = idx if out is None else out[: len(idx)]
    np.multiply(idx, 2, out=primes)
    primes += lo
    if lo == 1:
        primes[0] = 2
    return primes


def _nonzero(buf: np.ndarray, k: int) -> np.ndarray:
    """The indices of the True entries of ``buf[:k]``, as ``np.flatnonzero(buf[:k])``.

    ``buf`` must hold at least ``k + k // 9 + 64`` entries; nothing below
    index k is written.

    numpy finds the True entries of a 1-D bool array that is at most 10%
    set with one memchr call per entry, and those of any other with one
    branchless pass. Above about 4.9e8 fewer than 10% of odd integers are
    prime, so every sieve mask took the slow path. A sparse mask is
    therefore padded, past index k, with t = (k - 10c) // 9 + 64 True
    entries: then (c + t) * 10 > k + t, so the padded array is more than
    10% set, and its first c indices are the mask's own. The result does
    not depend on numpy's rule; only its speed does. On one core of a
    2-core x86_64 VM (numpy 2.4), extracting a full segment's primes went
    from 1.34 to 0.38 ms at 1e9, 1.10-1.15 to 0.39-0.40 ms at 1e11 and
    1.02-1.05 to 0.39 ms at 5e11, and sieve plus extraction from 2.6 to
    1.7, 3.1 to 2.35 and 3.35 to 2.7 ms. A mask more than 10% set pays one
    extra count: 0.38 ms against 0.35-0.47 ms at 1e8.
    """
    c = int(np.count_nonzero(buf[:k]))
    if c * 10 > k:
        return np.flatnonzero(buf[:k])
    t = (k - 10 * c) // 9 + 64
    buf[k : k + t] = True
    return np.flatnonzero(buf[: k + t])[:c]


def _sieve_segment(lo: int, hi: int, buf: np.ndarray, odd_basis: np.ndarray) -> np.ndarray:
    """Sieve the odd integers lo..hi into ``buf``; returns the mask used.

    The mask is the view of ``buf`` whose entry i is True exactly when
    lo + 2i is prime. Nothing but ``buf`` is written, so a worker sieves
    every segment it is sent into one mask of its own. ``odd_basis`` holds
    the odd primes up to at least isqrt(hi), in order; the first odd
    multiple at or above max(p*p, lo) of each one with p*p <= hi is
    computed once, as one vectorized step. The mask is then marked in two ways. An odd
    base prime below ``SCATTER_MIN_PRIME`` clears its multiples with one
    strided slice, which is cheap while the slice is long. Every larger one
    is handled by ``_strike_large``, a single numpy scatter for all of
    them, because a Python-level loop over tens of thousands of short
    slices costs far more than the writes themselves. Thresholds from 2^11
    to 2^14 time alike on 1e8 windows at 3e11 and on the sieve from 2 to
    1e8; 2^12 sits in the middle. The first scattered prime is 4099, so
    segments ending below 4099^2 (about 1.68e7) never scatter.
    """
    mask = buf[: (hi - lo) // 2 + 1]
    mask.fill(True)
    P = odd_basis[: np.searchsorted(odd_basis, math.isqrt(hi), side="right")]
    split = np.searchsorted(P, SCATTER_MIN_PRIME)
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
    takes fewer than 2^20 strikes (530k at 10^12), as does the table
    sieve's mask, which stays below ``SEGMENT_SIZE`` (``base_primes``); base
    primes are at most isqrt(``MAX_LIMIT``) = 10^6 < 2^20, so start * P,
    t * P and |a| stay below 2^40, far inside int64 (though not int32).
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
