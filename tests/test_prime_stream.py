import math
import os
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import sieve_primes, window_primes
from primehull import prime_stream
from primehull._seghull import segment_hull
from primehull.prime_stream import MAX_LIMIT, LimitTooLargeError, SieveConfig, iter_prime_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


def collect(cfg):
    primes, pis = [], []
    high = 0
    for p, q, high in iter_prime_blocks(cfg):
        primes.extend(p.tolist())
        pis.extend(q.tolist())
    return primes, pis, high


def as_lists(blocks):
    """Each block of a stream as (primes, pis, high), the arrays as lists."""
    return [(p.tolist(), q.tolist(), high) for p, q, high in blocks]


def kernel_blocks(cfg):
    """The primes stream's blocks cut down to each segment's hull points, by ``segment_hull``.

    Its vertices and ties, in increasing order, with their absolute pi.
    """
    out = []
    for primes, pis, high in iter_prime_blocks(cfg):
        q = []
        if len(primes):
            idx, _, _, tie_buf = segment_hull(primes, pis)
            q = sorted(idx.tolist() + tie_buf.tolist())
        out.append((primes[q].tolist(), pis[q].tolist(), high))
    return out


def test_stream_matches_naive_sieve():
    ref = sieve_primes(10**5)
    primes, pis, high = collect(SieveConfig(limit=10**5))
    assert primes == ref
    assert pis == list(range(1, len(ref) + 1))
    assert high == 10**5


@pytest.mark.parametrize("segment_size", [1024, 4096, 65536, 1 << 20])
def test_segment_size_invariance(monkeypatch, segment_size):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    ref = sieve_primes(30_000)
    primes, pis, _ = collect(SieveConfig(limit=30_000))
    assert primes == ref
    assert pis == list(range(1, len(ref) + 1))


def test_blocks_are_ordered_and_cover_frontier(monkeypatch):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1024)
    cfg = SieveConfig(limit=50_000)
    last_high = 1
    last_p = 1
    for primes, pis, high in iter_prime_blocks(cfg):
        assert high > last_high or (len(primes) == 0 and high >= last_high)
        for p in primes.tolist():
            assert last_p < p <= high
            last_p = p
        last_high = high
    assert last_high == 50_000


def test_base_primes_match_naive_sieve():
    # Every limit to 2,000 steps the recursion through each isqrt, and the
    # top ones sit at and around 997^2 = 994,009, the last square of a prime.
    for limit in [*range(2001), 994_008, 994_009, 999_983, 10**6]:
        basis = prime_stream.base_primes(limit)
        assert basis.dtype == np.int64
        assert basis.tolist() == sieve_primes(limit), limit


def test_resume_from_offset_matches_full_run():
    ref_primes, ref_pis, _ = collect(SieveConfig(limit=40_000))
    cut = 17_389  # prime; resume must restart just past an arbitrary frontier
    idx = ref_primes.index(cut) + 1
    primes, pis, _ = collect(
        SieveConfig(limit=40_000, start=cut + 1, start_pi=idx)
    )
    assert primes == ref_primes[idx:]
    assert pis == ref_pis[idx:]


SCATTER_LIMIT = 3 * 10**6


@pytest.fixture(scope="module")
def scatter_ref():
    return sieve_primes(SCATTER_LIMIT)


@pytest.mark.parametrize("segment_size", [1 << 10, 1 << 14, 1 << 20])
# fresh, an even frontier, a prime one (the 100000th prime), and 2^20 + 1,
# which sits inside the first 2^20 segment of a fresh run
@pytest.mark.parametrize("start", [2, 1_000_000, 1_299_709, 1_048_577])
def test_scatter_path_matches_sieve(monkeypatch, fresh_workers, scatter_ref, segment_size, start):
    # Every base prime from 5 on goes through the scatter, so runs of many
    # lengths, chunk cuts and first multiples below, at and above p*p occur.
    # The workers read the threshold as they were forked, so a fresh set
    # forked after the patch scatters on their segments too.
    monkeypatch.setattr(prime_stream, "SCATTER_MIN_PRIME", 5)
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    start_pi = bisect_left(scatter_ref, start)
    cfg = SieveConfig(limit=SCATTER_LIMIT, start=start, start_pi=start_pi)
    primes, pis, high = collect(cfg)
    assert primes == scatter_ref[start_pi:]
    assert pis == list(range(start_pi + 1, len(scatter_ref) + 1))
    assert high == SCATTER_LIMIT


@pytest.mark.parametrize(
    "lo, hi, segment_size, start_pi",
    [
        # pi(10^10) = 455052511
        (10**10, 10**10 + 2**20, 1 << 20, 455052511),
        # the top of the supported range: base primes up to 10^6
        (MAX_LIMIT - 2**16 + 1, MAX_LIMIT, 1 << 20, 1),
        # one full segment ending there, where the scatter's strike numbers
        # times primes are largest
        (MAX_LIMIT - 2**21 + 1, MAX_LIMIT, 1 << 20, 1),
        # six segments ending there, five of them sieved by the workers,
        # whose fixed table must reach isqrt(MAX_LIMIT) = 10^6
        (MAX_LIMIT - 6 * 2**13 + 1, MAX_LIMIT, 1 << 12, 1),
        # one segment holding both 4099, the first scattered base prime,
        # and its square; pi(4096) = 564
        (4097, 4099**2, 1 << 24, 564),
        # a one-number last segment, as when resuming a 10^8 run to 10^8 + 1;
        # 10^8 + 1 = 17 * 5882353 has no factor the scatter would strike
        (10**8 + 1, 10**8 + 1, 1 << 20, 5761455),
        # minimum-size segments just past 4099^2: 4099's odd multiples lie
        # 8198 apart, so most segments hold no large-prime multiple at all
        (16_801_801, 17_000_000, 1 << 10, 1),
        # six segments near 10^11, five of them sieved by the workers, all
        # at most 10% prime, so every one is padded before extraction;
        # pi(10^11) = 4118054813
        (10**11, 10**11 + 6 * 2**13, 1 << 12, 4118054813),
        # eight segments near 4.85e8, where 10% of odd integers are prime:
        # three are more than 10% prime and five are not, so both
        # extractions run, in the generator and in the workers
        (485_000_001, 485_000_000 + 8 * 2**12, 1 << 11, 1),
    ],
)
def test_high_windows_match_oracle(monkeypatch, lo, hi, segment_size, start_pi):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    cfg = SieveConfig(limit=hi, start=lo, start_pi=start_pi)
    blocks = list(iter_prime_blocks(cfg))
    primes = np.concatenate([b[0] for b in blocks])
    pis = np.concatenate([b[1] for b in blocks])
    assert np.array_equal(primes, window_primes(lo, hi))
    # The sieve takes start_pi on trust, so this checks only that the
    # counts run on without a gap across segments, not start_pi itself.
    assert np.array_equal(pis - start_pi, np.arange(1, len(primes) + 1))
    assert blocks[-1][2] == hi


# Counts of True entries for a mask of k entries: none, just under 10%,
# 10% or the most that is still at most 10%, just over 10%, all.
DENSITIES = {
    "none": lambda k: 0,
    "under": lambda k: max(k // 10 - 1, 0),
    "tenth": lambda k: k // 10,
    "over": lambda k: min(k // 10 + 1, k),
    "all": lambda k: k,
}


def padded_extraction(buf, k):
    """Check ``_nonzero(buf, k)`` against ``np.flatnonzero`` of the mask ``buf[:k]``.

    The mask must be left as it is, and a mask at most 10% set must be
    padded past k with enough True entries that numpy reads more than 10%
    of the padded array as set. Returns the count of padding entries.
    """
    mask = buf[:k].copy()
    c = int(np.count_nonzero(mask))
    room = buf[k:]
    room[:] = False
    got = prime_stream._nonzero(buf, k)
    assert np.array_equal(got, np.flatnonzero(mask))
    assert np.array_equal(buf[:k], mask)
    t = int(np.count_nonzero(room))
    assert room[:t].all()
    if c * 10 <= k:
        assert (c + t) * 10 > k + t
    else:
        assert t == 0
    return t


@given(
    st.integers(1, prime_stream.SEGMENT_SIZE),
    st.sampled_from(sorted(DENSITIES)),
    st.integers(0, 2**32 - 1),
)
@example(prime_stream.SEGMENT_SIZE, "none", 0)
@example(prime_stream.SEGMENT_SIZE, "tenth", 0)
@example(prime_stream.SEGMENT_SIZE, "over", 0)
@example(prime_stream.SEGMENT_SIZE, "all", 0)
@example(10, "tenth", 0)
@example(1, "all", 0)
@settings(max_examples=150, deadline=None)
def test_nonzero_matches_flatnonzero(k, density, seed):
    buf = prime_stream._mask_buffer(prime_stream.SEGMENT_SIZE)
    rng = np.random.default_rng(seed)
    buf[:k] = False
    buf[rng.choice(k, DENSITIES[density](k), replace=False)] = True
    padded_extraction(buf, k)


@pytest.mark.parametrize("size", [1, 9, 10, 1 << 10, prime_stream.SEGMENT_SIZE])
def test_an_empty_full_mask_fits_its_padding(size):
    # The most padding any mask takes: no True entry in all ``size``.
    buf = prime_stream._mask_buffer(size)
    buf[:size] = False
    assert padded_extraction(buf, size) == len(buf) - size


def test_padding_never_leaks_into_the_next_mask():
    # One buffer, as a worker reuses it: a sparse mask, a dense one over
    # the last one's padding, then shorter ones inside both.
    size = 1 << 12
    buf = prime_stream._mask_buffer(size)
    rng = np.random.default_rng(1)
    for k, c in [(size, 300), (size, 3000), (size // 2, 100), (size // 4, 1000), (size // 8, 0)]:
        buf[:k] = False
        buf[rng.choice(k, c, replace=False)] = True
        mask = buf[:k].copy()
        assert np.array_equal(prime_stream._nonzero(buf, k), np.flatnonzero(mask))
        assert np.array_equal(buf[:k], mask)


ODD_PRIMES = sieve_primes(20_000)[1:]


@st.composite
def strike_cases(draw):
    """A mask length and sorted odd primes with first indices, as _sieve_segment passes them."""
    size = draw(st.integers(1, 5000))
    pool = st.sampled_from(ODD_PRIMES[:50]) | st.sampled_from(ODD_PRIMES)
    P = sorted(draw(st.lists(pool, unique=True, max_size=40)))
    # An index from size on, up to size - 1 + p, strikes nothing (n == 0).
    i0 = [draw(st.integers(0, size - 1 + p)) for p in P]
    return size, P, i0


@pytest.mark.parametrize("chunk", [1, 7, prime_stream.SCATTER_CHUNK])
@given(strike_cases())
@example((5, [], []))
# no prime hits the mask at all
@example((10, [4099, 4111], [10, 4000]))
@example((1, [3], [0]))
@settings(max_examples=200, deadline=None)
def test_strike_large_matches_per_prime_slices(chunk, case):
    size, P, i0 = case
    ref = np.ones(size, dtype=bool)
    for p, i in zip(P, i0):
        ref[i::p] = False
    mask = np.ones(size, dtype=bool)
    with mock.patch.object(prime_stream, "SCATTER_CHUNK", chunk):
        prime_stream._strike_large(mask, np.array(P, dtype=np.int64), np.array(i0, dtype=np.int64))
    assert np.array_equal(mask, ref)


def reaped(pid):
    """True once ``pid`` is no child of this process: exited and waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def count_forks(monkeypatch):
    """Patch os.fork to count the processes it starts; returns the list of their pids."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def test_closing_a_stream_early_closes_its_workers(monkeypatch):
    # A stream closed midway kills and reaps its workers with their
    # segments in flight, so the next stream forks a new set, which it
    # leaves idle when it runs to its end.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    blocks = iter_prime_blocks(SieveConfig(limit=10**6))
    next(blocks)  # segment 0, sieved here after the next ones were dealt
    next(blocks)
    workers = prime_stream._workers
    assert workers.busy
    blocks.close()
    assert not workers.alive
    assert all(reaped(pid) for pid in workers.pids)
    forked = count_forks(monkeypatch)
    primes, _, _ = collect(SieveConfig(limit=10**6))
    assert primes == sieve_primes(10**6)
    assert len(forked) == len(os.sched_getaffinity(0))
    assert prime_stream._workers.alive and not prime_stream._workers.busy


@pytest.mark.parametrize("hull", [False, True], ids=["primes", "hull"])
@pytest.mark.parametrize(
    "fault, F, message",
    [
        pytest.param("raises", 5, "failed: RuntimeError: sieve failed", id="raises"),
        pytest.param("table-fails", 1, "failed: RuntimeError: table failed", id="table-fails"),
        pytest.param("killed", 5, "exited", id="killed"),
        pytest.param("stopped", 5, "gave no answer in 0.5 s", id="stopped"),
    ],
)
def test_a_worker_fault_ends_the_stream_after_the_blocks_before_it(monkeypatch, fresh_workers, fault, F, message, hull):
    # The worker dealt segment F raises as it sieves it; fails to build its
    # base-prime table, which it does at its first command inside the
    # answer's try, so F = 1 (the generator's own table, for segment 0, is
    # smaller); stalls on it until it is killed, after every earlier answer
    # has been read; or stops itself with SIGSTOP, so its answer never comes.
    # Each the same on a stream of every prime and on one of hull points.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    monkeypatch.setattr(prime_stream, "WORKER_DEADLINE_S", 0.5)
    span = 2 << 12
    faulty = [1 + F * span]
    sieve, table = prime_stream._sieve_segment, prime_stream.base_primes

    def faulty_sieve(lo, hi, buf, odd_basis):
        if lo in faulty:
            if fault == "raises":
                raise RuntimeError("sieve failed")
            if fault == "killed":
                time.sleep(60)
            if fault == "stopped":
                os.kill(os.getpid(), signal.SIGSTOP)
        return sieve(lo, hi, buf, odd_basis)

    def faulty_table(limit):
        if faulty and fault == "table-fails" and limit == math.isqrt(MAX_LIMIT):
            raise RuntimeError("table failed")
        return table(limit)

    monkeypatch.setattr(prime_stream, "_sieve_segment", faulty_sieve)
    monkeypatch.setattr(prime_stream, "base_primes", faulty_table)
    blocks = iter_prime_blocks(SieveConfig(limit=10**6), hull)
    got = [next(blocks) for _ in range(F)]
    workers = prime_stream._workers
    w, _ = workers.tickets[(F - 1) % len(workers.tickets)]
    if fault == "killed":
        os.kill(workers.pids[w], signal.SIGKILL)
    t0 = time.monotonic()
    with pytest.raises(prime_stream.SieveWorkerError) as raised:
        next(blocks)
    assert time.monotonic() - t0 < 2
    assert str(raised.value) == f"sieve worker {workers.pids[w]} {message}"
    assert [high for _, _, high in got] == [j * span for j in range(1, F + 1)]
    if not hull:
        primes = np.concatenate([p for p, _, _ in got])
        assert primes.tolist() == sieve_primes(F * span)
        assert np.concatenate([q for _, q, _ in got]).tolist() == list(range(1, len(primes) + 1))
    # No worker is left, stopped or running.
    assert not workers.alive
    assert all(reaped(pid) for pid in workers.pids)
    # The next stream forks a new set, which sieves as if nothing happened.
    faulty.clear()
    if hull:
        assert as_lists(got) == kernel_blocks(SieveConfig(limit=F * span))
    assert collect(SieveConfig(limit=10**6))[0] == sieve_primes(10**6)
    assert prime_stream._workers.alive and not prime_stream._workers.busy


def test_answers_queued_in_a_workers_pipe_are_all_read(monkeypatch, fresh_workers):
    # One segment for the generator and two per worker, all dealt by the
    # first next(): by the end of the sleep, both answers of every worker
    # sit in its pipe, and no later answer comes. A buffered reader would
    # take both at the first load, and the wait for the second would then
    # see an empty pipe until the deadline.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    monkeypatch.setattr(prime_stream, "WORKER_DEADLINE_S", 0.5)
    limit = (2 * len(os.sched_getaffinity(0)) + 1) * (2 << 12)
    blocks = iter_prime_blocks(SieveConfig(limit=limit))
    got = [next(blocks)]
    time.sleep(0.5)
    got.extend(blocks)
    assert len(got) == 2 * len(prime_stream._workers.pids) + 1
    assert np.concatenate([p for p, _, _ in got]).tolist() == sieve_primes(limit)


def test_sieves_in_flight_bounded_by_usable_cpus(monkeypatch):
    # Commands sent to a worker less answers read from it, per worker; the
    # 97 segments fill every slot of up to 48 workers.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 10)
    in_flight = Counter()
    peak = Counter()
    submit, collect_slot = prime_stream._Workers.submit, prime_stream._Workers.collect

    def counted_submit(self, w, s, *command):
        in_flight[w] += 1
        peak[w] = max(peak[w], in_flight[w])
        submit(self, w, s, *command)

    def counted_collect(self, w, s, hull):
        in_flight[w] -= 1
        return collect_slot(self, w, s, hull)

    monkeypatch.setattr(prime_stream._Workers, "submit", counted_submit)
    monkeypatch.setattr(prime_stream._Workers, "collect", counted_collect)
    primes, pis, _ = collect(SieveConfig(limit=200_000))
    assert primes == sieve_primes(200_000)
    cpus = len(os.sched_getaffinity(0))
    assert len(prime_stream._workers.pids) == cpus
    assert sorted(peak) == list(range(cpus))
    assert set(peak.values()) == {2}
    assert not any(in_flight.values())


def test_a_slot_is_never_dealt_twice(monkeypatch, fresh_workers):
    # Eight workers on however many cores: a slot dealt to a new segment
    # while its primes are still to be read would lose or invent primes, so
    # each is dealt again only once collected, and all 16 slots are used.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 10)
    monkeypatch.setattr(prime_stream.os, "sched_getaffinity", lambda pid: set(range(8)))
    forked = count_forks(monkeypatch)
    held = set()
    used = set()
    submit, collect_slot = prime_stream._Workers.submit, prime_stream._Workers.collect

    def checked_submit(self, w, s, *command):
        assert (w, s) not in held
        held.add((w, s))
        used.add((w, s))
        submit(self, w, s, *command)

    def checked_collect(self, w, s, hull):
        segment = collect_slot(self, w, s, hull)
        held.remove((w, s))
        return segment

    monkeypatch.setattr(prime_stream._Workers, "submit", checked_submit)
    monkeypatch.setattr(prime_stream._Workers, "collect", checked_collect)
    primes, _, _ = collect(SieveConfig(limit=300_000))
    assert primes == sieve_primes(300_000)
    assert len(forked) == 8
    assert used == {(w, s) for w in range(8) for s in (0, 1)}
    assert held == set()


def test_a_stream_starts_no_thread(monkeypatch):
    # Forking a process that runs threads can deadlock the child, and Python
    # 3.12 warns about it, so the stream must not add a thread of its own.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)

    def threads():
        if os.path.isdir("/proc/self/task"):
            return len(os.listdir("/proc/self/task"))
        return threading.active_count()

    before = threads()
    blocks = iter_prime_blocks(SieveConfig(limit=10**6))
    next(blocks)
    next(blocks)
    assert prime_stream._workers.busy
    assert threads() == before
    blocks.close()
    assert threads() == before


def test_a_second_stream_starts_no_process(monkeypatch):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    collect(SieveConfig(limit=10**6))
    workers = prime_stream._workers
    forked = count_forks(monkeypatch)
    primes, _, _ = collect(SieveConfig(limit=10**6, start=500_001, start_pi=41538))
    assert primes == sieve_primes(10**6)[41538:]
    assert forked == []
    assert prime_stream._workers is workers


def test_a_stream_nested_in_another_sieves_in_process(monkeypatch):
    # The outer stream holds the worker set, so the inner one sieves every
    # segment itself, and leaves the set to the outer one.
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    outer = iter_prime_blocks(SieveConfig(limit=10**6))
    got = [next(outer), next(outer)]
    workers = prime_stream._workers
    forked = count_forks(monkeypatch)
    primes, pis = [], []
    for p, q, _ in iter_prime_blocks(SieveConfig(limit=300_000)):
        assert prime_stream._workers is workers and workers.busy
        primes.extend(p.tolist())
        pis.extend(q.tolist())
    assert primes == sieve_primes(300_000)
    assert pis == list(range(1, len(primes) + 1))
    assert forked == []
    assert workers.busy
    got.extend(outer)
    assert np.concatenate([p for p, _, _ in got]).tolist() == sieve_primes(10**6)
    assert prime_stream._workers is workers and workers.alive and not workers.busy


def test_without_fork_the_stream_sieves_every_segment(monkeypatch, fresh_workers):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 1 << 12)
    monkeypatch.delattr(os, "fork")
    primes, pis, _ = collect(SieveConfig(limit=10**6))
    assert primes == sieve_primes(10**6)
    assert pis == list(range(1, len(primes) + 1))
    assert prime_stream._workers is None


HULL_LIMIT = 10**7


@pytest.fixture(scope="module")
def primes_1e7():
    # An array, which hypothesis prints short in a falsifying example.
    return np.array(sieve_primes(HULL_LIMIT))


@st.composite
def hull_windows(draw):
    """A segment size, and a frontier and a limit to 1e7 at most 64 segments apart.

    Below 8 odd integers a segment's hull points often outnumber half of
    them, as 17, 19 and 23 do of 17..23, which overflow a slot of one row.
    """
    size = draw(st.integers(1, 1 << 8))
    width = 2 * size * draw(st.integers(1, 64))
    if draw(st.booleans()):
        return size, 2, draw(st.integers(2, 2 + width))
    limit = draw(st.integers(2, HULL_LIMIT))
    return size, draw(st.integers(max(2, limit - width), limit)), limit


@pytest.mark.parametrize("path", ["workers", "nested", "no-fork"])
@given(hull_windows())
@example((4, 2, 1000))
@example((1, 2, 200))
@example((7, HULL_LIMIT - 64 * 14, HULL_LIMIT))
@example((1 << 8, HULL_LIMIT - 1, HULL_LIMIT))
@settings(max_examples=25, deadline=None)
def test_the_hull_stream_yields_each_segments_hull_points(primes_1e7, path, window):
    # Whichever process runs the kernel: the workers, the generator of a
    # stream nested in another, or the generator of a process without fork.
    size, start, limit = window
    cfg = SieveConfig(limit=limit, start=start, start_pi=int(np.searchsorted(primes_1e7, start)))
    with mock.patch.object(prime_stream, "SEGMENT_SIZE", size):
        want = kernel_blocks(cfg)
        if path == "workers":
            got = as_lists(iter_prime_blocks(cfg, hull=True))
        elif path == "nested":
            outer = iter_prime_blocks(SieveConfig(limit=6 * size))
            next(outer)
            assert prime_stream._workers.busy
            got = as_lists(iter_prime_blocks(cfg, hull=True))
            outer.close()
        else:
            fork = os.fork
            del os.fork
            try:
                got = as_lists(iter_prime_blocks(cfg, hull=True))
            finally:
                os.fork = fork
    assert got == want


STREAM_LEFT_OPEN = """
from primehull import prime_stream
prime_stream.SEGMENT_SIZE = 1 << 12
{patch}
lo = 4099**2 - 5 * 8192
blocks = prime_stream.iter_prime_blocks(prime_stream.SieveConfig(limit=lo + 20 * 8192, start=lo, start_pi=1))
next(blocks)
print(*prime_stream._workers.pids, flush=True)
{finish}
"""

SCATTER_FAILS = """
real = prime_stream._strike_large
def strike(mask, P, i0):
    if len(P):
        raise RuntimeError("scatter failed")
    real(mask, P, i0)
prime_stream._strike_large = strike
"""


@pytest.mark.parametrize(
    "patch, finish, code",
    [
        # the stream is left suspended with segments in flight
        ("", "", 0),
        # the sixth segment's worker raises, and nothing catches it
        (SCATTER_FAILS, "for block in blocks: pass", 1),
    ],
    ids=["suspended", "worker-error"],
)
def test_no_worker_outlives_its_process(tmp_path, patch, finish, code):
    script = STREAM_LEFT_OPEN.format(patch=patch, finish=finish)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # Files, not pipes: a worker that outlived the script would hold a
    # pipe open, and reading it to its end would wait for the worker.
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as stdout, err.open("w") as stderr:
        run = subprocess.run([sys.executable, "-c", script], env=env, stdout=stdout, stderr=stderr, timeout=60)
    assert run.returncode == code, err.read_text()
    if code:
        assert "RuntimeError: scatter failed" in err.read_text()
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == len(os.sched_getaffinity(0))
    deadline = time.monotonic() + 2
    alive = pids
    while alive and time.monotonic() < deadline:
        time.sleep(0.01)
        alive = [pid for pid in alive if os.path.exists(f"/proc/{pid}")]
    assert alive == []


def test_limit_cap_rejected():
    with pytest.raises(LimitTooLargeError):
        SieveConfig(limit=10**12 + 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(limit=1),
        dict(limit=100, start=1),
        dict(limit=100, start=200),
        dict(limit=100, start=2, start_pi=5),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SieveConfig(**kwargs)


@pytest.mark.parametrize(
    "limit, segment_size",
    [(2, None), (3, None), (10, None), (10**5, None), (50_000, 1 << 10)],
    ids=["2", "3", "10", "1e5", "5e4-1024"],
)
def test_a_fresh_stream_first_block_starts_at_2(monkeypatch, limit, segment_size):
    # A fresh stream's first segment starts at 1, which stands for 2, so
    # its first block holds 2 and the odd primes of that segment.
    if segment_size:
        monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    blocks = list(iter_prime_blocks(SieveConfig(limit=limit)))
    primes, pis, high = blocks[0]
    assert primes[0] == 2 and len(primes) > (limit >= 3)
    assert high == min(2 * prime_stream.SEGMENT_SIZE, limit)
    if len(blocks) == 1:
        want = prime_stream.base_primes(limit)
        assert primes.tolist() == want.tolist()
        assert pis.tolist() == list(range(1, len(want) + 1))
