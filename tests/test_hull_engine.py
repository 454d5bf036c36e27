import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import batch_upper_hull, chord_dominates, hull_of_primes, m_filter_chain, prime_points
from primehull.hull_engine import (
    HullState,
    HullVertex as P,
    compute_extremal,
    segment_hull,
)
from primehull.analysis import ExactSlope, records_from_state
from primehull.m_variant import MHullState
from primehull import m_variant, prime_stream
from primehull._seghull import BLOCK, _candidates


def _slope_order(a, b, c):
    """Sign of lhs - rhs from ``HullState._cross``: slope(a, b) vs slope(b, c)."""
    lhs, rhs = HullState._cross(a, b, c.p, c.pi)
    return (lhs > rhs) - (lhs < rhs)


def test_slope_compare_examples():
    assert _slope_order(P(2, 1), P(3, 2), P(7, 4)) == 1  # 1 vs 1/2
    assert _slope_order(P(19, 8), P(23, 9), P(47, 15)) == 0  # both 1/4
    assert _slope_order(P(2, 1), P(5, 3), P(7, 4)) == 1  # 2/3 vs 1/2
    assert _slope_order(P(2, 1), P(3, 2), P(5, 3)) == 1  # 1 vs 1/2
    assert _slope_order(P(3, 2), P(5, 3), P(7, 4)) == 0  # 1/2 = 1/2
    assert _slope_order(P(7, 4), P(11, 5), P(13, 6)) == -1  # 1/4 < 1/2


def test_exact_slope():
    with pytest.raises(ValueError):
        ExactSlope(1, 0)
    with pytest.raises(ValueError):
        ExactSlope(1, -2)


def test_push_two_points():
    s = HullState()
    s.push(2, 1)
    s.push(3, 2)
    assert [(v.p, v.pi) for v in s.stack] == [(2, 1), (3, 2)]


def test_push_tie_records_popped_vertex():
    s = HullState()
    for p, pi in [(2, 1), (3, 2), (5, 3)]:
        s.push(p, pi)
    assert [v.p for v in s.stack] == [2, 3, 5]
    s.push(7, 4)  # slope(3,5) = slope(5,7) = 1/2: 5 is collinear under 7
    assert [v.p for v in s.stack] == [2, 3, 7]
    assert s.stack[-1].ties == [5]


def test_push_primes_to_50():
    s = HullState()
    for p, pi in prime_points(50):
        s.push(p, pi)
    assert [v.p for v in s.stack] == [2, 3, 7, 19, 47]
    assert s.stack[-1].ties == [23, 31, 43]


def test_push_out_of_order_rejected():
    s = HullState()
    s.push(2, 1)
    s.push(3, 2)
    with pytest.raises(ValueError):
        s.push(3, 2)


def test_strict_pop_discards_stale_ties():
    # 5 ties under 7; a later point steep enough to pop 7 must not inherit
    # the {5} annotation, because the edge that carried it is gone.
    s = HullState()
    for p, pi in [(2, 1), (3, 2), (5, 3), (7, 4)]:
        s.push(p, pi)
    assert s.stack[-1].ties == [5]
    s.push(11, 9)  # slope(3,7)=1/2 < slope(7,11)=5/4: strict pop of 7
    popped_to = s.stack[-1]
    assert popped_to.p == 11 and popped_to.ties == []


def test_confirm_at_200():
    # Evaluating both confirmation conditions by hand at x=200 (e.g. for
    # v=113, u=(73,21), s=9/40: slope bound 0.1922 < 0.225 and count bound
    # 47.44 < 21 + 0.225*127 = 49.575) confirms exactly through 113.
    s = HullState()
    for p, pi in prime_points(200):
        s.push(p, pi)
    s.confirm_through(200)
    confirmed = [v.p for v in s.stack[: s.confirmed_len]]
    assert confirmed == [2, 3, 7, 19, 47, 73, 113]
    assert [v.p for v in s.stack[s.confirmed_len :]] == [199]


def test_confirm_at_10_reaches_first_vertex():
    # At x=10 the conditions already hold for (7,4) against u=(3,2):
    # slope bound 1.25506(ln10-1)/ln^2(10) = 0.3083 < 1/2 and count bound
    # 12.5506/ln 10 = 5.4507 < 2 + 0.5*(10-3) = 5.5.
    s = HullState()
    for p, pi in [(2, 1), (3, 2), (5, 3), (7, 4)]:
        s.push(p, pi)
    s.confirm_through(10)
    assert [v.p for v in s.stack[: s.confirmed_len]] == [2, 3, 7]


def test_confirm_at_100():
    r = compute_extremal(100)
    assert [rec.e for rec in r.confirmed] == [2, 3, 7, 19, 47]
    assert [v.p for v in r.state.stack[r.state.confirmed_len :]] == [73, 83, 89, 97]


def test_confirmations_monotone_under_extension(run_1e6):
    half = compute_extremal(5 * 10**5)
    full_confirmed = [rec.e for rec in run_1e6.confirmed]
    half_confirmed = [rec.e for rec in half.confirmed]
    assert half_confirmed == full_confirmed[: len(half_confirmed)]


def test_streaming_equals_batch_oracle_1e6(run_1e6, oracle_hull_1e6):
    stack = run_1e6.state.stack
    assert [v.p for v in stack] == [v.p for v in oracle_hull_1e6]
    assert [v.ties for v in stack] == [v.ties for v in oracle_hull_1e6]


@pytest.mark.parametrize("limit", [10**3, 10**4, 10**5])
def test_streaming_equals_batch_oracle_small(limit):
    stack = compute_extremal(limit).state.stack
    oracle = hull_of_primes(limit)
    assert [v.p for v in stack] == [v.p for v in oracle]
    assert [v.ties for v in stack] == [v.ties for v in oracle]


@pytest.mark.parametrize("segment_size", [1024, 8192, 1 << 17])
def test_segment_size_does_not_change_hull(monkeypatch, segment_size, run_1e5):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    r = compute_extremal(10**5)
    assert [(v.p, v.pi, v.ties) for v in r.state.stack] == [
        (v.p, v.pi, v.ties) for v in run_1e5.state.stack
    ]
    assert r.state.confirmed_len == run_1e5.state.confirmed_len


def test_chord_dominance_1e6(run_1e6):
    vertices = [(v.p, Fraction(v.pi)) for v in run_1e6.state.stack]
    points = [(p, Fraction(k)) for p, k in prime_points(10**6)]
    assert chord_dominates(vertices, points)


def test_randomized_extension_prefix_stability(monkeypatch):
    rng = random.Random(20260814)
    base = compute_extremal(10**6)
    base_confirmed = [rec.e for rec in base.confirmed]
    for _ in range(20):
        limit = rng.randrange(10**4, 10**6)
        monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", rng.choice([1024, 4096, 1 << 16, 1 << 20]))
        r = compute_extremal(limit)
        got = [rec.e for rec in r.confirmed]
        assert got == base_confirmed[: len(got)]


def test_resume_equals_straight_run():
    straight = compute_extremal(10**6)
    resumed = compute_extremal(314_159).state
    resumed.extend(10**6)
    assert [(v.p, v.pi, v.ties) for v in resumed.stack] == [
        (v.p, v.pi, v.ties) for v in straight.state.stack
    ]
    assert resumed.confirmed_len == straight.state.confirmed_len
    sums = [(r.sum_inv, r.sum_invlog) for r in records_from_state(resumed)]
    assert sums == [(r.sum_inv, r.sum_invlog) for r in records_from_state(straight.state)]


def test_push_and_frontier_guard():
    s = HullState()
    s.push(2, 1)
    s.push(3, 2)
    assert (s.last_processed, s.pi_at_last) == (3, 2)
    with pytest.raises(ValueError):
        s.confirm_through(2)  # frontier behind the last pushed prime
    assert s.confirm_through(4) == 2
    with pytest.raises(ValueError):
        s.push(4, 2)  # at or before the confirmed frontier


def test_compute_rejects_shrinking_limit():
    # extend leaves its range checks to SieveConfig, whose messages show here.
    r = compute_extremal(1000)
    with pytest.raises(ValueError, match="^start 1001 exceeds limit 500$"):
        r.state.extend(500)
    with pytest.raises(prime_stream.LimitTooLargeError):
        r.state.extend(prime_stream.MAX_LIMIT + 1)
    # A fresh state's frontier is 1, yet extending it to 1 is refused.
    with pytest.raises(ValueError, match="^limit must be >= 2, got 1$"):
        HullState().extend(1)
    # Extending to the frontier itself changes nothing.
    before = copy.deepcopy(r.state)
    r.state.extend(1000)
    assert r.state == before


# Synthetic strictly-increasing integer point clouds with deliberate
# collinear stretches: pi increments drawn from a tiny alphabet make exact
# slope ties common.
@st.composite
def synthetic_points(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    dxs = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    dys = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    x, y = 2, 1
    pts = [(x, y)]
    for dx, dy in zip(dxs, dys):
        x += dx
        y += dy
        pts.append((x, y))
    return pts


# M clouds: p just above 1e9 in runs of constant pi.  Along a run the heights
# p/pi are collinear, so exact ties on the M hull are frequent, and with pi
# 3, 7 or near 5e7 they are far from dyadic, so their float heights round.
@st.composite
def m_tie_clouds(draw):
    p = draw(st.integers(10**9, 10**9 + 10**6))
    pis = st.one_of(st.sampled_from([3, 7, 21]), st.integers(5 * 10**7, 5 * 10**7 + 3))
    pts = []
    for pi in draw(st.lists(pis, min_size=1, max_size=6)):
        for gap in draw(st.lists(st.integers(1, 40), min_size=2, max_size=15)):
            p += gap
            pts.append((p, pi))
    return pts


def oracle_hull(pts):
    """(p, pi, ties) of every vertex of the batch Fraction oracle."""
    return [(v.p, int(v.y), v.ties) for v in batch_upper_hull([(p, Fraction(r)) for p, r in pts])]


def kernel_hull(pts):
    """(p, pi, ties) of every vertex segment_hull returns for one segment."""
    P = np.array([p for p, _ in pts], dtype=np.int64)
    R = np.array([r for _, r in pts], dtype=np.int64)
    idx, tie_lo, tie_hi, tie_buf = segment_hull(P, R)
    return [
        (int(P[i]), int(R[i]), [int(P[t]) for t in tie_buf[lo:hi]])
        for i, lo, hi in zip(idx, tie_lo, tie_hi)
    ]


def polyline(*corners):
    """Points (x, y) at every integer x along a polyline of integer slopes.

    Every third point off a corner sits one below the line, so each edge
    carries both ties and points strictly inside the hull.
    """
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        slope, rest = divmod(y1 - y0, x1 - x0)
        assert rest == 0
        pts += [(x, y0 + slope * (x - x0)) for x in range(x0, x1)]
    pts.append(corners[-1])
    bends = {x for x, _ in corners}
    return [(x, y - (x % 3 == 2 and x not in bends)) for x, y in pts]


# Clouds whose first-level cross products put their running maxima at the
# edges of the kernel's candidate blocks.  Point i > 0 is in block
# (i - 1) // BLOCK, so the first slot of block 1 is BLOCK + 1 and its last
# slot 2 * BLOCK.
B = BLOCK
BLOCK_CLOUDS = [
    # The farthest point in a block's first slot, then in its last slot.
    polyline((0, 0), (B + 1, 3 * B + 3), (3 * B + 1, 3 - B)),
    polyline((0, 0), (2 * B, 6 * B), (3 * B + 1, 4 * B - 2)),
    # A horizontal chord under a flat top from B - 2 to B + 3: a tie run
    # across the edge of blocks 0 and 1.
    polyline((0, 0), (B - 2, 2 * B - 4), (B + 3, 2 * B - 4), (2 * B + 1, 0)),
    # A flat top across blocks 0 to 3, so their block maxima are equal.
    polyline((0, 0), (3, 6), (3 * B + 3, 6), (3 * B + 6, 0)),
    # Flat runs below the peak, across blocks 0 to 2 on its left and 2 to
    # 4 on its right: points equal to an earlier (a later) block maximum
    # that are running maxima from the left (the right) only.
    polyline((0, 0), (3, 6), (2 * B + 3, 6), (2 * B + 6, 12), (2 * B + 9, 6), (4 * B + 9, 6), (4 * B + 12, 0)),
]


@pytest.mark.parametrize(
    "pts",
    [
        [(5, 3)],
        [(5, 3), (7, 4)],
        [(x, 2 * x + 1) for x in range(1, 12)],  # all collinear
        [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 1), (8, 1), (9, 2)],  # flat runs
        [(x, 0) for x in range(1, 7)],  # one flat run
        # (2, 3) and (4, 3) tie for the maximum height over the chord
        # (0, 0) -> (6, 0); (3, 3) lies between them on the same line.
        [(0, 0), (1, 1), (2, 3), (3, 3), (4, 3), (5, 2), (6, 0)],
        # (2, 4) and (5, 7) tie for the maximum distance above the chord
        # (0, 0) -> (8, 8) on a line of slope 1 that also carries (3, 5).
        [(0, 0), (1, 2), (2, 4), (3, 5), (4, 5), (5, 7), (6, 7), (7, 7), (8, 8)],
        *BLOCK_CLOUDS,
    ],
)
def test_segment_hull_matches_oracle(pts):
    assert kernel_hull(pts) == oracle_hull(pts)


def tie_heavy_clouds(seed, count, max_n):
    """`count` random walks of 1 to `max_n` points, log-uniform in size.

    Steps of 1 to 4 in p and 0 to 2 in pi make exact slope ties common.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = int(math.exp(rng.uniform(0, math.log(max_n))))
        x, y, pts = 0, 0, []
        for _ in range(n):
            x += rng.randint(1, 4)
            y += rng.randint(0, 2)
            pts.append((x, y))
        yield pts


def test_segment_hull_matches_oracle_on_random_tie_heavy_clouds():
    # Up to about 3000 points, so up to 47 candidate blocks.
    for pts in tie_heavy_clouds(20261017, 200, 3000):
        assert kernel_hull(pts) == oracle_hull(pts)


FAN_END = 1 << 21


def fan(m):
    """A concave arc of m points, a tie before it and a far last point, all candidates.

    The arc is (2i, H - i^2) for i = 1..m, falling from a first point at
    height 0 to a last one at (FAN_END, 0).  The hull is the first point,
    the arc's first point and the last point, with (1, (H - 1)/2) a tie on
    the first edge; every other arc point lies under the chord from its
    left neighbour to the last point only once its right neighbour is gone.
    """
    h = m * m + m + 1
    return [(0, 0), (1, (h - 1) // 2)] + [(2 * i, h - i * i) for i in range(1, m + 1)] + [(FAN_END, 0)]


def parabola(n):
    """n + 1 points of a concave parabola, every one a vertex, with a tie on every 7th edge."""
    pts = [(2 * i, 2 * i * (n - i)) for i in range(n + 1)]
    ties = [(2 * i + 1, i * (n - i) + (i + 1) * (n - i - 1)) for i in range(0, n, 7)]
    return sorted(pts + ties)


@pytest.mark.parametrize("mirror", [False, True])
def test_segment_hull_matches_oracle_on_a_fan(mirror):
    # The passes' bad case: each pass drops only the arc point next to the
    # far end, so 1,500 arc points take 1,499 passes.  On a 2-core x86_64
    # VM (Python 3.11, numpy 2.4.6) the kernel took 27 ms here (32 ms
    # mirrored), against 0.1 ms for the quickhull work stack it replaced,
    # which splits the fan at its first arc point and drops the rest at once.
    pts = fan(1500)
    if mirror:
        pts = [(FAN_END - p, r) for p, r in reversed(pts)]
    P = np.array([p for p, _ in pts], dtype=np.int64)
    R = np.array([r for _, r in pts], dtype=np.int64)
    assert len(_candidates(P, R)) == len(pts) - 2
    want = oracle_hull(pts)
    assert len(want) == 3 and sum(len(t) for _, _, t in want) == 1
    assert kernel_hull(pts) == want


def test_segment_hull_matches_oracle_on_a_parabola():
    # Quickhull's bad case: all 20,001 points are vertices, so its work
    # stack resolved 20,000 edges of a few numpy calls each, 281 ms on a
    # 2-core x86_64 VM (Python 3.11, numpy 2.4.6).  The first pass drops the
    # 2,858 ties and the second finds the chain final: 3.4 ms.
    pts = parabola(20_000)
    want = oracle_hull(pts)
    assert len(want) == 20_001 and sum(len(t) for _, _, t in want) == 2858
    assert kernel_hull(pts) == want


def test_candidates_are_the_running_maxima():
    # The first level's contract, by a scan over Python integers: i is a
    # candidate when its cross product against the chord from the first
    # point to the last is at least that of every point (ends included) on
    # its left, or on its right.  Ties of block maxima and the floor at the
    # ends' 0 change this set, never the hull, so the oracle tests cannot
    # see them.
    clouds = [*BLOCK_CLOUDS, *tie_heavy_clouds(20261018, 200, 3000)]
    for pts in (pts for pts in clouds if len(pts) > 1):
        (p0, r0), (p1, r1) = pts[0], pts[-1]
        c = [(r - r0) * (p1 - p0) - (p - p0) * (r1 - r0) for p, r in pts]
        want = set()
        for order in (range(1, len(c) - 1), range(len(c) - 2, 0, -1)):
            best = 0
            for i in order:
                if c[i] >= best:
                    want.add(i)
                    best = c[i]
        P = np.array([p for p, _ in pts], dtype=np.int64)
        R = np.array([r for _, r in pts], dtype=np.int64)
        assert _candidates(P, R).tolist() == sorted(want)


def test_candidates_are_under_one_percent_of_a_segment():
    # A work count, so that a filter which stops filtering, while every
    # hull stays right, still fails: on the last full segment below 1e8,
    # 361 of its 113,756 points reach the passes.  pi is counted from 0 at
    # the segment start, which moves no cross product.
    start = 10**8 - 2 * prime_stream.SEGMENT_SIZE + 1
    cfg = prime_stream.SieveConfig(start=start, limit=10**8)
    ((P, R, _),) = prime_stream.iter_prime_blocks(cfg)
    assert len(P) > 100_000
    assert len(_candidates(P, R)) < 0.01 * len(P)


def test_segment_hull_int64_exact_at_full_span():
    # Absolute coordinates near 1e12 and 4e10 overflow int64 when multiplied
    # (about 2^75); anchor-relative deltas stay below 2^26 * 2^25 = 2^51.
    # A wrapped int64 sum of products can still come out right, so overflow
    # of a scalar product is made an error; the exact ties and near-ties
    # below make float64 products of absolute coordinates give a hull that
    # differs. The span, 2^26, is 32 times the sieve's fixed segment span,
    # so the kernel has that much headroom.
    half = 1 << 25
    rng = random.Random(7)
    span = 2 * half
    # A concave chain of lattice steps (a, b) with slopes b/a falling from
    # just under 1/2, so pi rises by nearly 2^25 over the span; each step is
    # repeated so that the inner lattice points are exact ties.
    x = y = 0
    corners = [(0, 0)]
    lattice = []
    for i in range(200):
        a = rng.randrange(100_000, 200_000)
        b = a * (400 - i) // 801
        r = min(rng.randint(1, 15), (span - 2 - x) // a)
        if r == 0:
            break
        lattice += [(x + j * a, y + j * b) for j in range(1, r)]
        x, y = x + r * a, y + r * b
        corners.append((x, y))
    corners.append((span - 1, y + 1))
    # Points on or just below the chain: floor(chain) is an exact tie where
    # the chain hits the lattice and a near-tie elsewhere.
    below = []
    for d in rng.sample(range(1, span - 1), 1500):
        (x0, y0), (x1, y1) = next((u, v) for u, v in zip(corners, corners[1:]) if d < v[0])
        below.append((d, y0 + (d - x0) * (y1 - y0) // (x1 - x0) - rng.choice([0, 0, 1, 5])))
    cloud = dict(below)
    cloud.update(corners + lattice)
    base_p, base_r = 10**12 - span, 4 * 10**10
    pts = [(base_p + d, base_r + r) for d, r in sorted(cloud.items())]
    assert pts[-1][0] - pts[0][0] == span - 1
    assert 0.9 * half < pts[-1][1] - pts[0][1] < half
    assert max(r for _, r in pts) - min(r for _, r in pts) < half
    want = oracle_hull(pts)
    assert len(want) > 20 and sum(len(t) for _, _, t in want) > 100
    with np.errstate(over="raise"):
        assert kernel_hull(pts) == want


@given(st.one_of(synthetic_points(), m_tie_clouds()), st.data())
@settings(max_examples=300, deadline=None)
def test_streaming_hull_matches_fraction_oracle(pts, data):
    oracle = oracle_hull(pts)
    s = HullState()
    for p, pi in pts:
        s.push(p, pi)
    assert [(v.p, v.pi, v.ties) for v in s.stack] == oracle
    # The same cloud cut into segments, each merged through its segment hull
    # as compute_extremal does, minus the confirmation sweep, whose analytic
    # bounds hold for prime points only.
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pts) - 1))))
    P = np.array([p for p, _ in pts], dtype=np.int64)
    R = np.array([r for _, r in pts], dtype=np.int64)
    pieces = list(zip([0] + cuts, cuts + [len(pts)]))
    seg = HullState()
    for lo, hi in pieces:
        seg.merge_segment(P[lo:hi], R[lo:hi])
    assert [(v.p, v.pi, v.ties) for v in seg.stack] == oracle
    assert seg.pi_at_last == pts[-1][1]
    # The same engine over the heights p/pi, against Fraction heights, both
    # point by point and through the M state's own merge of the same pieces.
    m_hull = batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])
    m_oracle = [(v.p, v.y, v.ties) for v in m_hull]
    m = MHullState()
    for p, pi in pts:
        m.push(p, pi)
    assert [(v.p, Fraction(v.p, v.pi), v.ties) for v in m.stack] == m_oracle
    m_seg = MHullState()
    for lo, hi in pieces:
        m_seg.merge_segment(P[lo:hi], R[lo:hi])
    assert [(v.p, Fraction(v.p, v.pi), v.ties) for v in m_seg.stack] == m_oracle
    # The M filter's chain, at every point and at any increasing choice of
    # points (repeats included), equals in every bit the per-point formula
    # its margin proof is stated for; the hulls above would not show a
    # chain that rounds differently.
    y = P / R
    idx = segment_hull(P, y)[0]
    want = m_filter_chain(P, y, idx)
    q = np.array(sorted(data.draw(st.lists(st.integers(0, len(pts) - 1)))), dtype=np.int64)
    for q in (np.arange(len(pts)), q):
        assert m_variant._chain(P, y, idx, q).tobytes() == want[q].tobytes()


def m_tie_cloud(rng, n):
    """n points like those of m_tie_clouds: runs of one pi, a few of them tiny."""
    p, pts = rng.randrange(10**9, 10**9 + 10**6), []
    while len(pts) < n:
        pi = rng.choice([3, 7, 21, rng.randrange(5 * 10**7, 5 * 10**7 + 4)])
        for _ in range(rng.randint(2, 15)):
            p += rng.randint(1, 40)
            pts.append((p, pi))
    return pts[:n]


def test_m_merge_matches_fraction_oracle_across_blocks():
    # m_tie_clouds stop near 90 points, about two candidate blocks; these
    # clouds of the same kind span 8 to 47.
    rng = random.Random(20261019)
    for n in (500, 1200, 3000):
        pts = m_tie_cloud(rng, n)
        P = np.array([p for p, _ in pts], dtype=np.int64)
        R = np.array([r for _, r in pts], dtype=np.int64)
        y = P / R
        idx = segment_hull(P, y)[0]
        assert idx[0] == 0 and idx[-1] == n - 1 and (np.diff(idx) > 0).all()
        ends = np.minimum(np.arange(0, n, BLOCK)[:, None] + [0, BLOCK - 1], n - 1).ravel()
        for q in (np.arange(n), ends):
            assert m_variant._chain(P, y, idx, q).tobytes() == m_filter_chain(P, y, idx)[q].tobytes()
        want = [(v.p, v.y, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])]
        cuts = sorted(rng.sample(range(1, n), 6))
        for bounds in ([0, n], [0, *cuts, n]):
            m = MHullState()
            for lo, hi in zip(bounds, bounds[1:]):
                m.merge_segment(P[lo:hi], R[lo:hi])
            assert [(v.p, Fraction(v.p, v.pi), v.ties) for v in m.stack] == want


def test_m_filter_stage_one_keeps_the_fraction_hull(monkeypatch):
    # MHullState.merge_segment filters every point against the float hull
    # of the block maxima.  What it keeps is what it pushes, and that must
    # hold both ends and every vertex and tie of the exact hull, also with
    # one block, a full last block and a partial one.  The ties of pi = 3, 7
    # and 21 round either way of a float chain, so only the margin keeps
    # some of them.
    calls, pushed = [], []
    hull, push = m_variant.segment_hull, MHullState.push

    def recorded(P, y):
        calls.append(P.tolist())
        return hull(P, y)

    def recorded_push(self, p, pi, *rest):
        pushed.append(p)
        return push(self, p, pi, *rest)

    monkeypatch.setattr(m_variant, "segment_hull", recorded)
    monkeypatch.setattr(MHullState, "push", recorded_push)
    rng = random.Random(20261020)
    for n in (1, 2, 63, 64, 65, 500, 3000):
        pts = m_tie_cloud(rng, n)
        want = [(v.p, v.y, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])]
        assert n < 500 or sum(len(t) for _, _, t in want) > 10
        calls.clear()
        pushed.clear()
        m = MHullState()
        m.merge_segment(
            np.array([p for p, _ in pts], dtype=np.int64),
            np.array([r for _, r in pts], dtype=np.int64),
        )
        assert [(v.p, Fraction(v.p, v.pi), v.ties) for v in m.stack] == want
        if n == 1:
            assert calls == []
            continue
        assert len(calls) == 1 and len(calls[0]) <= 2 + -(-n // BLOCK)
        on_hull = {pts[0][0], pts[-1][0]} | {q for p, _, t in want for q in (p, *t)}
        assert on_hull <= set(pushed)


def _filtered(monkeypatch, pts, chain_hull=None):
    """Merge the cloud as one segment; return the state, the filter's chain and kept points.

    The chain's vertices and the kept points, those the merge pushes, are
    indices into the cloud.  ``chain_hull(k)``, if given, picks the
    chain's vertices among the filter's k block tops and ends in place of
    the float hull.
    """
    P = np.array([p for p, _ in pts], dtype=np.int64)
    R = np.array([r for _, r in pts], dtype=np.int64)
    calls, pushed = [], []
    hull, push = m_variant.segment_hull, MHullState.push

    def recorded(Q, y):
        out = (chain_hull(len(Q)),) if chain_hull else hull(Q, y)
        calls.append((Q, out[0]))
        return out

    def recorded_push(self, p, pi, *rest):
        pushed.append(p)
        return push(self, p, pi, *rest)

    monkeypatch.setattr(m_variant, "segment_hull", recorded)
    monkeypatch.setattr(MHullState, "push", recorded_push)
    m = MHullState()
    m.merge_segment(P, R)
    ((sub, verts),) = calls
    return m, P.searchsorted(sub[verts]), P.searchsorted(pushed)


def _end_tests(pts, verts):
    """Whether each block's highest y passes the filter test at the block's first and last points."""
    P = np.array([p for p, _ in pts], dtype=np.int64)
    y = P / np.array([r for _, r in pts], dtype=np.int64)
    starts = np.arange(0, len(P), BLOCK)
    ends = np.minimum(starts[:, None] + [0, BLOCK - 1], len(P) - 1)
    c = m_filter_chain(P, y, verts)
    return np.maximum.reduceat(y, starts)[:, None] >= c[ends] - m_variant.FILTER_MARGIN * y.max()


def _m_oracle(pts):
    return [(v.p, v.y, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])]


def _m_stack(m):
    return [(v.p, Fraction(v.p, v.pi), v.ties) for v in m.stack]


def test_m_filter_keeps_every_block_that_holds_a_chain_vertex(monkeypatch):
    # A block with no vertex of the filter's chain lies inside one edge,
    # where the chain is affine, so its values at the block's ends bound it
    # from below.  A block whose top is a vertex has no such bound, and the
    # filter keeps it whatever its end tests say.  The float hull is concave
    # up to rounding, so at its vertices one end test passes anyway; but the
    # margin proof holds for any chain through the block tops and ends, and
    # a chain through every block top dips at some of them below both ends.
    # Every block then holds a vertex, and the filter pushes what the
    # per-point test keeps.
    rng = random.Random(20261021)
    dips = 0
    for n in (500, 3000):
        pts = m_tie_cloud(rng, n)
        want = _m_oracle(pts)
        m, verts, kept = _filtered(monkeypatch, pts)
        assert _m_stack(m) == want
        assert any(0 < v % BLOCK < BLOCK - 1 for v in verts[1:-1])
        assert set(verts) <= set(kept)
        m, verts, kept = _filtered(monkeypatch, pts, np.arange)
        assert _m_stack(m) == want
        dips += (~_end_tests(pts, verts).any(1)).sum()
        P = np.array([p for p, _ in pts], dtype=np.int64)
        y = P / np.array([r for _, r in pts], dtype=np.int64)
        per_point = np.flatnonzero(y >= m_filter_chain(P, y, verts) - m_variant.FILTER_MARGIN * y.max())
        assert kept.tolist() == per_point.tolist()
    assert dips >= 3


def _falling_line():
    """Points (N - d, N/d - 1) at height d, exactly on y = N - p and exact in float64.

    d runs over the divisors of N = 8648640 up to N/2, in decreasing order.
    """
    N = 8648640
    small = [d for d in range(1, math.isqrt(N) + 1) if N % d == 0]
    ds = sorted({*small, *(N // d for d in small)} - {N}, reverse=True)
    return [(N - d, N // d - 1) for d in ds]


def _one_end_clouds():
    """Clouds on an exact line, one point per block pushed below it.

    On the falling line the first point of each block is lowered, so the
    block's top is its second point and only its last end passes; on the
    rising line y = p the last point is, and only the first end passes.
    Every other point is a tie of the hull's one edge, and the float chain is
    that edge, so no block in between holds a vertex.  On the line y = p/3
    the first point of each block is a tie, the others lie far below, and
    some of the ties round below the float chain: at both ends of their
    block the test passes only by the margin.
    """
    fall = _falling_line()
    fall = [(p, r + (0 < i < len(fall) - 1 and i % BLOCK == 0)) for i, (p, r) in enumerate(fall)]
    rise = [(10**9 + 3 * i, 1 + (i % BLOCK == BLOCK - 1)) for i in range(20 * BLOCK + 5)]
    rng = random.Random(20261022)
    third, p = [], 10**9
    for i in range(40 * BLOCK + 1):
        p += rng.randint(1, 40)
        third.append((p, 3 if i % BLOCK == 0 or i == 40 * BLOCK else 7))
    return {"falling": (fall, [False, True]), "rising": (rise, [True, False]), "thirds": (third, None)}


@pytest.mark.parametrize("name", ["falling", "rising", "thirds"])
def test_m_filter_tests_both_block_ends_with_the_margin(monkeypatch, name):
    pts, one_end = _one_end_clouds()[name]
    want = _m_oracle(pts)
    assert len(want) == 2 and len(want[1][2]) > 30
    m, verts, _ = _filtered(monkeypatch, pts)
    assert _m_stack(m) == want
    inner = _end_tests(pts, verts)[1:-1]
    if one_end:
        assert verts.tolist() == [0, len(pts) - 1]
        assert (inner == one_end).all()
    else:
        # Blocks that hold no chain vertex, and whose tie rounds below the
        # chain at both of their ends.
        P = np.array([p for p, _ in pts], dtype=np.int64)
        y = P / 3
        c = m_filter_chain(P, y, verts)
        starts = np.setdiff1d(np.arange(BLOCK, len(pts) - 1, BLOCK), verts)
        ends = starts + BLOCK - 1
        assert ((y[starts] < c[starts]) & (y[starts] < c[ends])).sum() > 2
