import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arrays, hull_tuples, oracle_hull, slope_order, stack_hull
from oracles import hull_of_primes, m_filter_chain, m_hull_of_primes, prime_points, sieve_primes
from primehull.hull_engine import (
    DUSART_CUTOFF,
    HullState,
    HullVertex as P,
    compute_extremal,
    pi_bound,
    segment_hull,
)
from primehull.analysis import ExactSlope
from primehull.m_variant import MHullState
from primehull import m_variant, prime_stream
from primehull._seghull import BLOCK, _candidates

# The two sequences run on one engine, so a test of an engine behaviour
# runs once per state class, under an id that names the sequence.
SEQUENCES = [pytest.param(HullState, id="E"), pytest.param(MHullState, id="M")]

# (a, b, c, sign of slope(a, b) - slope(b, c)) over each class's heights;
# the M collinear cases run under an id of their own.
SLOPE_CASES = [
    pytest.param(HullState, [
        ((2, 1), (3, 2), (7, 4), 1),  # 1 vs 1/2
        ((19, 8), (23, 9), (47, 15), 0),  # both 1/4
        ((2, 1), (5, 3), (7, 4), 1),  # 2/3 vs 1/2
        ((2, 1), (3, 2), (5, 3), 1),  # 1 vs 1/2
        ((3, 2), (5, 3), (7, 4), 0),  # 1/2 = 1/2
        ((7, 4), (11, 5), (13, 6), -1),  # 1/4 < 1/2
    ], id="E"),
    pytest.param(MHullState, [
        ((2, 1), (3, 2), (5, 3), -1),  # -1/2 vs 1/12
        ((2, 1), (13, 6), (29, 10), -1),  # 1/66 vs 11/240
        ((2, 1), (12, 4), (30, 6), -1),  # 1/10 vs 1/9
        ((2, 1), (29, 10), (37, 12), 1),
    ], id="M"),
    pytest.param(MHullState, [
        ((4, 2), (8, 4), (12, 6), 0),  # values 2, 2, 2 at x = 4, 8, 12: both slopes exactly 0
        ((4, 2), (6, 2), (10, 2), 0),  # values 2, 3, 5 at x = 4, 6, 10 (denominator fixed): slopes 1/2, 1/2
    ], id="M-collinear"),
]


@pytest.mark.parametrize("cls, cases", SLOPE_CASES)
def test_slope_order_examples(cls, cases):
    for a, b, c, sign in cases:
        assert slope_order(cls, P(*a), P(*b), P(*c)) == sign


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
    # Up to e^2 no pi bound applies: only (3, 2), final on sight, is confirmed.
    r = compute_extremal(7)
    assert [rec.e for rec in r.confirmed] == [2, 3]
    assert [(v.p, v.ties) for v in r.state.stack[r.state.confirmed_len :]] == [(7, [5])]


def test_confirm_at_100():
    r = compute_extremal(100)
    assert [rec.e for rec in r.confirmed] == [2, 3, 7, 19, 47]
    assert [v.p for v in r.state.stack[r.state.confirmed_len :]] == [73, 83, 89, 97]


@pytest.mark.parametrize(
    "cls, oracle, limit",
    [pytest.param(HullState, hull_of_primes, n, id=f"E-{n}") for n in (10**3, 10**4, 10**5)]
    + [pytest.param(MHullState, m_hull_of_primes, n, id=f"M-{n}") for n in (10**4, 10**5, 10**6)],
)
def test_streaming_equals_batch_oracle(cls, oracle, limit):
    # Vertices, ties and heights: for M the height is each record's value
    # p/pi.  E at 1e6 is criterion 5's.
    state = cls()
    state.extend(limit)
    assert stack_hull(state) == hull_tuples(oracle(limit))


@pytest.mark.parametrize("segment_size", [1024, 8192, 1 << 17])
def test_segment_size_does_not_change_hull(monkeypatch, segment_size, run_1e5):
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
    r = compute_extremal(10**5)
    assert stack_hull(r.state) == stack_hull(run_1e5.state)
    assert r.state.confirmed_len == run_1e5.state.confirmed_len


@pytest.mark.parametrize("cls", SEQUENCES)
def test_confirmed_prefix_stability(monkeypatch, cls):
    # Runs to 1e4, 1e5 and 1e6 at the default segment size, and to 20
    # random limits, each at a random segment size.  In limit order, each
    # run's confirmed vertices begin the next run's stack and the next
    # run's confirmed vertices.
    rng = random.Random(20260814)
    runs = [(10**k, prime_stream.SEGMENT_SIZE) for k in (4, 5, 6)]
    runs += [(rng.randrange(10**4, 10**6), rng.choice([1024, 4096, 1 << 16, 1 << 20])) for _ in range(20)]
    got = []
    for limit, segment_size in sorted(runs):
        monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", segment_size)
        state = cls()
        state.extend(limit)
        got.append(([v.p for v in state.stack], state.confirmed_len))
    for (lo, k), (hi, j) in zip(got, got[1:]):
        assert k <= j and hi[:k] == lo[:k]


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


def kernel_hull(pts):
    """(p, pi, ties) of every vertex segment_hull returns for one segment."""
    P, R = arrays(pts)
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


def test_merge_equals_pushing_segment_vertices_with_their_ties():
    # merge_segment pushes vertices and ties alike and lets push re-derive
    # the ties; the benchmark's traced E merge pushes only the vertices,
    # each with its kernel ties as pre_ties.  Both must leave one stack.
    rng = random.Random(20261022)
    for pts in [*BLOCK_CLOUDS, *tie_heavy_clouds(20261023, 100, 3000)]:
        # Shift to x >= 2 so that every point lies past a fresh frontier.
        pts = [(p + 2, r) for p, r in pts]
        P, R = arrays(pts)
        cuts = sorted(rng.sample(range(1, len(pts)), min(len(pts) - 1, rng.randint(0, 8))))
        merged, pre_tied = HullState(), HullState()
        for lo, hi in zip([0, *cuts], [*cuts, len(pts)]):
            merged.merge_segment(P[lo:hi], R[lo:hi])
            p, r = P[lo:hi].tolist(), R[lo:hi].tolist()
            idx, tie_lo, tie_hi, tie_buf = segment_hull(P[lo:hi], R[lo:hi])
            for i, a, b in zip(idx.tolist(), tie_lo.tolist(), tie_hi.tolist()):
                pre_tied.push(p[i], r[i], [p[t] for t in tie_buf[a:b].tolist()])
        want = stack_hull(pre_tied)
        assert want == oracle_hull(pts)
        assert stack_hull(merged) == want
        assert merged.pi_at_last == pre_tied.pi_at_last == pts[-1][1]


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
    P, R = arrays(pts)
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
        P, R = arrays(pts)
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
    # Each state, fed the cloud point by point and merged from the cloud
    # cut into segments through its own hook, as extend merges them, minus
    # the confirmation sweep, whose analytic bounds hold for prime points
    # only: E through the segment hull, M through its float filter.
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pts) - 1))))
    P, R = arrays(pts)
    for cls in (HullState, MHullState):
        pushed, merged = cls(), cls()
        for p, pi in pts:
            pushed.push(p, pi)
        for lo, hi in zip([0] + cuts, cuts + [len(pts)]):
            merged.merge_segment(P[lo:hi], R[lo:hi])
        assert stack_hull(pushed) == stack_hull(merged) == oracle_hull(pts, cls)
        assert merged.pi_at_last == pts[-1][1]
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


def rs_bound(x):
    """The reference bound 1.25506 x / ln x (Rosser and Schoenfeld)."""
    return 1.25506 * x / math.log(x)


def test_pi_upper_bound_formula():
    # Rosser-Schoenfeld below the cutoff, Dusart from it on; the pinned
    # values agree with a 30-digit mpmath evaluation of each formula
    assert pi_bound(5e4)[0] == pytest.approx(rs_bound(5e4), rel=1e-12)
    assert pi_bound(5e4)[0] == pytest.approx(5799.8415818, rel=1e-9)
    y = math.log(1e6)
    dusart = 1e6 / y * (1 + 1 / y + 2 / y**2 + 7.59 / y**3)
    assert pi_bound(1e6)[0] == pytest.approx(dusart, rel=1e-12)
    assert pi_bound(1e6)[0] == pytest.approx(78588.421991, rel=1e-9)


def test_bound_slope_formula():
    # d/dx [1.25506 x / ln x] = 1.25506 (ln x - 1) / ln^2 x below the cutoff;
    # the derivative of Dusart's bound is 1/ln x + 1.59/ln^4 x - 30.36/ln^5 x
    y = math.log(5e4)
    assert pi_bound(5e4)[1] == pytest.approx(1.25506 * (y - 1) / y**2, rel=1e-12)
    y = math.log(1e9)
    assert pi_bound(1e9)[1] == pytest.approx(1 / y + 1.59 / y**4 - 30.36 / y**5, rel=1e-12)
    assert pi_bound(1e9)[1] == pytest.approx(0.0482556, rel=1e-5)
    with pytest.raises(ValueError):
        pi_bound(math.exp(2))  # needs x > e^2 for monotone decrease


def test_bounds_dominate_actual_counts():
    primes = sieve_primes(200_000)
    for i in range(0, len(primes), 997):
        p = primes[i]
        if p <= math.exp(2):
            continue
        assert rs_bound(p) > i + 1
        assert pi_bound(p)[0] > i + 1


def test_tight_bound_is_tighter_beyond_cutoff():
    for x in (DUSART_CUTOFF, 1e6, 1e8, 1e10):
        assert pi_bound(x)[0] < rs_bound(x)
    # below the cutoff the bound is the classic one, bit for bit
    assert pi_bound(1000.0)[0] == rs_bound(1000.0)


def test_tight_slope_decreasing_and_dominates_density():
    # The slope must decrease over the whole domain, the switch at the
    # cutoff included, and stay above the bound's own finite differences.
    xs = np.geomspace(math.exp(2) * 1.01, 1e11, 60)
    slopes = [pi_bound(float(x))[1] for x in xs]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert pi_bound(DUSART_CUTOFF - 1)[1] > pi_bound(DUSART_CUTOFF)[1]
    for x in xs:
        x = float(x)
        fd = (pi_bound(x * 1.0001)[0] - pi_bound(x)[0]) / (x * 1e-4)
        assert pi_bound(x)[1] >= fd * (1 - 1e-6)
