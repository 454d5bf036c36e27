import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import M_VERTEX_DIGESTS, arrays, oracle_hull, slope_order, stack_hull
from oracles import chord_dominates, m_filter_chain, m_hull_of_primes, prime_points
from primehull import m_variant
from primehull._seghull import BLOCK, segment_hull
from primehull.analysis import records_from_state
from primehull.m_variant import MHullState, compute_m_extremal
from primehull.prime_stream import LimitTooLargeError

# Batch-oracle hull prefix over primes <= 1e6 (Fraction arithmetic).
M_FIRST_10 = [2, 29, 37, 41, 59, 97, 149, 223, 347, 557]


def test_m1_is_2_and_m2_is_29():
    res = compute_m_extremal(10**3)
    assert res.records[0].p == 2
    assert res.records[0].status == "confirmed"
    assert res.records[1].p == 29
    oracle = m_hull_of_primes(10**3)
    assert [r.p for r in res.records] == [v.p for v in oracle]


def test_first_10_match_oracle_at_1e6():
    res = compute_m_extremal(10**6)
    assert [r.p for r in res.records[:10]] == M_FIRST_10
    assert all(r.status == "confirmed" for r in res.records[:10])


def test_slopes_strictly_decrease():
    res = compute_m_extremal(10**5)
    vs = res.records
    for a, b, c in zip(vs, vs[1:], vs[2:]):
        assert slope_order(MHullState, a, b, c) == 1


def test_chord_dominance_1e4():
    res = compute_m_extremal(10**4)
    vertices = [(r.p, r.value) for r in res.records]
    points = [(p, Fraction(p, k)) for p, k in prime_points(10**4)]
    assert chord_dominates(vertices, points)


def test_diverges_from_e_sequence(run_1e5):
    e = [r.e for r in records_from_state(run_1e5.state, include_provisional=True)]
    m = [r.p for r in compute_m_extremal(10**5).records]
    assert e[0] == m[0] == 2
    assert (e[1], m[1]) == (3, 29)


def test_compare_sequences_e_vs_m(run_1e6):
    e = [r.e for r in records_from_state(run_1e6.state, include_provisional=True)]
    m = [r.p for r in compute_m_extremal(10**6).records]
    # Both hulls share 2 and the rightmost prime below 1e6 (the last point
    # of a shared point set is always a hull vertex); nothing else.
    assert set(e) & set(m) == {2, 999983}


def test_limit_cap():
    with pytest.raises(LimitTooLargeError):
        compute_m_extremal(10**9 + 1)


@pytest.mark.parametrize("limit, vertices, confirmed, digest", M_VERTEX_DIGESTS)
def test_m_vertex_list_pinned(limit, vertices, confirmed, digest):
    res = compute_m_extremal(limit)
    lines = [f"{r.p},{r.pi},{';'.join(map(str, r.ties))}" for r in res.records]
    assert (len(lines), res.state.confirmed_len) == (vertices, confirmed)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


# The M hook and push, taken before any test patches them: the recorder
# below calls them, and segment_hull as imported above, under its patches.
M_ON_HULL, M_PUSH = MHullState._on_hull, MHullState.push


def record_merges(monkeypatch, chain_hull=None):
    """Record every M merge, as [primes, pis, calls, pushed], in the list returned.

    ``calls`` holds (Q, verts) for each ``segment_hull`` call of the
    filter: Q the primes it is given, verts the indices into Q of the
    chain's vertices.  ``pushed`` holds the primes the merge pushes.
    ``chain_hull(k)``, if given, picks the chain's vertices among the k
    block tops and ends in place of the float hull.
    """
    merges = []

    def recorded_hull(Q, y):
        out = (chain_hull(len(Q)),) if chain_hull else segment_hull(Q, y)
        merges[-1][2].append((Q, out[0]))
        return out

    def recorded_on_hull(primes, pis):
        merges.append([primes.copy(), pis.copy(), [], []])
        return M_ON_HULL(primes, pis)

    def recorded_push(self, p, pi, *rest):
        merges[-1][3].append(p)
        return M_PUSH(self, p, pi, *rest)

    monkeypatch.setattr(m_variant, "segment_hull", recorded_hull)
    monkeypatch.setattr(MHullState, "_on_hull", staticmethod(recorded_on_hull))
    monkeypatch.setattr(MHullState, "push", recorded_push)
    return merges


def merged(monkeypatch, pts, chain_hull=None):
    """Merge a cloud as one segment into a fresh M state, recorded.

    Returns the stack's (p, y, ties), the filter's ``segment_hull`` calls
    as (Q, the chain's vertices as indices into the cloud), and the
    indices of the points the merge pushes.
    """
    merges = record_merges(monkeypatch, chain_hull)
    m = MHullState()
    m.merge_segment(*arrays(pts))
    ((primes, _, calls, pushed),) = merges
    return stack_hull(m), [(Q, primes.searchsorted(Q[verts])) for Q, verts in calls], primes.searchsorted(pushed)


def m_tie_cloud(rng, n):
    """n points like those of test_hull_engine's m_tie_clouds: runs of one pi, a few of them tiny."""
    p, pts = rng.randrange(10**9, 10**9 + 10**6), []
    while len(pts) < n:
        pi = rng.choice([3, 7, 21, rng.randrange(5 * 10**7, 5 * 10**7 + 4)])
        for _ in range(rng.randint(2, 15)):
            p += rng.randint(1, 40)
            pts.append((p, pi))
    return pts[:n]


def test_m_merge_matches_fraction_oracle_across_blocks():
    # test_hull_engine's m_tie_clouds stop near 90 points, about two
    # candidate blocks; these clouds of the same kind span 8 to 47.
    rng = random.Random(20261019)
    for n in (500, 1200, 3000):
        pts = m_tie_cloud(rng, n)
        P, R = arrays(pts)
        y = P / R
        idx = segment_hull(P, y)[0]
        assert idx[0] == 0 and idx[-1] == n - 1 and (np.diff(idx) > 0).all()
        ends = np.minimum(np.arange(0, n, BLOCK)[:, None] + [0, BLOCK - 1], n - 1).ravel()
        for q in (np.arange(n), ends):
            assert m_variant._chain(P, y, idx, q).tobytes() == m_filter_chain(P, y, idx)[q].tobytes()
        want = oracle_hull(pts, MHullState)
        cuts = sorted(rng.sample(range(1, n), 6))
        for bounds in ([0, n], [0, *cuts, n]):
            m = MHullState()
            for lo, hi in zip(bounds, bounds[1:]):
                m.merge_segment(P[lo:hi], R[lo:hi])
            assert stack_hull(m) == want


def test_m_filter_keeps_the_fraction_hull(monkeypatch):
    # MHullState._on_hull filters every point against the float hull of the
    # block maxima.  What it keeps is what the merge pushes, and that must
    # hold both ends and every vertex and tie of the exact hull, also with
    # one block, a full last block and a partial one.  The ties of pi = 3, 7
    # and 21 round either way of a float chain, so only the margin keeps
    # some of them.
    rng = random.Random(20261020)
    for n in (1, 2, 63, 64, 65, 500, 3000):
        pts = m_tie_cloud(rng, n)
        want = oracle_hull(pts, MHullState)
        assert n < 500 or sum(len(t) for _, _, t in want) > 10
        got, calls, pushed = merged(monkeypatch, pts)
        assert got == want
        if n == 1:
            assert calls == []
            continue
        assert len(calls) == 1 and len(calls[0][0]) <= 2 + -(-n // BLOCK)
        on_hull = {pts[0][0], pts[-1][0]} | {q for p, _, t in want for q in (p, *t)}
        assert on_hull <= {pts[i][0] for i in pushed}


def _end_tests(pts, verts):
    """Whether each block's highest y passes the filter test at the block's first and last points."""
    P, R = arrays(pts)
    y = P / R
    starts = np.arange(0, len(P), BLOCK)
    ends = np.minimum(starts[:, None] + [0, BLOCK - 1], len(P) - 1)
    c = m_filter_chain(P, y, verts)
    return np.maximum.reduceat(y, starts)[:, None] >= c[ends] - m_variant.FILTER_MARGIN * y.max()


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
        want = oracle_hull(pts, MHullState)
        got, ((_, verts),), pushed = merged(monkeypatch, pts)
        assert got == want
        assert any(0 < v % BLOCK < BLOCK - 1 for v in verts[1:-1])
        assert set(verts) <= set(pushed)
        got, ((_, verts),), pushed = merged(monkeypatch, pts, np.arange)
        assert got == want
        dips += (~_end_tests(pts, verts).any(1)).sum()
        P, R = arrays(pts)
        y = P / R
        per_point = np.flatnonzero(y >= m_filter_chain(P, y, verts) - m_variant.FILTER_MARGIN * y.max())
        assert pushed.tolist() == per_point.tolist()
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
    want = oracle_hull(pts, MHullState)
    assert len(want) == 2 and len(want[1][2]) > 30
    got, ((_, verts),), _ = merged(monkeypatch, pts)
    assert got == want
    inner = _end_tests(pts, verts)[1:-1]
    if one_end:
        assert verts.tolist() == [0, len(pts) - 1]
        assert (inner == one_end).all()
    else:
        # Blocks that hold no chain vertex, and whose tie rounds below the
        # chain at both of their ends.
        P, _ = arrays(pts)
        y = P / 3
        c = m_filter_chain(P, y, verts)
        starts = np.setdiff1d(np.arange(BLOCK, len(pts) - 1, BLOCK), verts)
        ends = starts + BLOCK - 1
        assert ((y[starts] < c[starts]) & (y[starts] < c[ends])).sum() > 2


def test_filtered_merge_keeps_rational_ties(monkeypatch):
    # Four blocks on consecutive integers: the first point of each block and
    # the last point have pi = 3, the others pi = 7.  The five pi = 3 points
    # lie on the line y = x/3, so the middle three are ties of the edge
    # between the outer two.  Each is the top of its block, so the float
    # chain runs through them, and the tie 1000000192 rounds below it: only
    # the filter's margin keeps it.
    pts = [(10**9 + i, 3 if i % BLOCK == 0 else 7) for i in range(4 * BLOCK + 1)]
    want = oracle_hull(pts, MHullState)
    assert want == [
        (1000000000, Fraction(1000000000, 3), []),
        (1000000256, Fraction(1000000256, 3), [1000000064, 1000000128, 1000000192]),
    ]
    assert merged(monkeypatch, pts)[0] == want
    monkeypatch.setattr(m_variant, "FILTER_MARGIN", 0.0)
    assert merged(monkeypatch, pts)[0] != want


def test_chain_is_the_per_point_formula_to_1e7(monkeypatch):
    # Every chain evaluation of the filter of every segment that
    # compute_m_extremal(10**7) merges: the chain built from per-edge
    # operands equals the per-point formula in every bit, so the margin
    # proof covers it as stated.  Keep masks alone would not show a change
    # of rounding: np.interp leaves them equal here while 625 chain values
    # differ.  The filter evaluates its chain at the two ends of each block
    # and at every point of the blocks it keeps, two calls per segment and
    # 57,511 points in all.  A filter that tested every point would
    # evaluate it at all 664,579 points of the five segments.
    chain = m_variant._chain
    checked = []

    def compared(primes, y, idx, q):
        got = chain(primes, y, idx, q)
        checked.append((len(got), got.tobytes() == m_filter_chain(primes, y, idx)[q].tobytes()))
        return got

    monkeypatch.setattr(m_variant, "_chain", compared)
    compute_m_extremal(10**7)
    assert len(checked) == 10
    assert sum(n for n, _ in checked) == 57_511
    assert all(same for _, same in checked)


def test_filtered_merge_push_count_to_1e7(monkeypatch):
    # A work count: a filter that stops filtering keeps every hull right, so
    # only the number of exact pushes shows it.  Unfiltered, all 664,579
    # primes to 1e7 are pushed; the filter pushes 716.
    merges = record_merges(monkeypatch)
    compute_m_extremal(10**7)
    assert sum(len(pushed) for *_, pushed in merges) == 716


def test_filtered_merge_segment_hull_inputs_to_1e7(monkeypatch):
    # A work count: the filter stays sound if it hands the kernel every
    # point, so only what the float kernel is given shows it.  It gets the
    # block maxima and ends, once per segment of two or more points; a
    # filter that ran the kernel on every point handed it all 664,579.
    merges = record_merges(monkeypatch)
    compute_m_extremal(10**7)
    assert [len(calls) for _, _, calls, _ in merges] == [len(primes) > 1 for primes, *_ in merges]
    sizes = [len(Q) for _, _, calls, _ in merges for Q, _ in calls]
    assert sizes == [2434, 2195, 2121, 2075, 1571]
    assert sum(sizes) == 10_396


@pytest.mark.parametrize("oracle", ["push", "fraction"])
def test_filter_keeps_each_segment_hull_to_1e7(monkeypatch, oracle):
    # On every segment that compute_m_extremal(10**7) merges, the points
    # the filter pushes hold both ends and every vertex and tie of the
    # segment's exact hull, by the exact stack fed every point and by the
    # Fraction oracle, which takes about 3.5 s on these 664,579 points.
    merges = record_merges(monkeypatch)
    compute_m_extremal(10**7)
    monkeypatch.undo()
    assert [len(p) for p, *_ in merges] == [155_611, 140_336, 135_555, 132_661, 100_416]
    for primes, pis, _, pushed in merges:
        pts = list(zip(primes.tolist(), pis.tolist()))
        if oracle == "push":
            exact = MHullState()
            for p, pi in pts:
                exact.push(p, pi)
            hull = stack_hull(exact)
        else:
            hull = oracle_hull(pts, MHullState)
        on_hull = {pts[0][0], pts[-1][0]} | {q for p, _, ties in hull for q in (p, *ties)}
        assert on_hull <= set(pushed)
