import hashlib
from fractions import Fraction

import numpy as np
import pytest

from oracles import batch_upper_hull, chord_dominates, m_filter_chain, m_hull_of_primes, prime_points
from primehull import m_variant
from primehull._seghull import BLOCK
from primehull.analysis import records_from_state
from primehull.hull_engine import HullVertex as P
from primehull.m_variant import MHullState, compute_m_extremal
from primehull.prime_stream import LimitTooLargeError


def m_slope_compare(a, b, c):
    """Sign of lhs - rhs from ``MHullState._cross``: M slope(a, b) vs slope(b, c)."""
    lhs, rhs = MHullState._cross(a, b, c.p, c.pi)
    return (lhs > rhs) - (lhs < rhs)


# Batch-oracle hull prefix over primes <= 1e6 (Fraction arithmetic).
M_FIRST_10 = [2, 29, 37, 41, 59, 97, 149, 223, 347, 557]

# sha256 of the "p,pi,ties" lines of every M vertex, joined by newlines:
# (limit, vertices, confirmed, digest).  The digests are those of the exact
# merge that pushed every point, which the filtered merge must reproduce.
M_VERTEX_DIGESTS = [
    (10**7, 130, 59, "201714e12af8cd17640b8accf707b56b49d5285fe5e5a677869579380b8f7fc2"),
    (10**8, 234, 110, "ada47a7cad8bfc95bb41f56cce8012f25be9ec4b40703f017b41a128ac2313ab"),
    pytest.param(
        10**9, 429, 189, "98bf6b5fc008054db19b015be43e19dc6a6636a5b36b937e9c8bab9ca59a1e28",
        marks=pytest.mark.extended,
    ),
]


def test_m_slope_compare_examples():
    assert m_slope_compare(P(2, 1), P(3, 2), P(5, 3)) == -1  # -1/2 vs 1/12
    assert m_slope_compare(P(2, 1), P(13, 6), P(29, 10)) == -1  # 1/66 vs 11/240
    assert m_slope_compare(P(2, 1), P(12, 4), P(30, 6)) == -1  # 1/10 vs 1/9
    assert m_slope_compare(P(2, 1), P(29, 10), P(37, 12)) == 1


def test_m_slope_compare_collinear():
    # values 2, 2, 2 at x = 4, 8, 12: both slopes exactly 0
    assert m_slope_compare(P(4, 2), P(8, 4), P(12, 6)) == 0
    # values 2, 3, 5 at x = 4, 6, 10 (denominator fixed): slopes 1/2, 1/2
    assert m_slope_compare(P(4, 2), P(6, 2), P(10, 2)) == 0


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


@pytest.mark.parametrize("limit", [10**4, 10**5, 10**6])
def test_batch_oracle_equivalence(limit):
    res = compute_m_extremal(limit)
    oracle = m_hull_of_primes(limit)
    assert [r.p for r in res.records] == [v.p for v in oracle]
    assert [list(r.ties) for r in res.records] == [v.ties for v in oracle]
    for r, v in zip(res.records, oracle):
        assert r.value == v.y


def test_slopes_strictly_decrease():
    res = compute_m_extremal(10**5)
    vs = res.records
    for a, b, c in zip(vs, vs[1:], vs[2:]):
        assert m_slope_compare(a, b, c) == 1


def test_chord_dominance_1e4():
    res = compute_m_extremal(10**4)
    vertices = [(r.p, r.value) for r in res.records]
    points = [(p, Fraction(p, k)) for p, k in prime_points(10**4)]
    assert chord_dominates(vertices, points)


def test_confirmed_prefix_stability():
    small = compute_m_extremal(10**4)
    mid = compute_m_extremal(10**5)
    big = compute_m_extremal(10**6)
    for lo, hi in [(small, mid), (mid, big)]:
        lo_conf = [r.p for r in lo.records if r.status == "confirmed"]
        hi_all = [r.p for r in hi.records]
        assert hi_all[: len(lo_conf)] == lo_conf
        hi_conf = [r.p for r in hi.records if r.status == "confirmed"]
        assert hi_conf[: len(lo_conf)] == lo_conf


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


def _merged(pts):
    P = np.array([p for p, _ in pts], dtype=np.int64)
    R = np.array([r for _, r in pts], dtype=np.int64)
    state = MHullState()
    state.merge_segment(P, R)
    return [(v.p, Fraction(v.p, v.pi), v.ties) for v in state.stack]


def test_filtered_merge_keeps_rational_ties(monkeypatch):
    # Four blocks on consecutive integers: the first point of each block and
    # the last point have pi = 3, the others pi = 7.  The five pi = 3 points
    # lie on the line y = x/3, so the middle three are ties of the edge
    # between the outer two.  Each is the top of its block, so the float
    # chain runs through them, and the tie 1000000192 rounds below it: only
    # the filter's margin keeps it.
    pts = [(10**9 + i, 3 if i % BLOCK == 0 else 7) for i in range(4 * BLOCK + 1)]
    want = [(v.p, v.y, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])]
    assert want == [
        (1000000000, Fraction(1000000000, 3), []),
        (1000000256, Fraction(1000000256, 3), [1000000064, 1000000128, 1000000192]),
    ]
    assert _merged(pts) == want
    monkeypatch.setattr(m_variant, "FILTER_MARGIN", 0.0)
    assert _merged(pts) != want


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


def _recorded_merges(monkeypatch):
    """Each merge_segment call of the M merge, as (primes, pis, hulls, pushed).

    ``hulls`` lists the primes of each segment_hull call the merge makes,
    ``pushed`` the primes it pushes.
    """
    merges = []
    hull, merge, push = m_variant.segment_hull, MHullState.merge_segment, MHullState.push

    def recorded_hull(P, y):
        merges[-1][2].append(P.tolist())
        return hull(P, y)

    def recorded_push(self, p, pi, *rest):
        merges[-1][3].append(p)
        return push(self, p, pi, *rest)

    def recorded_merge(self, primes, pis):
        merges.append((primes.tolist(), pis.tolist(), [], []))
        return merge(self, primes, pis)

    monkeypatch.setattr(m_variant, "segment_hull", recorded_hull)
    monkeypatch.setattr(MHullState, "push", recorded_push)
    monkeypatch.setattr(MHullState, "merge_segment", recorded_merge)
    return merges


def test_filtered_merge_push_count_to_1e7(monkeypatch):
    # A work count: a filter that stops filtering keeps every hull right, so
    # only the number of exact pushes shows it.  Unfiltered, all 664,579
    # primes to 1e7 are pushed; the filter pushes 716.
    merges = _recorded_merges(monkeypatch)
    compute_m_extremal(10**7)
    assert sum(len(pushed) for _, _, _, pushed in merges) == 716


def test_filtered_merge_segment_hull_inputs_to_1e7(monkeypatch):
    # A work count: the filter stays sound if it hands the kernel every
    # point, so only what the float kernel is given shows it.  It gets the
    # block maxima and ends, once per segment of two or more points; a
    # filter that ran the kernel on every point handed it all 664,579.
    merges = _recorded_merges(monkeypatch)
    compute_m_extremal(10**7)
    assert [len(hulls) for primes, _, hulls, _ in merges] == [len(primes) > 1 for primes, _, _, _ in merges]
    calls = [c for _, _, hulls, _ in merges for c in hulls]
    assert [len(c) for c in calls] == [2434, 2195, 2121, 2075, 1571]
    assert sum(map(len, calls)) == 10_396


@pytest.mark.parametrize("oracle", ["push", "fraction"])
def test_filter_keeps_each_segment_hull_to_1e7(monkeypatch, oracle):
    # On every segment that compute_m_extremal(10**7) merges, the points
    # the filter pushes hold both ends and every vertex and tie of the
    # segment's exact hull, by the exact stack fed every point and by the
    # Fraction oracle, which takes about 3.5 s on these 664,579 points.
    merges = _recorded_merges(monkeypatch)
    compute_m_extremal(10**7)
    monkeypatch.undo()
    assert [len(p) for p, _, _, _ in merges] == [155_611, 140_336, 135_555, 132_661, 100_416]
    for primes, pis, _, pushed in merges:
        if oracle == "push":
            exact = MHullState()
            for p, pi in zip(primes, pis):
                exact.push(p, pi)
            hull = [(v.p, v.ties) for v in exact.stack]
        else:
            hull = [(v.p, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in zip(primes, pis)])]
        on_hull = {primes[0], primes[-1]} | {q for p, ties in hull for q in (p, *ties)}
        assert on_hull <= set(pushed)
