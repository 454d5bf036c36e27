import hashlib
from fractions import Fraction

import numpy as np
import pytest

from oracles import batch_upper_hull, chord_dominates, m_filter_chain, m_hull_of_primes, prime_points
from primehull import m_variant
from primehull.analysis import records_from_state
from primehull.hull_engine import HullVertex as P
from primehull.m_variant import MHullState, compute_m_extremal
from primehull.prime_stream import LimitTooLargeError

m_slope_compare = MHullState.slope_compare

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


def test_m_slope_compare_rejects_disorder():
    with pytest.raises(ValueError):
        m_slope_compare(P(3, 2), P(2, 1), P(5, 3))


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
    # The five pi = 3 points lie on the line y = x/3, so the middle three are
    # ties of the edge between the outer two.  None of p/3 is dyadic, and two
    # of the ties round below the float chain: only the filter's margin keeps
    # them.
    pts = [
        (1000000064, 7),
        (1000000073, 3), (1000000102, 3), (1000000104, 3), (1000000132, 3), (1000000133, 3),
        (1000000145, 7),
    ]
    want = [(v.p, v.y, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in pts])]
    assert want[2] == (1000000133, Fraction(1000000133, 3), [1000000102, 1000000104, 1000000132])
    assert _merged(pts) == want
    monkeypatch.setattr(m_variant, "FILTER_MARGIN", 0.0)
    assert _merged(pts) != want


def test_chain_is_the_per_point_formula_to_1e7(monkeypatch):
    # Every chain evaluation of both filter stages of every segment that
    # compute_m_extremal(10**7) merges: the chain built from per-edge
    # operands equals the per-point formula in every bit, so the margin
    # proof covers it as stated.  Keep masks alone would not show a change
    # of rounding: np.interp leaves them equal here while 625 chain values
    # differ.  Stage 1 evaluates its chain at the two ends of each block and
    # at every point of the blocks it keeps, stage 2 at the 739 points that
    # stage 1 keeps: 58,249 points in all.  A stage 1 that tested every
    # point would evaluate it at all 664,578 points of the five segments
    # after p = 2.
    chain = m_variant._chain
    checked = []

    def compared(primes, y, idx, q):
        got = chain(primes, y, idx, q)
        checked.append((len(got), got.tobytes() == m_filter_chain(primes, y, idx)[q].tobytes()))
        return got

    monkeypatch.setattr(m_variant, "_chain", compared)
    compute_m_extremal(10**7)
    assert len(checked) == 15
    assert sum(n for n, _ in checked) == 58_249
    assert all(same for _, same in checked)


def test_filtered_merge_pushes_167_points_to_1e7(monkeypatch):
    # A work count: a filter that stops filtering keeps every hull right, so
    # only the number of exact pushes shows it.  Unfiltered, all 664,579
    # primes to 1e7 are pushed.
    push = MHullState.push
    pushed = []

    def counted(self, p, pi, *rest):
        pushed.append(p)
        return push(self, p, pi, *rest)

    monkeypatch.setattr(MHullState, "push", counted)
    compute_m_extremal(10**7)
    assert len(pushed) == 167


def _recorded_hulls(monkeypatch):
    """Each segment_hull call of the M merge, as the list of its primes."""
    calls = []
    hull = m_variant.segment_hull

    def recorded(P, y):
        calls.append(P.tolist())
        return hull(P, y)

    monkeypatch.setattr(m_variant, "segment_hull", recorded)
    return calls


def test_filtered_merge_hands_11135_points_to_segment_hull_to_1e7(monkeypatch):
    # A work count: both stages stay sound if stage 1 takes every point, or
    # if its chain keeps too much, so only what the float kernel is given
    # shows it.  Stage 1 gets the block maxima and ends, stage 2 what stage
    # 1 kept; the one-stage filter handed the kernel all 664,578 points.
    calls = _recorded_hulls(monkeypatch)
    compute_m_extremal(10**7)
    assert [len(c) for c in calls[::2]] == [2434, 2195, 2121, 2075, 1571]
    assert sum(map(len, calls)) == 11_135


@pytest.mark.parametrize("oracle", ["push", pytest.param("fraction", marks=pytest.mark.extended)])
def test_stage_one_keeps_each_segment_hull_to_1e7(monkeypatch, oracle):
    # On every segment that compute_m_extremal(10**7) merges, the points
    # stage 1 keeps (stage 2's segment_hull input) hold both ends and every
    # vertex and tie of the segment's exact hull.  The Fraction oracle takes
    # about 20 s on these 664,579 points; tier-1 uses the exact stack fed
    # every point, which the hypothesis test checks against that oracle.
    calls = _recorded_hulls(monkeypatch)
    segments = []
    merge = MHullState.merge_segment

    def recorded(self, primes, pis):
        segments.append((primes.tolist(), pis.tolist(), len(calls)))
        return merge(self, primes, pis)

    monkeypatch.setattr(MHullState, "merge_segment", recorded)
    compute_m_extremal(10**7)
    assert [len(p) for p, _, _ in segments] == [1, 155_610, 140_336, 135_555, 132_661, 100_416]
    for primes, pis, first in segments[1:]:
        if oracle == "push":
            exact = MHullState()
            for p, pi in zip(primes, pis):
                exact.push(p, pi)
            hull = [(v.p, v.ties) for v in exact.stack]
        else:
            hull = [(v.p, v.ties) for v in batch_upper_hull([(p, Fraction(p, r)) for p, r in zip(primes, pis)])]
        on_hull = {primes[0], primes[-1]} | {q for p, ties in hull for q in (p, *ties)}
        assert on_hull <= set(calls[first + 1])
