from fractions import Fraction

import pytest

from oracles import chord_dominates, m_hull_of_primes, prime_points
from primehull.hull_engine import EQUAL, GREATER, LESS
from primehull.m_variant import (
    MHullState,
    compare_sequences,
    compute_m_extremal,
    first_divergence,
)
from primehull.prime_stream import LimitTooLargeError, PrimePoint as P

m_slope_compare = MHullState.slope_compare

# Batch-oracle hull prefix over primes <= 1e6 (Fraction arithmetic).
M_FIRST_10 = [2, 29, 37, 41, 59, 97, 149, 223, 347, 557]


def test_m_slope_compare_examples():
    assert m_slope_compare(P(2, 1), P(3, 2), P(5, 3)) == LESS  # -1/2 vs 1/12
    assert m_slope_compare(P(2, 1), P(13, 6), P(29, 10)) == LESS  # 1/66 vs 11/240
    assert m_slope_compare(P(2, 1), P(12, 4), P(30, 6)) == LESS  # 1/10 vs 1/9
    assert m_slope_compare(P(2, 1), P(29, 10), P(37, 12)) == GREATER


def test_m_slope_compare_collinear():
    # values 2, 2, 2 at x = 4, 8, 12: both slopes exactly 0
    assert m_slope_compare(P(4, 2), P(8, 4), P(12, 6)) == EQUAL
    # values 2, 3, 5 at x = 4, 6, 10 (denominator fixed): slopes 1/2, 1/2
    assert m_slope_compare(P(4, 2), P(6, 2), P(10, 2)) == EQUAL


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
        assert m_slope_compare(a, b, c) == GREATER


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
    from primehull.analysis import records_from_state

    e_recs = records_from_state(run_1e5.state, include_provisional=True)
    m_recs = compute_m_extremal(10**5).records
    assert first_divergence(e_recs, m_recs) == 2  # e_2 = 3 vs m_2 = 29


def test_compare_sequences_self_overlap():
    recs = compute_m_extremal(10**4).records
    rep = compare_sequences(recs, recs)
    assert rep.common == tuple(sorted(r.p for r in recs))
    assert rep.overlap_first == rep.overlap_second == 1.0
    assert rep.ratio_mean_first == rep.ratio_mean_second


def test_compare_sequences_e_vs_m(run_1e6):
    from primehull.analysis import records_from_state

    e_recs = records_from_state(run_1e6.state, include_provisional=True)
    m_recs = compute_m_extremal(10**6).records
    rep = compare_sequences(e_recs, m_recs)
    # Both hulls share 2 and the rightmost prime below 1e6 (the last point
    # of a shared point set is always a hull vertex); nothing else.
    assert rep.common == (2, 999983)
    assert rep.overlap_second == pytest.approx(2 / len(m_recs))
    assert rep.window == min(len(e_recs), len(m_recs))
    assert rep.ratio_mean_first > 1.0 and rep.ratio_mean_second > 1.0


def test_compare_sequences_short_window():
    recs = compute_m_extremal(10**3).records[:1]
    rep = compare_sequences(recs, recs)
    assert rep.window == 1
    assert rep.ratio_mean_first is None and rep.ratio_mean_second is None
    with pytest.raises(ValueError):
        compare_sequences([], recs)


def test_limit_cap():
    with pytest.raises(LimitTooLargeError):
        compute_m_extremal(10**9 + 1)
