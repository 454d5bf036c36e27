import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_concave, mp_li, sieve_primes
from primehull import prime_stream
from primehull.analysis import CONFIRMED, PROVISIONAL, _prefix_sums, find_twins, records_from_state
from primehull.lens_bounds import verify_envelope

# Reference sums over the first 200 extremal primes, recomputed at 50
# decimal digits with mpmath from the confirmed run at 1e8.
SUM_INV_200 = 1.0902970210918293854
SUM_INVLOG_200 = 17.897310663965118983


def test_record_edge_fields_are_consistent(run_1e6):
    recs = records_from_state(run_1e6.state, include_provisional=True)
    for a, b in zip(recs, recs[1:]):
        assert a.delta.dpi == b.pi_e - a.pi_e
        assert a.delta.dp == b.e - a.e
        assert a.ratio_next == pytest.approx(b.e / a.e, rel=1e-15)
    assert recs[-1].delta is None
    assert recs[-1].ratio_next is None


def test_ties_export_on_predecessor_row(run_1e6):
    recs = records_from_state(run_1e6.state)
    by_e = {r.e: r for r in recs}
    # In-memory the tie set lives on the arriving vertex; each exported row
    # describes the lens the vertex opens, so the annotation shifts to the
    # row whose edge absorbed the collinear primes.
    assert by_e[3].ties == (5,)
    assert by_e[7].ties == (13,)
    assert by_e[19].ties == (23, 31, 43)
    assert by_e[2].ties == ()


def test_status_partition(run_1e6):
    recs = records_from_state(run_1e6.state, include_provisional=True)
    n_conf = run_1e6.state.confirmed_len
    assert all(r.status == CONFIRMED for r in recs[:n_conf])
    assert all(r.status == PROVISIONAL for r in recs[n_conf:])
    assert all(r.sum_inv is None for r in recs[n_conf:])
    only_confirmed = records_from_state(run_1e6.state)
    assert len(only_confirmed) == n_conf


def test_running_sums_match_state(run_1e6):
    # Each running sum is the correctly rounded (math.fsum) sum of its prefix.
    recs = records_from_state(run_1e6.state)
    for k in range(1, len(recs) + 1):
        assert recs[k - 1].sum_inv == math.fsum(1.0 / r.e for r in recs[:k])
        assert recs[k - 1].sum_invlog == math.fsum(1.0 / math.log(r.e) for r in recs[:k])


@given(st.lists(st.floats(-1e300, 1e300), max_size=40))
@settings(max_examples=300, deadline=None)
def test_prefix_sums_are_fsum_of_every_prefix(values):
    # Any signs and exponents, subnormals and exact cancellations included.
    assert _prefix_sums(values) == [math.fsum(values[:k]) for k in range(1, len(values) + 1)]


def test_conjecture_sums_against_oracle(run_1e8):
    r200 = records_from_state(run_1e8.state)[199]
    assert r200.k == 200
    assert r200.sum_inv == pytest.approx(SUM_INV_200, rel=1e-12)
    assert r200.sum_invlog == pytest.approx(SUM_INVLOG_200, rel=1e-12)


def test_find_twins(run_1e8):
    recs = records_from_state(run_1e8.state)
    twins = find_twins(recs)
    assert (twins[0].k, twins[0].e, twins[0].e_next) == (1, 2, 3)
    t116 = [t for t in twins if t.k == 116]
    assert len(t116) == 1
    assert (t116[0].e, t116[0].e_next, t116[0].pi_e) == (8787901, 8787917, 589274)


def test_check_concave_accepts_extremal_sequence(run_1e6):
    pts = [(r.e, r.pi_e) for r in records_from_state(run_1e6.state)]
    ok, where = check_concave(pts)
    assert ok and where is None


def test_check_concave_flags_inserted_prime(run_1e5):
    # Minimality: dropping any interior prime back into the sequence breaks
    # strict slope decrease at or next to the insertion.
    recs = records_from_state(run_1e5.state)
    es = [r.e for r in recs]
    primes = sieve_primes(10**5)
    pi_of = {p: i + 1 for i, p in enumerate(primes)}
    rng = random.Random(11)
    interior = [p for p in primes if es[0] < p < es[-1] and p not in set(es)]
    for q in rng.sample(interior, 80):
        pts = sorted([(e, pi_of[e]) for e in es] + [(q, pi_of[q])])
        ok, where = check_concave(pts)
        assert not ok, f"inserting {q} should break concavity"
        j = pts.index((q, pi_of[q]))
        assert abs(where - j) <= 1


def test_check_concave_validation():
    with pytest.raises(ValueError):
        check_concave([(2, 1), (2, 1), (7, 4)])
    ok, where = check_concave([(2, 1), (3, 2), (5, 3)])  # slopes 1, 1/2: fine
    assert ok
    ok, where = check_concave([(2, 1), (5, 2), (7, 4)])  # 1/3 < 1: violation at 1
    assert not ok and where == 1


def test_envelope_clean_to_1e6():
    rep = verify_envelope(10**6)
    assert rep.checked == 78498
    assert rep.violations == ()
    assert rep.boundary_flags == (2,)  # |pi - Li| >= sqrt(p) ln p only at p=2
    assert rep.argmax_p == 29
    assert rep.max_ratio == pytest.approx(0.09275610952168314, rel=1e-10)


def test_envelope_is_the_same_over_small_blocks(monkeypatch):
    # Blocks of 2^12 odd integers put 123 block boundaries below 10^6, so
    # Li is carried from block to block 123 times, not once after 2.
    want = verify_envelope(10**6)
    monkeypatch.setattr(prime_stream, "SEGMENT_SIZE", 2**12)
    got = verify_envelope(10**6)
    fields = lambda r: (r.checked, r.violations, r.boundary_flags, r.argmax_p)
    assert fields(got) == fields(want) == (78498, (), (2,), 29)
    assert got.max_ratio == pytest.approx(want.max_ratio, rel=1e-12, abs=0)


def test_envelope_matches_mpmath_at_sampled_primes():
    primes = sieve_primes(10**5)
    rng = random.Random(3)
    rep = verify_envelope(10**5)
    worst = 0.0
    for p in rng.sample(primes[4:], 40) + [29]:
        k = bisect.bisect_right(primes, p)
        ratio = abs(k - float(mp_li(p))) / (math.sqrt(p) * math.log(p))
        worst = max(worst, ratio)
    assert worst <= rep.max_ratio * (1 + 1e-9)
    assert rep.max_ratio == pytest.approx(0.09275610952168314, rel=1e-10)


def test_envelope_range_checks():
    with pytest.raises(ValueError):
        verify_envelope(10**9 + 1)
    with pytest.raises(ValueError):
        verify_envelope(1)
    # below 11 no prime is measured, so there is no ratio to report
    with pytest.raises(ValueError):
        verify_envelope(10)
    rep = verify_envelope(11)
    assert rep.argmax_p == 11 and rep.max_ratio >= 0.0
