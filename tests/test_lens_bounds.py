import math
import random

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    mp_h_crossings,
    mp_li,
    mp_tangent_gap,
    mp_theta_roots,
    mp_w_coeffs,
    mp_window_threshold,
)
from primehull import lens_bounds as lb

# mpmath reference values (computed at 30-40 decimal digits): crossings via
# high-precision bisection on the exact tangent gap.
CROSSINGS_REF = {
    10**6: (-998973.64144881458, 32674921.278881009),
    10**8: (-83363303.252643586, 371250312.97242701),
    10**10: (-5182056595.5106093, 9782422926.6110954),
    10**12: (-255877024906.80661, 331773991063.14698),
}

THETA_REF_1E12 = (-0.25738728901422609, 0.33550850843454493)


def _extreme_roots(x):
    return mp_theta_roots(*lb.cubic_coeffs(x))


def test_li_panels_match_li_between():
    rng = random.Random(5)
    lefts, rights = [], []
    x = 2.0
    for _ in range(200):
        x += rng.uniform(0.0, 60.0)
        lefts.append(x)
        rights.append(x + rng.uniform(0.0, 90.0))
        x = rights[-1]
    incs = lb.li_panels(np.array(lefts), np.array(rights))
    for a, b, inc in zip(lefts, rights, incs.tolist()):
        assert inc == pytest.approx(float(mp_li(b) - mp_li(a)), rel=1e-12, abs=1e-15)


def test_derivative_signs_large_x():
    # Both fourth derivatives are negative (that of eps needs ln x > 16/15),
    # so the degree-3 Taylor polynomials of L and eps dominate them: this
    # is why W is a majorant of the tangent gap.
    with mp.workdps(40):
        for x in (1e6, 1e9, 1e12):
            for f in (lambda t: mp.li(t, offset=True), lambda t: mp.sqrt(t) * mp.log(t)):
                d1, d2, d3, d4 = (mp.diff(f, x, k, h=x * 1e-6) for k in (1, 2, 3, 4))
                assert d1 > 0 > d2 and d3 > 0 > d4, x


def test_cubic_coeffs_consistency():
    rng = random.Random(4)
    for _ in range(60):
        x = 10 ** rng.uniform(1, 13)
        v2, v1, v0 = lb.cubic_coeffs(x)
        a3, a2, a1, a0 = mp_w_coeffs(x)
        assert a3 > 0.0
        # reduced forms: v2 = 3 + A2/(A3 x), v1 = A1/(A3 x^2), v0 = A0/(A3 x^3)
        assert v2 == pytest.approx(float(3 + a2 / (a3 * x)), rel=1e-14)
        assert v1 == pytest.approx(float(a1 / (a3 * x * x)), rel=1e-14)
        assert v0 == pytest.approx(float(a0 / (a3 * x**3)), rel=1e-14)


def test_w_value_and_reduced_value_agree():
    # W_x(theta x) = A3 x^3 g(theta), with g the program's reduced cubic.
    rng = random.Random(12)
    for _ in range(40):
        x = 10 ** rng.uniform(4, 12)
        coeffs = mp_w_coeffs(x)
        theta = rng.uniform(-1.0, 1.0)
        assert float(mp.polyval(coeffs, theta * x)) == pytest.approx(
            float(coeffs[0] * x**3) * lb.reduced_value(theta, *lb.cubic_coeffs(x)), rel=1e-10, abs=1e-12
        )


def test_solve_theta_at_1e12():
    theta_minus, theta_plus = lb.solve_theta(1e12)
    assert theta_minus == pytest.approx(THETA_REF_1E12[0], rel=1e-12)
    assert theta_plus == pytest.approx(THETA_REF_1E12[1], rel=1e-12)
    assert theta_minus < 0 < theta_plus


def test_theta_extreme_roots():
    # 1e8: the cubic is positive for all theta > 0 (no positive root).
    neg, pos = _extreme_roots(1e8)
    assert pos is None
    assert neg == pytest.approx(-0.8982632226141225, rel=1e-10)
    # 1e10: positive roots exist but the smaller one exceeds theta = 1,
    # which is why the window [-1, 1] can never capture it.
    neg, pos = _extreme_roots(1e10)
    assert neg == pytest.approx(-0.5312291816344477, rel=1e-10)
    assert pos == pytest.approx(1.156861015481545, rel=1e-10)
    assert pos > 1.0
    # 1e12 agrees with the window solver
    neg, pos = _extreme_roots(1e12)
    theta_minus, theta_plus = lb.solve_theta(1e12)
    assert theta_minus == pytest.approx(float(neg), rel=1e-12)
    assert theta_plus == pytest.approx(float(pos), rel=1e-12)


def test_solve_h_exact_reference_values():
    for x, (hm_ref, hp_ref) in CROSSINGS_REF.items():
        h_minus, h_plus = lb.solve_h_exact(float(x))
        assert h_minus == pytest.approx(hm_ref, rel=1e-14)
        assert h_plus == pytest.approx(hp_ref, rel=1e-14)
        # residual of the tangent gap at the returned crossings
        eps_scale = math.sqrt(x) * math.log(x)
        assert abs(lb._tangent_gap(x, h_minus)) < 1e-6 * eps_scale
        assert abs(lb._tangent_gap(x, h_plus)) < 1e-6 * eps_scale


def test_solve_h_exact_matches_mp_oracle():
    # Beyond ~1e16 the cancellation in li(x+h) - li(x) - h/ln x is what
    # the relative evaluation of the gap avoids; the oracle resolves it
    # with mpmath at about log10(x)/2 + 30 digits.
    for x in (1e6, 1e8, 1e12, 1e16, 1e30, 1e150, 1e300):
        hm_ref, hp_ref = mp_h_crossings(x)
        h_minus, h_plus = lb.solve_h_exact(x)
        assert h_minus == pytest.approx(float(hm_ref), rel=2e-15), x
        assert h_plus == pytest.approx(float(hp_ref), rel=2e-15), x


def test_crossings_sign_certified_by_mpmath():
    # The exact gap changes sign within 1e-12 relative of each crossing.
    # mp_tangent_gap forms li(x+h) - li(x), which cancels about sqrt(x)
    # relative to the gap, so it needs about log10(x)/2 digits, plus the
    # 12 of the certificate and a margin.
    for x in (1e20, 1e40, 1e100, 1e300):
        dps = int(math.log10(x) / 2) + 30
        for h in lb.solve_h_exact(x):
            below = mp_tangent_gap(x, h * (1 - 1e-12), dps)
            above = mp_tangent_gap(x, h * (1 + 1e-12), dps)
            assert (below > 0) != (above > 0), (x, h)


def test_every_decade_to_1e307():
    # The majorant's roots lie beyond the exact crossings by W - F over
    # |F'| at the crossing: with r = h/x that is about (h^4 / (12 x^3 y^2))
    # / (h / (x y^2)), a relative gap of r^2 / 12.  Where that is far above
    # float64's resolution it pins the gap and so the strict bracket; from
    # about 1e44 on it is below one ulp, and the roots agree to 1e-15.
    prev = math.inf
    for e in range(13, 308):
        x = 10.0**e
        theta_minus, theta_plus = lb.solve_theta(x)
        h_star_minus, h_star_plus = theta_minus * x, theta_plus * x
        h_minus, h_plus = lb.solve_h_exact(x)
        assert h_minus < 0 < h_plus
        for h, h_star in ((h_minus, h_star_minus), (h_plus, h_star_plus)):
            predicted = (h / x) ** 2 / 12
            assert abs((h_star - h) / h - predicted) <= 0.25 * predicted + 1e-15, (e, h)
        if e <= 39:
            assert h_star_minus < h_minus and h_plus < h_star_plus, e
        ratio = (h_plus - h_minus) / x
        assert ratio < prev, e
        prev = ratio


def test_solve_h_exact_rejects_small_x():
    # Below x = 8.03e5 the tangent gap is still positive at the domain edge
    # x + h = 2, so there is no negative-side crossing.
    for x in (3e5, 8.02e5):
        with pytest.raises(ValueError):
            lb.solve_h_exact(x)
    lb.solve_h_exact(8.04e5)


def test_working_threshold():
    # The program's g(1) changes sign at the mpmath threshold, so
    # solve_theta's window opens there.
    wt = float(mp_window_threshold())
    assert wt == pytest.approx(1.4777809264298031e10, rel=1e-12)
    assert lb.reduced_value(1.0, *lb.cubic_coeffs(wt * (1 - 1e-9))) > 0.0
    assert lb.reduced_value(1.0, *lb.cubic_coeffs(wt * (1 + 1e-9))) < 0.0
    lb.solve_theta(wt * 1.001)  # must succeed just above
    with pytest.raises(lb.ThetaPreconditionError):
        lb.solve_theta(wt * 0.999)


def test_bisect_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="does not change sign"):
        lb._bisect(lambda t: t * t + 1.0, -1.0, 1.0)


def test_double_until_gives_up_after_64_doublings():
    tried = []
    with pytest.raises(ValueError, match="64 doublings"):
        lb._double_until(lambda t: tried.append(t), 1.0)
    assert tried == [2.0**k for k in range(65)]
