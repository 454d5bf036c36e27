import math
import random

import numpy as np
import pytest

from oracles import mp_h_crossings, mp_tangent_gap
from primehull import lens_bounds as lb

# mpmath reference values (computed at 30-40 decimal digits):
# li via mp.li(x, offset=True); crossings via high-precision bisection on
# the exact tangent gap; derivatives via mp.diff of li and sqrt(x) ln x.
LI_REF = {
    10: 5.1204357246698051527,
    88789: 8650.0258675698066473,
    10**6: 78626.503995682064427,
    10**8: 5762208.3302842513501,
    10**12: 37607950279.759701709,
}
LI_BETWEEN_REF = 893.16353920780602493  # integral over [1e6, 1e6 + 12345]

DERIV_REF_1E6 = dict(
    l1=0.072382413650541971,
    l2=-5.2392138058781647e-9,
    l3=5.9976676876795719e-15,
    l4=-1.2918485424982777e-20,
    eps=13815.510557964274,
    eps1=0.0079077552789821371,
    eps2=-3.4538776394910685e-9,
    eps3=4.9308164592366028e-15,
    eps4=-1.1952041148091507e-20,
)

CROSSINGS_REF = {
    10**6: (-998973.64144881458, 32674921.278881009),
    10**8: (-83363303.252643586, 371250312.97242701),
    10**10: (-5182056595.5106093, 9782422926.6110954),
    10**12: (-255877024906.80661, 331773991063.14698),
}
WIDTH_RATIO_REF = {
    10**6: 33.673894920329822,
    10**8: 4.5461361622507059,
    10**10: 1.4964479522121703,
    10**12: 0.58765101596995362,
}

THETA_REF_1E12 = (-0.25738728901422609, 0.33550850843454493)


def test_li_reference_values():
    for x, ref in LI_REF.items():
        assert lb.li(float(x)) == pytest.approx(ref, rel=1e-12)


def test_li_between():
    assert lb.li_between(1e6, 1e6 + 12345) == pytest.approx(LI_BETWEEN_REF, rel=1e-12)
    # additivity against the anchored integral
    for a, b in [(2.0, 97.0), (10.0, 1e6), (5e5, 2e6)]:
        assert lb.li(a) + lb.li_between(a, b) == pytest.approx(lb.li(b), rel=1e-13)
    assert lb.li_between(50.0, 50.0) == 0.0


def test_li_domain_errors():
    with pytest.raises(ValueError):
        lb.li(1.5)
    with pytest.raises(ValueError):
        lb.li_between(10.0, 5.0)
    with pytest.raises(ValueError):
        lb.li_between(1.0, 5.0)


def test_li_panels_match_li_between():
    rng = random.Random(5)
    lefts, rights = [], []
    x = 2.0
    for _ in range(200):
        x += rng.uniform(0.0, 60.0)
        lefts.append(x)
        rights.append(x + rng.uniform(0.0, 90.0))
        x = rights[-1]
    incs = lb.li_panels(np.array(lefts), np.array(rights), lb.GL12)
    for a, b, inc in zip(lefts, rights, incs.tolist()):
        assert inc == pytest.approx(lb.li_between(a, b), rel=1e-12, abs=1e-15)


def test_derivatives_match_mpmath():
    d = lb.derivatives(1e6)
    for name, ref in DERIV_REF_1E6.items():
        assert getattr(d, name) == pytest.approx(ref, rel=1e-10), name


def test_derivative_signs_large_x():
    for x in (1e6, 1e9, 1e12):
        d = lb.derivatives(x)
        assert d.l1 > 0 > d.l2
        assert d.l3 > 0 > d.l4
        assert d.eps1 > 0 > d.eps2
        assert d.eps3 > 0 > d.eps4  # eps'''' < 0 needs ln x > 16/15


def test_taylor_domination_random_grid():
    # Both fourth derivatives are negative on the sampled domain, so the
    # degree-3 Taylor polynomials dominate the functions for h of either
    # sign. This is what makes W a majorant of the tangent gap.
    rng = random.Random(99)
    for _ in range(120):
        x = 10 ** rng.uniform(6, 12.5)
        h = x * rng.uniform(-0.9, 2.0)
        lx = lb.li(x + h)
        ex = math.sqrt(x + h) * math.log(x + h)
        assert lb.taylor_upper_l(x, h) >= lx - 1e-9 * abs(lx)
        assert lb.taylor_upper_eps(x, h) >= ex - 1e-9 * abs(ex)


def _w_coeffs(x):
    """W_x's coefficients A3, A2, A1, A0 from their Taylor-sum definitions."""
    d = lb.derivatives(x)
    return (d.l3 + d.eps3) / 6.0, (d.l2 + d.eps2) / 2.0, 2.0 * d.eps1, 2.0 * d.eps


def test_cubic_coeffs_consistency():
    rng = random.Random(4)
    for _ in range(60):
        x = 10 ** rng.uniform(1, 13)
        prob = lb.cubic_coeffs(x)
        a3, a2, a1, a0 = _w_coeffs(x)
        assert a3 > 0.0
        # reduced forms: v2 = 3 + A2/(A3 x), v1 = A1/(A3 x^2), v0 = A0/(A3 x^3)
        assert prob.v2 == pytest.approx(3.0 + a2 / (a3 * x), rel=1e-12)
        assert prob.v1 == pytest.approx(a1 / (a3 * x * x), rel=1e-12)
        assert prob.v0 == pytest.approx(a0 / (a3 * x**3), rel=1e-12)
        h = x * rng.uniform(-1.0, 1.0)
        assert prob.w_value(h) == pytest.approx(((a3 * h + a2) * h + a1) * h + a0, rel=1e-12)


def test_w_value_and_reduced_value_agree():
    rng = random.Random(12)
    for _ in range(40):
        x = 10 ** rng.uniform(4, 12)
        prob = lb.cubic_coeffs(x)
        theta = rng.uniform(-1.0, 1.0)
        h = theta * x
        assert prob.w_value(h) == pytest.approx(
            _w_coeffs(x)[0] * x**3 * prob.reduced_value(theta), rel=1e-10, abs=1e-12
        )


def test_w_majorizes_tangent_gap():
    rng = random.Random(31)
    for _ in range(60):
        x = 10 ** rng.uniform(6, 12)
        prob = lb.cubic_coeffs(x)
        h = x * rng.uniform(-0.9, 1.5)
        f = lb._tangent_gap(x, h)
        assert prob.w_value(h) >= f - 1e-9 * max(1.0, abs(f))


def test_solve_theta_at_1e12():
    roots = lb.solve_theta(1e12)
    assert roots.theta_minus == pytest.approx(THETA_REF_1E12[0], rel=1e-12)
    assert roots.theta_plus == pytest.approx(THETA_REF_1E12[1], rel=1e-12)
    assert roots.theta_minus < 0 < roots.theta_plus
    assert roots.residual_minus < 1e-10 and roots.residual_plus < 1e-10
    assert roots.h_star_minus == roots.theta_minus * 1e12
    assert roots.h_star_plus == roots.theta_plus * 1e12


def test_solve_theta_window_rejections():
    # The window condition g(1) < 0 genuinely fails below ~1.48e10: the
    # v-coefficients are still too large. These are honest rejections, not
    # tolerance artifacts (v2 + v1 + v0 at 1e10 is 2.27 vs the required < 2).
    for x in (1e8, 1e10):
        with pytest.raises(lb.ThetaPreconditionError):
            lb.solve_theta(x)


def test_theta_extreme_roots():
    # 1e8: the cubic is positive for all theta > 0 (no positive root).
    neg, pos = lb.theta_extreme_roots(1e8)
    assert pos is None
    assert neg == pytest.approx(-0.8982632226141225, rel=1e-10)
    # 1e10: positive roots exist but the smaller one exceeds theta = 1,
    # which is why the window [-1, 1] can never capture it.
    neg, pos = lb.theta_extreme_roots(1e10)
    assert neg == pytest.approx(-0.5312291816344477, rel=1e-10)
    assert pos == pytest.approx(1.156861015481545, rel=1e-10)
    assert pos > 1.0
    # 1e12 agrees with the window solver
    neg, pos = lb.theta_extreme_roots(1e12)
    assert neg == pytest.approx(THETA_REF_1E12[0], rel=1e-12)
    assert pos == pytest.approx(THETA_REF_1E12[1], rel=1e-12)
    for x in (1e8, 1e10, 1e12):
        prob = lb.cubic_coeffs(x)
        n, p = lb.theta_extreme_roots(x)
        assert abs(prob.reduced_value(n)) < 1e-10
        if p is not None:
            assert abs(prob.reduced_value(p)) < 1e-10


def test_solve_h_exact_reference_values():
    for x, (hm_ref, hp_ref) in CROSSINGS_REF.items():
        c = lb.solve_h_exact(float(x))
        assert c.h_minus == pytest.approx(hm_ref, rel=1e-14)
        assert c.h_plus == pytest.approx(hp_ref, rel=1e-14)
        assert c.width / x == pytest.approx(WIDTH_RATIO_REF[x], rel=1e-14)
        # residual of the tangent gap at the returned crossings
        eps_scale = math.sqrt(x) * math.log(x)
        assert abs(lb._tangent_gap(x, c.h_minus)) < 1e-6 * eps_scale
        assert abs(lb._tangent_gap(x, c.h_plus)) < 1e-6 * eps_scale


def test_width_ratio_strictly_decreasing():
    ratios = [lb.solve_h_exact(float(x)).width / x for x in (10**6, 10**8, 10**10, 10**12)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_sandwich_with_relaxed_roots():
    # Wherever the majorant has roots of the right sign they must bracket
    # the exact crossings (W >= F pointwise). At 1e10 the positive root
    # exists but only outside the window [-1, 1]; the bracket still holds.
    for x in (1e10, 1e12):
        neg, pos = lb.theta_extreme_roots(x)
        c = lb.solve_h_exact(x)
        assert neg * x < c.h_minus < 0 < c.h_plus < pos * x


def test_solve_h_exact_matches_mp_oracle():
    # Beyond ~1e16 the cancellation in li(x+h) - li(x) - h/ln x is what
    # the relative evaluation of the gap avoids; the oracle resolves it
    # with mpmath at about log10(x)/2 + 30 digits.
    for x in (1e6, 1e8, 1e12, 1e16, 1e30, 1e150, 1e300):
        hm_ref, hp_ref = mp_h_crossings(x)
        c = lb.solve_h_exact(x)
        assert c.h_minus == pytest.approx(float(hm_ref), rel=2e-15), x
        assert c.h_plus == pytest.approx(float(hp_ref), rel=2e-15), x


def test_crossings_sign_certified_by_mpmath():
    # The exact gap changes sign within 1e-12 relative of each crossing.
    # mp_tangent_gap forms li(x+h) - li(x), which cancels about sqrt(x)
    # relative to the gap, so it needs about log10(x)/2 digits, plus the
    # 12 of the certificate and a margin.
    for x in (1e20, 1e40, 1e100, 1e300):
        dps = int(math.log10(x) / 2) + 30
        c = lb.solve_h_exact(x)
        for h in (c.h_minus, c.h_plus):
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
        roots = lb.solve_theta(x)
        c = lb.solve_h_exact(x)
        assert c.h_minus < 0 < c.h_plus
        for h, h_star in ((c.h_minus, roots.h_star_minus), (c.h_plus, roots.h_star_plus)):
            predicted = (h / x) ** 2 / 12
            assert abs((h_star - h) / h - predicted) <= 0.25 * predicted + 1e-15, (e, h)
        if e <= 39:
            assert roots.h_star_minus < c.h_minus and c.h_plus < roots.h_star_plus, e
        assert c.width / x < prev, e
        prev = c.width / x


def test_solve_h_exact_rejects_small_x():
    # Below x = 8.03e5 the tangent gap is still positive at the domain edge
    # x + h = 2, so there is no negative-side crossing.
    for x in (3e5, 8.02e5):
        with pytest.raises(ValueError):
            lb.solve_h_exact(x)
    lb.solve_h_exact(8.04e5)


def test_working_threshold():
    wt = lb.working_threshold()
    assert wt == pytest.approx(1.47778e10, rel=1e-4)
    lb.solve_theta(wt * 1.001)  # must succeed just above
    with pytest.raises(lb.ThetaPreconditionError):
        lb.solve_theta(wt * 0.999)
