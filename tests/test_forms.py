"""Degeneracy profiles: h, f, form assembly, structural envelope."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subunit_lab import forms
from subunit_lab.errors import DomainError
from subunit_lab.forms import (DegeneracyProfile, QuadraticFormField,
                               assemble_form, envelope_violation, eval_h,
                               eval_h_log, lambda_from_sigma)
from subunit_lab.grid import GridSpec


def mpmath_h(ln_x, lam):
    """Independent high-precision evaluation of h from ln x."""
    import mpmath as mp
    mp.mp.dps = 50
    lx = mp.mpf(ln_x)
    t = -abs(lx) ** (mp.mpf(-1) / 3)
    inner = 1 - mp.e ** t
    return (-1 / mp.log(inner)) ** (1 / mp.mpf(lam))


def test_lambda_from_sigma_paper_value():
    # statement of the continuity theorem fixes lambda = (5s-1)/(s-1)
    assert lambda_from_sigma(2.0) == 9.0
    assert math.isclose(lambda_from_sigma(3.0), 7.0)


def test_h_dual_path_12_digits():
    # x = exp(-1e6) is far below float underflow; evaluate from ln x and
    # compare the float path against 50-digit arithmetic
    ours = eval_h_log(-1e6, 9.0)
    ref = float(mpmath_h(-1e6, 9.0))
    assert math.isclose(ours, ref, rel_tol=1e-12)


def test_h_monotone_tail_to_zero():
    # h -> 0+ along a decreasing x-sequence (monotone tail check)
    ln_xs = [-10.0, -1e2, -1e3, -1e4, -1e5, -1e6]
    hs = [eval_h_log(lx, 9.0) for lx in ln_xs]
    assert all(h > 0 for h in hs)
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_h_domain_errors():
    with pytest.raises(DomainError):
        eval_h(0.95, 9.0)          # beyond the cap: inner log degenerates
    with pytest.raises(DomainError):
        eval_h(0.0, 9.0)
    with pytest.raises(DomainError):
        eval_h(-0.1, 9.0)
    with pytest.raises(DomainError):
        eval_h(0.5, 1.0)           # lambda must exceed 1


def test_h_increasing_in_x():
    xs = [1e-6, 1e-3, 0.1, 0.5, 0.89]
    hs = [eval_h(x, 9.0) for x in xs]
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_f_power_trivial():
    p = DegeneracyProfile("power", 1.0)
    assert p.value(0.5) == 0.5


def test_f_power_doubling_anchor():
    # f(2x)/f(x) = 2^k exactly up to rounding
    for k in (0.5, 1.0, 2.0):
        p = DegeneracyProfile("power", k)
        for x in (1e-3, 0.01, 0.2):
            assert math.isclose(p.value(2 * x) / p.value(x), 2.0 ** k,
                                rel_tol=1e-12)


def test_f_evenness_exact():
    for prof in (DegeneracyProfile("power", 1.0),
                 DegeneracyProfile("exponential", 0.5),
                 DegeneracyProfile("paper_model", 9.0)):
        for x in (1e-4, 0.05, 0.3):
            assert prof.value(-x) == prof.value(x)


def test_f_endpoint_approaches_one_as_cap_grows():
    # empty integral at the upper endpoint: f(1-) -> exp(0) = 1
    vals = []
    for cap in (0.9, 0.99, 0.999):
        p = DegeneracyProfile("paper_model", 9.0, domain_cap=cap)
        vals.append(p.value(cap - 1e-4))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99
    assert all(v < 1.0 for v in vals)


def test_f_paper_zero_at_origin_and_positive_elsewhere():
    p = DegeneracyProfile("paper_model", 9.0)
    assert p.value(0.0) == 0.0
    assert p.value(1e-8) > 0.0


def test_f_nondoubling_growth_mechanism():
    # ratio f(2x)/f(x) >= exp(1/(2 h(2x))) / safety, by the averaged
    # integral bound; oracle = one-shot quadrature of the integrand on [x, 2x]
    from scipy.integrate import quad
    p = DegeneracyProfile("paper_model", 9.0)
    x = 1e-3
    ratio = p.value(2 * x) / p.value(x)

    oracle, err = quad(lambda t: 1.0 / (t * eval_h(t, 9.0)), x, 2 * x,
                       epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    assert math.isclose(math.log(ratio), oracle, rel_tol=1e-7, abs_tol=1e-8)
    assert ratio >= math.exp(1.0 / (2.0 * eval_h(2 * x, 9.0))) / 1.1


def test_f_cache_monotone():
    for prof in (DegeneracyProfile("power", 2.0),
                 DegeneracyProfile("exponential", 1.0),
                 DegeneracyProfile("paper_model", 9.0)):
        fs = [prof.value(x) for x in np.geomspace(1e-6, 0.89, 49)]
        assert all(a <= b + 1e-15 for a, b in zip(fs, fs[1:]))


def test_log_integral_memoized_per_abs_x():
    # a column at -x or in a second grid reuses I(|x|); a lambda no other
    # test uses keeps the memo cold for this profile
    memo = forms._log_integral.cache_info
    p = DegeneracyProfile("paper_model", 9.125)
    start = memo()
    first = [p.log_value(x) for x in (0.2, 0.6)]
    mid = memo()
    assert mid.misses - start.misses == 2
    again = [p.log_value(x) for x in (-0.2, 0.6, -0.6)]
    assert memo().misses == mid.misses and memo().hits - mid.hits == 3
    assert again == [first[0], first[1], first[1]]


def _reference_log_integrals(xs, lam):
    """I(x) for x in xs, descending, to 40 digits: the v = |ln t|^(1/3)
    form of the integral, by mpmath's tanh-sinh rule between consecutive
    V = |ln x|^(1/3), summed."""
    with mp.workdps(40):
        inv_lam = 1 / mp.mpf(lam)

        def integrand(v):
            if v == 0:
                return mp.mpf(0)
            return 3 * v ** 2 * (-mp.log1p(-mp.exp(-1 / v))) ** inv_lam

        out, total, prev = [], mp.mpf(0), mp.mpf(0)
        for x in xs:
            top = (-mp.log(mp.mpf(x))) ** (mp.mpf(1) / 3)
            total += mp.quad(integrand, [prev, top])
            prev = top
            out.append(float(total))
    return out


# from 0.999999 down to the smallest subnormal, with 1/144 (the smallest
# nonzero |x| of a 145^2 grid on [-0.5, 0.5]) and 0.89 (near the cap)
LOG_INTEGRAL_XS = (0.999999, 0.89, 0.5, 1.0 / math.e, 0.1, 1.0 / 144, 1e-4,
                   1e-10, 1e-30, 1e-100, 1e-300, 5e-324)


@pytest.mark.parametrize("lam", [1.0001, 1.5, 9.0, 100.0, 1e4, 1e8])
def test_log_integral_matches_mpmath(lam):
    # the integrand is taken in logs: near x = 1 at large lambda,
    # (e^(-1/v))^(1/lambda) is of order 1 where 1 - e^(-1/v) rounds to 1
    p = DegeneracyProfile("paper_model", lam, domain_cap=0.9999995)
    refs = _reference_log_integrals(LOG_INTEGRAL_XS, lam)
    for x, ref in zip(LOG_INTEGRAL_XS, refs):
        assert abs(-p.log_value(x) - ref) <= 1e-13 * max(1.0, ref), x


def test_value_at_zero_and_away_per_kind():
    # power(0) is 1 everywhere, 0**0 included; the vanishing profiles are
    # 0 at the axis and exp(log_value) elsewhere
    assert DegeneracyProfile("power", 0.0).value(0.0) == 1.0
    assert DegeneracyProfile("power", 0.0).value(-0.3) == 1.0
    assert DegeneracyProfile("power", 2.0).value(0.0) == 0.0
    for prof in (DegeneracyProfile("exponential", 0.0),
                 DegeneracyProfile("exponential", 0.5),
                 DegeneracyProfile("paper_model", 9.0)):
        assert prof.value(0.0) == 0.0 and prof.value(-0.0) == 0.0
        assert prof.value(-0.3) == math.exp(prof.log_value(0.3))
    assert DegeneracyProfile("exponential", 0.5).value(0.3) == \
        math.exp(-0.5 / 0.3)


def test_paper_model_domain_cap_enforced():
    p = DegeneracyProfile("paper_model", 9.0)
    with pytest.raises(DomainError):
        p.value(0.95)


@given(st.floats(min_value=1e-4, max_value=0.88),
       st.floats(min_value=0.25, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_power_profile_properties(x, k):
    p = DegeneracyProfile("power", k)
    assert p.value(-x) == p.value(x)
    assert p.value(x) > 0
    assert p.value(min(2 * x, 0.95)) >= p.value(x)


def test_assemble_constant_is_euclidean(grid129=None):
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33)
    form = assemble_form(DegeneracyProfile("constant", 1.0), g)
    # the first entry is 1 by construction: the form holds q22 alone
    assert not hasattr(form, "q11")
    assert np.all(form.q22 == 1.0)


def test_assemble_grushin_q22_is_x_squared():
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33)
    form = assemble_form(DegeneracyProfile("power", 1.0), g)
    xs = g.xs()
    assert np.allclose(form.q22[:, 7], xs ** 2, rtol=0, atol=0)


def test_assemble_paper_axis_column_zero():
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 65, 65)
    form = assemble_form(DegeneracyProfile("paper_model", 9.0), g)
    assert np.all(form.q22[32, :] == 0.0)       # exact zero on the axis
    assert form.underflow_radius == 0.0         # nothing else underflows
    assert np.all(form.q22[33, :] > 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
def test_form_rejects_negative_or_non_finite_q22(bad):
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
    q22 = np.ones(g.shape)
    q22[5, 5] = bad
    with pytest.raises(DomainError, match="nonnegative"):
        QuadraticFormField(grid=g, q22=q22)


def _brute_force_violation(form, c_phi, C_phi):
    """The envelope's worst relative violation, sampled: every node, z over
    [-40, 40] (where tanh rounds to +-1, so phi reaches both ends of its
    range) and the four probe directions, the axes and the diagonals."""
    phi = forms.default_phi(np.linspace(-40.0, 40.0, 161))[:, None, None]
    q22 = form.q22[None]
    worst = 0.0
    s = 1.0 / math.sqrt(2.0)
    for x1, x2 in ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s)):
        qv = x1 ** 2 + q22 * x2 ** 2
        av = x1 ** 2 + phi * q22 * x2 ** 2
        v = np.maximum(c_phi * qv - av, av - C_phi * qv) / np.maximum(qv,
                                                                      1e-300)
        worst = max(worst, float(v.max()))
    return worst


@pytest.mark.parametrize("bounds", [(1.0, 3.0), (1.0, 2.5), (1.5, 3.0),
                                    (0.5, 0.8), (2.0, 2.0), (0.2, 5.0)])
@pytest.mark.parametrize("kind,param", [("power", 1.0), ("constant", 0.0),
                                        ("constant", 1.0),
                                        ("paper_model", 9.0)])
def test_envelope_violation_is_the_sampled_supremum(kind, param, bounds):
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 17, 17)
    form = assemble_form(DegeneracyProfile(kind, param), g)
    # constant(0) has q22 = 0 at every node, which hides phi entirely
    assert abs(envelope_violation(form, *bounds)
               - _brute_force_violation(form, *bounds)) <= 1e-14
