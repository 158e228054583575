"""Degeneracy profiles: h, f, form assembly, structural envelope."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from subunit_lab import forms
from subunit_lab.errors import DomainError, ProfileError, QuadratureError
from subunit_lab.forms import (DegeneracyProfile, _inv_h_logvar,
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


def test_f_quadrature_stability_under_tolerance_halving():
    tol = 1e-9
    p1 = DegeneracyProfile("paper_model", 9.0, quad_tol=tol)
    p2 = DegeneracyProfile("paper_model", 9.0, quad_tol=tol / 2)
    for x in (1e-4, 1e-2, 0.3, 0.7):
        assert abs(p1.log_value(x) - p2.log_value(x)) < 10.0 * tol


def test_quadrature_error_raised_for_impossible_tolerance():
    p = DegeneracyProfile("paper_model", 9.0, quad_tol=1e-16)
    with pytest.raises(QuadratureError):
        p.value(0.5)


def test_quadrature_error_raised_again_on_retry():
    # the memo of I(|x|) keeps values, not raises
    p = DegeneracyProfile("paper_model", 9.0, quad_tol=1e-16)
    for _ in range(2):
        with pytest.raises(QuadratureError):
            p.log_value(0.6)


def test_log_integral_memoized_per_abs_x(monkeypatch):
    # a column at -x or in a second grid reuses I(|x|); a tolerance no
    # other test uses keeps the memo cold for this profile
    calls = []
    piece = forms._quad_piece
    monkeypatch.setattr(forms, "_quad_piece",
                        lambda *a: calls.append(a) or piece(*a))
    p = DegeneracyProfile("paper_model", 9.0, quad_tol=3.7e-10)
    first = [p.log_value(x) for x in (0.2, 0.6)]
    n = len(calls)
    assert n == 3                       # (ln 0.2, -1), the tail, (ln 0.6, 0)
    again = [p.log_value(x) for x in (-0.2, 0.6, -0.6)]
    assert len(calls) == n and again == [first[0], first[1], first[1]]


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_quad_tol_must_be_positive_and_finite(tol):
    # quad raised ValueError on a tolerance <= 0 (QUADPACK's ier = 6), and
    # a NaN or infinite one returned a value no budget could judge (I(0.6)
    # read 0.421894 at NaN and 0.421906 at inf); qags checks neither
    with pytest.raises(ProfileError) as info:
        DegeneracyProfile("paper_model", 9.0, quad_tol=tol)
    assert info.value.field == "quad_tol"


def _two_piece_log_integral(x, lam, tol):
    # I(x) with a fresh quad call per piece: (ln x, -1) then (-1, 0) for
    # x < 1/e, else the single piece (ln x, 0)
    lo = math.log(x)
    pieces = [(lo, -1.0), (-1.0, 0.0)] if lo < -1.0 else [(lo, 0.0)]
    val = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in pieces:
            val += quad(_inv_h_logvar, a, b, args=(lam,), limit=200,
                        epsabs=tol, epsrel=10.0 * tol)[0]
    return val


def test_log_integral_matches_two_piece_reference():
    # the tail over (-1, 0) differs between the two tolerances, so a tail
    # reused across tolerances (or lambdas) changes some value below 1/e
    for lam in (3.0, 9.0):
        for tol in (1e-10, 1e-6):
            p = DegeneracyProfile("paper_model", lam, quad_tol=tol)
            for x in (1e-4, 0.05, 0.3, 0.36, 0.37, 0.5):
                assert p.log_value(x) == -_two_piece_log_integral(x, lam, tol)
    p = DegeneracyProfile("paper_model", 9.0, quad_tol=1e-16)
    for x in (0.1, 0.5):
        with pytest.raises(QuadratureError):
            p.log_value(x)


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
