"""Regularity diagnostics: Caccioppoli, Moser ladder, logs, Harnack, omega."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subunit_lab.config import SolverSpec
from subunit_lab.cutoff import build_sequence
from subunit_lab.diagnostics import (caccioppoli_ratio, harnack_check,
                                     harnack_exponent, local_bound_check,
                                     log_c_har, log_estimate, moser_iterate,
                                     mu_beta, oscillation_curve,
                                     schedule_gamma, shift_m)
from subunit_lab.errors import (ChainTooShortError, DomainError,
                                PositivityError)
from subunit_lab.forms import DegeneracyProfile, assemble_form, eval_h
from subunit_lab.grid import GridSpec
from subunit_lab.metric import ball, solve_distance
from subunit_lab.solver import assemble_linear, solve_linear
from tests.test_cutoff import seq_delta


# ---------------------------------------------------------------- mu_beta

def test_mu_beta_values():
    assert mu_beta(1.0) == 1.0
    assert math.isclose(mu_beta(0.4), 0.5)      # |2*0.4 - 1| / 0.4
    assert mu_beta(-1.0) == 1.0                 # |(-3)/(-1)| = 3, min with 1


def test_mu_beta_domain_errors():
    for bad in (0.0, 0.5):
        with pytest.raises(DomainError):
            mu_beta(bad)


@given(st.floats(min_value=-10, max_value=10).filter(
    lambda b: abs(b) > 1e-3 and abs(b - 0.5) > 1e-3))
@settings(max_examples=80, deadline=None)
def test_mu_beta_properties(beta):
    m = mu_beta(beta)
    assert 0.0 < m <= 1.0
    if beta >= 1.0 or beta < 0.0:
        assert m == 1.0


def test_mu_beta_symmetric_dip_toward_half():
    left = [mu_beta(0.5 - e) for e in (0.2, 0.1, 0.05)]
    right = [mu_beta(0.5 + e) for e in (0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(left, left[1:]))
    assert all(a > b for a, b in zip(right, right[1:]))


# ---------------------------------------------------------- shared solutions

@pytest.fixture(scope="module")
def grushin_setup():
    """Grushin form + field + cutoffs + affine exact solution at (0.2, 0)."""
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)
    form = assemble_form(DegeneracyProfile("power", 1.0), g)
    field = solve_distance(form, g.nearest_node(0.2, 0.0), 1e-3)
    r, nu = 0.16, 0.5
    delta_nu = seq_delta(field, r, nu)
    delta_r = seq_delta(field, r, 1.0)
    seq = build_sequence(field, form, r, nu, delta_nu, 12)
    X, _ = g.meshgrid()
    u = X + 2.0                          # stencil-exact solution, f = 0
    return dict(grid=g, form=form, field=field, r=r, nu=nu,
                delta_nu=delta_nu, delta_r=delta_r, seq=seq, u=u)


@pytest.fixture(scope="module")
def paraboloid_setup():
    """u = (x-a)^2 + (y-b)^2 solved exactly with f = 2 + 2 q22: the
    positivity floor is attained at the ball center (sharp-log regime)."""
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)
    form = assemble_form(DegeneracyProfile("power", 1.0), g)
    a, b = 0.2, 0.0
    X, Y = g.meshgrid()
    f_rhs = 2.0 + 2.0 * form.q22
    bc = (X - a) ** 2 + (Y - b) ** 2
    system = assemble_linear(form.q22, g, f_rhs, bc)
    u = solve_linear(system, SolverSpec(lin_tol=1e-13)).values
    assert np.max(np.abs(u - bc)) < 1e-9             # stencil-exact oracle
    field = solve_distance(form, g.nearest_node(a, b), 1e-3)
    return dict(grid=g, form=form, field=field, u=u, f_rhs=f_rhs,
                center=(a, b))


# ------------------------------------------------------------- caccioppoli

def test_caccioppoli_constant_zero(grushin_setup):
    s = grushin_setup
    w = np.full(s["grid"].shape, 3.0)
    assert caccioppoli_ratio(w, s["seq"].member(0), 1.0, s["form"], 0.0) == 0.0


def test_caccioppoli_affine_bounded_and_refinement_stable(grushin_setup):
    # hold the cutoff geometry fixed while refining the grid, with a ramp
    # wide enough to resolve on the coarsest grid (~5 cells): an unresolved
    # ramp makes the discrete psi-gradient quantize to 1/h and drift freely
    r, nu, delta = 0.3, 0.5, 0.15
    ratios = []
    for n in (129, 257):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
        form = assemble_form(DegeneracyProfile("power", 1.0), g)
        field = solve_distance(form, g.nearest_node(0.2, 0.0), 1e-3)
        seq = build_sequence(field, form, r, nu, delta, 8)
        X, _ = g.meshgrid()
        ratios.append(caccioppoli_ratio(X + 2.0, seq.member(0), 1.0, form,
                                        0.0))
    assert all(0 < c < 50.0 for c in ratios)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.20


def test_caccioppoli_beta_half_rejected(grushin_setup):
    s = grushin_setup
    with pytest.raises(DomainError):
        caccioppoli_ratio(s["u"], s["seq"].member(0), 0.5, s["form"], 0.0)


def test_caccioppoli_positivity_error(grushin_setup):
    s = grushin_setup
    w = s["u"] - 10.0                   # negative somewhere
    with pytest.raises(PositivityError):
        caccioppoli_ratio(w, s["seq"].member(0), 1.0, s["form"], 0.0)


# ------------------------------------------------------------ Moser ladder

def test_moser_constant_solution_flat_ladder(grushin_setup):
    s = grushin_setup
    c, m = 3.0, 1.0
    w = np.full(s["grid"].shape, c)
    run = moser_iterate(w, s["field"], s["r"], 1.0, 2.0, s["nu"],
                        s["seq"].supports, s["delta_nu"], m)
    assert all(math.isclose(nj, c + m, rel_tol=1e-12) for nj in run.N)
    assert run.passed
    assert run.truncated_at == -1


def test_moser_affine_ladder_trend_and_bound(grushin_setup):
    s = grushin_setup
    m = shift_m(s["u"], 0.0, s["r"])
    run = moser_iterate(s["u"], s["field"], s["r"], 1.0, 2.0, s["nu"],
                        s["seq"].supports, s["delta_nu"], m)
    assert len(run.N) == len(s["seq"].supports)
    assert all(np.isfinite(run.N))
    # the ladder settles after the first steps: increments decay to zero
    incs = [abs(b - a) for a, b in zip(run.N, run.N[1:])]
    assert incs[-1] < 0.25 * max(incs[:3])
    # each N_j sits below the support sup of ubar^gamma (power-mean bracket)
    ubar = s["u"] + m
    for nj, supp in zip(run.N, s["seq"].supports):
        assert nj <= float(ubar[supp].max()) ** run.gamma_used + 1e-9
    assert run.passed                      # observed sup far below the bound
    assert run.empirical_c < 1.0
    assert not run.shifted                 # gamma = 1 needs no scheduling


def test_moser_gamma_negative(grushin_setup):
    s = grushin_setup
    run = moser_iterate(s["u"], s["field"], s["r"], -1.0, 2.0, s["nu"],
                        s["seq"].supports, s["delta_nu"],
                        shift_m(s["u"], 0.0, s["r"]))
    assert all(np.isfinite(run.N))
    assert not run.shifted


def test_moser_overflow_guard_truncates(grushin_setup):
    s = grushin_setup
    bad = s["u"].copy()
    i, j = s["field"].source
    bad[i + 1, j] = np.inf
    run = moser_iterate(bad, s["field"], s["r"], 1.0, 2.0, s["nu"],
                        s["seq"].supports, s["delta_nu"], 1.0)
    assert run.truncated_at == 0
    assert run.N == []


def test_moser_rejects_bad_gamma(grushin_setup):
    s = grushin_setup
    for g in (0.0, 2.5):
        with pytest.raises(DomainError):
            moser_iterate(s["u"], s["field"], s["r"], g, 2.0, s["nu"],
                          s["seq"].supports, s["delta_nu"], 1.0)


def test_scheduler_shifts_near_half_exponent():
    # gamma = sigma^{-3}/2 puts beta_4 exactly at 1/2; the shift lands on
    # gamma~ = sigma^k (sigma+1)/4 with gamma~ <= gamma < sigma gamma~
    sigma = 2.0
    gamma = 0.5 * sigma ** (-3)            # 1/16
    g_used, shifted = schedule_gamma(gamma, sigma, 12)
    assert shifted
    assert math.isclose(g_used, 3.0 / 64.0)
    assert g_used <= gamma < sigma * g_used
    margin = 0.5 * (1.0 - 1.0 / sigma)
    for j in range(12):
        assert abs(2.0 * g_used * sigma ** j - 1.0) >= margin - 1e-12


def test_scheduler_margin_holds_for_all_scheduled_j():
    sigma = 2.0
    margin = 0.5 * (1.0 - 1.0 / sigma)
    for gamma in (1.0, 2.0, 0.75, 0.11, 1.0 / 16.0, 1.0 / 3.0):
        g_used, _ = schedule_gamma(gamma, sigma, 12)
        for j in range(12):
            assert abs(2.0 * g_used * sigma ** j - 1.0) >= margin - 1e-12


def test_scheduler_negative_gamma_untouched():
    g_used, shifted = schedule_gamma(-1.0, 2.0, 12)
    assert g_used == -1.0 and not shifted


# ------------------------------------------------------------ log estimates

def test_log_estimate_constant_solution_zero(grushin_setup):
    s = grushin_setup
    w = np.full(s["grid"].shape, 2.0)
    rep = log_estimate(w, s["field"], s["r"], s["delta_r"], s["form"], 1.0)
    assert rep.inter_constant == 0.0
    assert rep.est1_constant == 0.0
    assert rep.est2_constant == 0.0


def test_log_estimate_affine_finite(grushin_setup):
    s = grushin_setup
    rep = log_estimate(s["u"], s["field"], s["r"], s["delta_r"], s["form"],
                       shift_m(s["u"], 0.0, s["r"]))
    consts = (rep.inter_constant, rep.est1_constant, rep.est2_constant)
    assert all(np.isfinite(consts))
    assert all(c > 0 for c in consts)
    assert not rep.floor_proximity


def test_log_estimate_floor_touching_band_stability(paraboloid_setup):
    """The weak log estimates are sharp when ubar attains its positivity
    floor inside the ball; there the empirical constants settle to a
    band-stable value (+-25% per the acceptance gate)."""
    s = paraboloid_setup
    consts = []
    for r in (0.24, 0.12, 0.06):
        delta_r = seq_delta(s["field"], r, 1.0)
        rep = log_estimate(s["u"], s["field"], r, delta_r, s["form"],
                           shift_m(s["u"], s["f_rhs"], r))
        assert rep.floor_proximity          # ubar touches m(r) at the center
        consts.append((rep.inter_constant, rep.est1_constant,
                       rep.est2_constant))
    for k in range(3):
        vals = [c[k] for c in consts]
        assert max(vals) / min(vals) <= 1.25 / 0.75


def test_log_estimate_positivity_error(grushin_setup):
    s = grushin_setup
    w = s["u"] - 5.0
    with pytest.raises(PositivityError):
        log_estimate(w, s["field"], s["r"], s["delta_r"], s["form"], 1.0)


# ----------------------------------------------------------------- Harnack

def test_harnack_exponent_identity():
    import sympy
    sigma = sympy.Integer(2)
    expr = 4 * sigma / (sigma - 1) + 1
    assert expr == 9
    assert harnack_exponent(2.0) == 9.0


def test_harnack_constant_solution(grushin_setup):
    s = grushin_setup
    w = np.ones(s["grid"].shape)
    rep = harnack_check(w, s["field"], s["r"], 0.5, 2.0, s["delta_nu"], 1.0)
    assert rep.quotient == 1.0
    assert rep.passed


def test_harnack_affine_closed_form_quotient(grushin_setup):
    # ball extent along x is exactly nu0*r, so the quotient is
    # (x0 + s + c + m)/(x0 - s + c + m) with s = nu0 r
    s = grushin_setup
    nu0 = 0.5
    m = shift_m(s["u"], 0.0, s["r"])
    rep = harnack_check(s["u"], s["field"], s["r"], nu0, 2.0, s["delta_nu"], m)
    sx = nu0 * s["r"]
    want = (0.2 + sx + 2.0 + m) / (0.2 - sx + 2.0 + m)
    assert abs(rep.quotient - want) / want < 0.03
    assert rep.passed
    assert rep.log_slack < 0.0


def test_harnack_on_degenerate_axis_huge_constant(paper_field_origin,
                                                  paper_form):
    X, _ = paper_form.grid.meshgrid()
    u = X + 2.0
    delta = seq_delta(paper_field_origin, 0.2, 0.5)
    rep = harnack_check(u, paper_field_origin, 0.2, 0.5, 2.0, delta,
                        shift_m(u, 0.0, 0.2))
    assert rep.passed
    assert rep.log_c_har > 1e3            # delta/r small: astronomic constant
    # C_Har itself overflows floats; its log stays exact
    assert rep.log_c_har > math.log(sys.float_info.max)


def test_harnack_negative_solution_rejected(grushin_setup):
    s = grushin_setup
    w = s["u"] - 10.0
    with pytest.raises(PositivityError):
        harnack_check(w, s["field"], s["r"], 0.5, 2.0, s["delta_nu"], 0.0)


# ----------------------------------------------------------- local bounds

def test_local_bound_constant_solution(grushin_setup):
    s = grushin_setup
    w = np.full(s["grid"].shape, 4.0)
    c = local_bound_check(w, s["field"], s["r"], s["nu"], 2.0,
                          s["delta_nu"], 0.0)
    # constant u: sup = bracket, so c is 1 over the prefactor
    # (delta(nu r)/r)^(-sigma/(sigma-1)) at sigma = 2
    prefactor = (s["delta_nu"] / s["r"]) ** -2.0
    assert math.isclose(c * prefactor, 1.0, rel_tol=1e-9)


def test_local_bound_refinement_stable():
    vals = []
    for n in (129, 257):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
        form = assemble_form(DegeneracyProfile("constant", 1.0), g)
        field = solve_distance(form, (n // 2, n // 2), 1e-3)
        bc = lambda X, Y: 2.0 + 0.5 * np.sin(4 * X) * np.cos(3 * Y)
        system = assemble_linear(form.q22, g, 0.0, bc)
        u = solve_linear(system, SolverSpec(lin_tol=1e-12)).values
        delta = seq_delta(field, 0.2, 0.5)
        vals.append(local_bound_check(u, field, 0.2, 0.5, 2.0, delta, 0.0))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.20


# ------------------------------------------------------------- oscillation

def test_oscillation_affine_linear_decay(grushin_setup):
    s = grushin_setup
    chain = [s["r"] * 0.5 ** k for k in range(4)]
    osc = oscillation_curve(
        [s["u"]] * 4, [s["field"]] * 4, chain, 0.5, 0.5,
        lambda r: log_c_har(0.5 * r, 0.1 * r, 2.0), 0.0)
    # omega(r) = 2r for the affine solution (ball x-extent is exactly r)
    for r, w in zip(osc.radii, osc.omega):
        assert abs(w - 2.0 * r) < 4.0 * s["grid"].hx
    assert osc.monotone
    assert np.all(osc.pair_ok)
    assert np.all(osc.alpha_r >= 0.0)


def test_oscillation_requires_nu0_chain(grushin_setup):
    s = grushin_setup
    with pytest.raises(DomainError):
        oscillation_curve([s["u"]] * 4, [s["field"]] * 4,
                          [0.2, 0.13, 0.08, 0.05], 0.5, 0.5,
                          lambda r: 10.0, 0.0)


def test_oscillation_chain_too_short(grushin_setup):
    s = grushin_setup
    with pytest.raises(ChainTooShortError):
        oscillation_curve([s["u"]] * 3, [s["field"]] * 3, [0.2, 0.1, 0.05],
                          0.5, 0.5, lambda r: 10.0, 0.0)


def test_oscillation_on_degenerate_axis_weak_contraction(paper_field_origin,
                                                         paper_form,
                                                         paper_profile):
    """Center on the degenerate axis: gamma(r) = 1 to float resolution, yet
    omega still decreases; the analytic delta-law product trend grows."""
    X, _ = paper_form.grid.meshgrid()
    chain = [0.32 * 0.5 ** k for k in range(4)]

    def analytic_log_c_har(r):
        # delta(nu0 r) = nu0 r h(nu0 r / 2), the paper's delta law
        return log_c_har(0.5 * r, 0.5 * r * eval_h(0.25 * r, 9.0), 2.0)

    osc = oscillation_curve([X + 2.0] * 4, [paper_field_origin] * 4, chain,
                            0.5, 0.5, analytic_log_c_har, 0.0)
    assert osc.monotone
    assert np.all(osc.pair_ok)
    # gamma(r) is decreasing in r (rises toward 1 down the chain): the
    # contraction weakens exactly as the non-doubling order shrinks
    assert np.all(np.diff(osc.gamma_r) > 0)
    assert np.all((osc.gamma_r > 0.5) & (osc.gamma_r < 1.0))
    assert np.all(osc.alpha_r > 0.0)
    # |ln r * ln gamma(r)| grows down the chain (stable log representation)
    assert osc.log_product[-1] > osc.log_product[0]


def test_oscillation_on_box_grids_on_axis(grid257, grushin_profile):
    # one box grid per radius keeps every on-axis chain ball resolved; the
    # affine solution then has omega(rho) = 2 rho at every step
    from subunit_lab.geometry import box_ball
    chain = [0.2 * 0.5 ** k for k in range(4)]
    fields = [box_ball(grushin_profile, (0.0, 0.0), rho, 0.2, 0.0125, 41,
                       grid257) for rho in chain]
    X, _ = grid257.meshgrid()
    us = [grid257.bilinear(X + 2.0, *f.grid.meshgrid())[0] for f in fields]
    osc = oscillation_curve(us[::-1], fields[::-1], chain[::-1], 0.5, 0.5,
                            lambda r: log_c_har(0.5 * r, 0.08 * r, 2.0), 0.0)
    assert np.allclose(osc.radii, chain)
    assert np.allclose(osc.omega, 2.0 * np.asarray(chain), rtol=1e-9)
    assert osc.monotone
    assert np.all(osc.pair_ok)
    with pytest.raises(DomainError):
        oscillation_curve(us[:3], fields, chain, 0.5, 0.5,
                          lambda r: 10.0, 0.0)


def test_oscillation_paraboloid_with_rhs(paraboloid_setup):
    s = paraboloid_setup
    chain = [0.24 * 0.5 ** k for k in range(4)]
    osc = oscillation_curve(
        [s["u"]] * 4, [s["field"]] * 4, chain, 0.5, 0.5,
        lambda r: log_c_har(0.5 * r, 0.08 * r, 2.0), s["f_rhs"])
    assert osc.monotone
    assert np.all(osc.pair_ok)


# ------------------------------------------------------------------ shifts

def test_shift_m_conventions():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert shift_m(u, 0.0, 0.1) == 1e-6 * 4.0          # f = 0 floor
    assert shift_m(u, 2.5, 0.1) == 0.1 ** 2 * 2.5      # r^2 ||f||_inf
    f = np.array([[0.0, -3.0], [1.0, 0.0]])
    assert shift_m(u, f, 0.2) == 0.2 ** 2 * 3.0
