"""Accumulating cutoff sequences, special cutoff, Q-gradient."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EPS_FINE, traced_grid_peak
from subunit_lab.cutoff import (build_sequence, build_special_cutoff,
                                cutoff_radii, q_gradient)
from subunit_lab.errors import DomainError, GeometryError
from subunit_lab.forms import assemble_form
from subunit_lab.geometry import volume_curve
from subunit_lab.metric import ball, solve_distance


def seq_delta(field, r, nu):
    """Measured non-doubling increment at nu*r for this field."""
    sv = np.sort(field.values[np.isfinite(field.values)].ravel())
    r_lo = max(float(sv[25]) * 1.01, r / 8.0)
    radii = list(np.geomspace(min(r_lo, nu * r), min(2.0 * r, 0.45), 16))
    radii.append(nu * r)
    return volume_curve(field, set(radii)).delta_at(nu * r)


def test_radii_closed_form_matches_term_by_term():
    # nu = 1/2, r = 1, delta = 0.1: r_1 = 0.95, r_2 = 0.905, tail -> 0.5
    radii = cutoff_radii(1.0, 0.5, 0.1, 12)
    assert math.isclose(radii[0], 0.95)
    assert math.isclose(radii[1], 0.905)
    # term-by-term accumulation of the series as the oracle
    acc = 0.0
    q = 1.0 - 0.1 / 1.0
    for j, rj in enumerate(radii, start=1):
        acc = sum((1.0 - 0.5) * 0.1 * q ** i for i in range(j))
        assert math.isclose(rj, 1.0 - acc, rel_tol=1e-12)
    assert radii[-1] > 0.5


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
@example(nu=0.5, frac=0.984375)
def test_radii_strictly_decreasing_to_nu_r(nu, frac):
    r = 0.8
    delta = frac * r
    radii = cutoff_radii(r, nu, delta, 12)
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(rj > nu * r - 1e-12 for rj in radii)


def test_radii_delta_equals_r_collapses_in_one_step():
    radii = cutoff_radii(1.0, 0.5, 1.0, 12)
    assert math.isclose(radii[0], 0.5)    # r_1 = nu r immediately
    assert len(radii) <= 2                # terminates early, still valid


def test_radii_input_validation():
    with pytest.raises(DomainError):
        cutoff_radii(1.0, 1.2, 0.1, 12)
    with pytest.raises(DomainError):
        cutoff_radii(1.0, 0.5, 1.5, 12)


def test_q_gradient_constant_is_zero(grushin_form):
    w = np.full(grushin_form.grid.shape, 3.7)
    assert np.all(q_gradient(grushin_form, w) == 0.0)


def test_q_gradient_grushin_linear_in_y(grushin_form):
    # w = y: [grad w]_Q = |x| exactly at interior nodes
    g = grushin_form.grid
    X, Y = g.meshgrid()
    gv = q_gradient(grushin_form, Y)
    inner = (slice(1, -1), slice(1, -1))
    assert np.allclose(gv[inner], np.abs(X)[inner], atol=1e-12)


def test_q_gradient_shape_check(grushin_form):
    with pytest.raises(DomainError):
        q_gradient(grushin_form, np.zeros((3, 3)))


def test_sequence_properties_euclidean(euclid_field, euclid_form):
    r, nu = 0.3, 0.5
    delta = seq_delta(euclid_field, r, nu)
    seq = build_sequence(euclid_field, euclid_form, r, nu, delta, 8)
    ball_r = ball(euclid_field, r)
    plateau_core = ball(euclid_field, nu * r)
    for j in range(len(seq.supports)):
        psi = seq.member(j)
        assert not np.any(seq.supports[j] & ~ball_r)          # E_j in B(y,r)
        assert np.all(psi[plateau_core] == 1.0)               # plateau
        if j + 1 < len(seq.supports):
            assert np.all(psi[seq.supports[j + 1]] == 1.0)    # nesting
    assert seq.support_ratio < 4.0
    assert seq.grad_envelope < 10.0


def test_sequence_gradient_tracks_ramp_slope(euclid_field, euclid_form):
    # Euclidean: [grad d]_Q ~ 1, so grad bound ~ ramp slope (within 2x)
    r, nu = 0.3, 0.5
    delta = seq_delta(euclid_field, r, nu)
    seq = build_sequence(euclid_field, euclid_form, r, nu, delta, 8)
    h = euclid_form.grid.hx
    for j in range(len(seq.supports)):
        width = seq.radii[j] - seq.radii[j + 1]
        if width < 3.0 * h:
            break                          # sub-cell ramps saturate at 1/h
        slope = 1.0 / width
        assert 0.5 * slope <= seq.grad_bounds[j] <= 2.0 * slope


def test_sequence_gradient_envelope_bounded_in_j(grushin_field_off_axis,
                                                 grushin_form):
    r, nu = 0.2, 0.5
    delta = seq_delta(grushin_field_off_axis, r, nu)
    seq = build_sequence(grushin_field_off_axis, grushin_form, r, nu, delta, 12)
    q = 1.0 - delta / r
    for j, g in enumerate(seq.grad_bounds):
        envelope = seq.grad_envelope / ((1.0 - nu) * delta * q ** (j + 1))
        assert g <= envelope + 1e-9


def test_sequence_support_ratio_stable_under_refinement(grushin_profile):
    from subunit_lab.forms import assemble_form
    from subunit_lab.grid import GridSpec
    from subunit_lab.metric import solve_distance
    ratios = []
    for n in (129, 257):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
        form = assemble_form(grushin_profile, g)
        f = solve_distance(form, g.nearest_node(0.2, 0.0), 1e-3)
        delta = seq_delta(f, 0.2, 0.5)
        seq = build_sequence(f, form, 0.2, 0.5, delta, 8)
        ratios.append(seq.support_ratio)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.20


def _reference_build_sequence(field, form, r, nu, delta, j_max):
    """The sequence built the plain way, every member kept side by side
    and checked in a second pass: the reference the one-pass construction
    must match byte for byte.  Returns (radii, psis, supports,
    grad_bounds, support_ratio, grad_envelope)."""
    radii = cutoff_radii(r, nu, delta, j_max)
    if field.values[field.source] != 0.0:
        raise GeometryError("field does not vanish at its source")
    d = field.values
    q = 1.0 - delta / r
    psis, supports, grads = [], [], []
    for j in range(len(radii) - 1):
        r_out, r_in = radii[j], radii[j + 1]
        width = r_out - r_in
        if width <= 0:
            break
        psi = np.clip((r_out - d) / width, 0.0, 1.0)
        psis.append(psi)
        supports.append(psi > 0.0)
        grads.append(float(q_gradient(form, psi).max()))
    if not psis:
        raise GeometryError("no usable cutoff members (delta too close to r)")
    ball_r = ball(field, r)
    plateau_core = ball(field, nu * r)
    for j, psi in enumerate(psis):
        if np.any(supports[j] & ~ball_r):
            raise GeometryError(f"support of psi_{j+1} leaves B(center, r)")
        if not np.all(psi[plateau_core] == 1.0):
            raise GeometryError(f"psi_{j+1} not 1 on B(center, nu r)")
        if j + 1 < len(psis) and np.any(supports[j + 1] & ~(psi == 1.0)):
            raise GeometryError(f"E_{j+2} not inside the plateau of psi_{j+1}")
    counts = np.array([int(m.sum()) for m in supports], dtype=float)
    if np.any(counts == 0):
        raise GeometryError("empty cutoff support")
    ratio = float(np.max(counts[:-1] / counts[1:])) if len(counts) > 1 else 1.0
    envelope = max(g * (1.0 - nu) * delta * q ** (j + 1)
                   for j, g in enumerate(grads))
    return radii, psis, supports, grads, ratio, float(envelope)


def _floats(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("field_name, r, j_max", [
    ("euclid_field", 0.3, 8),
    ("grushin_field_off_axis", 0.2, 12),
    ("paper_field_origin", 0.2, 12),
    ("grushin_field_off_axis", 0.2, 1),
], ids=["euclidean", "grushin-off-axis", "paper-model", "one-member"])
def test_sequence_matches_reference_bytes(request, field_name, r, j_max):
    field = request.getfixturevalue(field_name)
    form = request.getfixturevalue(field_name.split("_")[0] + "_form")
    delta = seq_delta(field, r, 0.5)
    radii, psis, supports, grads, ratio, envelope = \
        _reference_build_sequence(field, form, r, 0.5, delta, j_max)
    seq = build_sequence(field, form, r, 0.5, delta, j_max)
    assert len(seq.supports) == len(psis) == (1 if j_max == 1 else j_max)
    assert _floats(seq.radii) == _floats(radii)
    assert _floats(seq.grad_bounds) == _floats(grads)
    assert _floats(seq.support_ratio) == _floats(ratio)
    assert _floats(seq.grad_envelope) == _floats(envelope)
    for j, psi in enumerate(psis):
        assert seq.supports[j].tobytes() == supports[j].tobytes()
        member = seq.member(j)
        assert member.dtype == psi.dtype and member.shape == psi.shape
        assert member.tobytes() == psi.tobytes()


def test_sequence_no_usable_member_matches_reference(euclid_field,
                                                     euclid_form):
    # delta = r puts r_1 at nu r at once: the recursion has one radius
    with pytest.raises(GeometryError) as ref:
        _reference_build_sequence(euclid_field, euclid_form, 0.3, 0.5, 0.3, 12)
    with pytest.raises(GeometryError) as new:
        build_sequence(euclid_field, euclid_form, 0.3, 0.5, 0.3, 12)
    assert str(new.value) == str(ref.value)
    assert "no usable cutoff members" in str(new.value)


def test_q_gradient_memory_ceiling(grid129, grushin_profile):
    # the squares and their sum are formed in place: the call reads 3.98
    # grid arrays at its peak (np.gradient's result and two temporaries,
    # and the other direction's squared gradient), against 5.0 with a
    # new array for every product and the sum
    form = assemble_form(grushin_profile, grid129)
    X, Y = grid129.meshgrid()
    w = np.sin(3.0 * X) * np.cos(2.0 * Y)
    g, peak = traced_grid_peak(grid129.shape, q_gradient, form, w)
    gx = np.gradient(w, grid129.hx, axis=0)
    gy = np.gradient(w, grid129.hy, axis=1)
    assert g.tobytes() == np.sqrt(gx * gx + form.q22 * gy * gy).tobytes()
    assert peak <= 4.5, peak


def test_sequence_memory_ceiling(grid129, grushin_profile):
    # one member at a time: at j_max 12 the peak reads 6.9 grid arrays
    # (the q-gradient's temporaries, one member, its plateau and twelve
    # boolean supports) against 18.6 with every member kept, and 7.9 with
    # a new array for each q-gradient term; from j_max 4 to 12 it grows by
    # 1.0 (eight more supports), against 9.0
    form = assemble_form(grushin_profile, grid129)
    field = solve_distance(form, grid129.nearest_node(0.2, 0.0), EPS_FINE)
    peaks = {}
    for j_max in (4, 12):
        seq, peaks[j_max] = traced_grid_peak(
            grid129.shape, build_sequence, field, form, 0.2, 0.5, 0.04, j_max)
        assert len(seq.supports) == j_max
    assert peaks[12] <= 7.5, peaks
    assert peaks[12] - peaks[4] <= 1.5, peaks


def test_special_cutoff_euclidean_window(euclid_field, euclid_form):
    # eta chosen so the margin rule passes on this small domain
    r, delta = 0.2, 0.05
    sp = build_special_cutoff(euclid_field, euclid_form, r, delta, eta=0.6)
    eu = euclid_field.grid.euclid_from(euclid_field.source)
    cell = math.hypot(euclid_field.grid.hx, euclid_field.grid.hy)
    assert not np.any(sp.support & (eu > r + delta + cell))
    assert np.all(sp.phi[eu < r + delta / 2.0 - cell] == 1.0)
    slope = 2.0 / delta
    assert sp.grad_bound <= math.sqrt(2.0) * slope * 1.2


def test_special_cutoff_grushin_gradient_constant(grushin_field_off_axis,
                                                  grushin_form):
    r, delta = 0.2, 0.04
    sp = build_special_cutoff(grushin_field_off_axis, grushin_form, r, delta,
                              eta=0.9)
    # [grad phi_r]_Q <= sqrt(n) * ramp slope, n = 2
    assert sp.grad_bound <= math.sqrt(2.0) * (2.0 / delta) * 1.2
    assert sp.grad_constant <= 2.0 * math.sqrt(2.0) * 1.2


def test_special_cutoff_margin_error(euclid_field, euclid_form):
    with pytest.raises(GeometryError):
        build_special_cutoff(euclid_field, euclid_form, 0.2, 0.2, eta=0.25)


def test_special_cutoff_properties_exact_on_shared_field(grushin_field_origin,
                                                         grushin_form):
    r, delta = 0.2, 0.03
    sp = build_special_cutoff(grushin_field_origin, grushin_form, r, delta,
                              eta=0.6)
    d = grushin_field_origin.values
    assert not np.any(sp.support & ~(d < r + delta))
    assert np.all(sp.phi[d < r + delta / 2.0] == 1.0)
