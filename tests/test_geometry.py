"""Ball analytics: volumes, non-doubling order, growth condition, boxes."""

import math

import numpy as np
import pytest

from subunit_lab import geometry
from subunit_lab.errors import (DomainError, GeometryError, RangeError,
                                ResolutionError)
from subunit_lab.forms import DegeneracyProfile, eval_h
from subunit_lab.geometry import (box_ball, box_sandwich, containment_check,
                                  doubling_classification, fill_delta_curve,
                                  growth_condition_check, nondoubling_order,
                                  volume_curve)
from subunit_lab.grid import GridSpec
from subunit_lab.metric import DistanceField, solve_distance


def test_euclidean_area_law(euclid_field):
    radii = [0.1, 0.15, 0.2, 0.3]
    analytics = volume_curve(euclid_field, radii)
    for r, v in zip(analytics.radii, analytics.volumes):
        assert abs(v - math.pi * r * r) / (math.pi * r * r) < 0.05
    assert np.all(np.diff(analytics.volumes) > 0)


def test_grushin_volume_in_box_bracket(grushin_field_origin):
    # r^2/8 f(r/2) <= |B_r| <= 4 r^2 f(r/2) with f(r/2) = r/2:
    # bracket [r^3/16, 2 r^3]
    radii = [0.15, 0.2, 0.3, 0.4]
    analytics = volume_curve(grushin_field_origin, radii)
    for r, v in zip(analytics.radii, analytics.volumes):
        assert r ** 3 / 16.0 <= v <= 2.0 * r ** 3


def test_grushin_axis_delta_matches_dilation_law(grushin_field_origin):
    # (x, y) -> (lam x, lam^2 y) maps B(0, r) onto B(0, lam r), so
    # |B(0, r)| ~ r^3 and delta(r)/r = 1.25^(1/3) - 1 at every r; a
    # node-count volume steps whole rows at once on the axis and misses it
    want = 1.25 ** (1.0 / 3.0) - 1.0
    radii = list(np.geomspace(0.1, 0.45, 16)) + [0.17, 0.25]
    analytics = volume_curve(grushin_field_origin, radii)
    for r in (0.17, 0.25):
        d, capped, _ = nondoubling_order(analytics, r, 2.0)
        assert not capped
        assert abs(d / r - want) <= 0.1 * want


def test_resolution_floor_raises(euclid_field):
    h = euclid_field.grid.hx
    with pytest.raises(ResolutionError):
        volume_curve(euclid_field, [1.5 * h])


def test_euclidean_delta_proportional_to_r(euclid_field):
    # area law: |B(r+d)|/|B(r)| = 5/4 at d = (sqrt(5)/2 - 1) r = 0.118 r
    radii = list(np.geomspace(0.08, 0.42, 18))
    analytics = volume_curve(euclid_field, radii)
    fill_delta_curve(analytics, C=2.0)
    want = math.sqrt(1.25) - 1.0
    for r in (0.12, 0.2, 0.3):
        d, capped, _ = nondoubling_order(analytics, r, 2.0)
        assert not capped
        assert abs(d / r - want) < 0.25 * want
    doubling, slope = doubling_classification(analytics)
    assert doubling                      # delta ~ r: flat slope, doubling band
    assert abs(slope) < 0.3


def test_nondoubling_order_range_error(euclid_field):
    radii = [0.1, 0.15, 0.2]
    analytics = volume_curve(euclid_field, radii)
    with pytest.raises(RangeError):
        nondoubling_order(analytics, 0.9, 2.0)


def test_constant_volume_plateau_capped_or_range_error(euclid_field):
    # degenerate test input: nodes beyond 0.05 unreachable, so the volume
    # curve is frozen at |B(0.05)| over the whole measured band
    plateau = DistanceField(
        grid=euclid_field.grid, source=euclid_field.source,
        epsilon=euclid_field.epsilon,
        values=np.where(euclid_field.values < 0.05, euclid_field.values,
                        np.inf))
    radii = [0.1, 0.15, 0.2]
    analytics = volume_curve(plateau, radii)
    assert analytics.volumes[0] == analytics.volumes[-1]
    with pytest.raises(RangeError):
        nondoubling_order(analytics, 0.1, 2.0)


def test_volume_beyond_reach_raises(grushin_form):
    # a bounded march leaves out the triangles beyond its reach, so
    # volumes and node counts past it are refused, not underestimated
    full = solve_distance(grushin_form, (128, 128), 1e-3)
    field = solve_distance(grushin_form, (128, 128), 1e-3, 0.2)
    bounded, unbounded = (geometry.VolumeFunction(f) for f in (field, full))
    for s in (0.05, 0.13, 0.2):
        assert bounded(s) == unbounded(s)
        assert bounded.count(s) == unbounded.count(s)
    with pytest.raises(RangeError, match="reach"):
        bounded(0.2000001)
    with pytest.raises(RangeError, match="reach"):
        bounded.count(np.array([0.1, 0.25]))


def _thin_triangle_field(width):
    # rows 0-1 at 0.5 but node (1, 1), which sits width higher, so the two
    # triangles between rows 0 and 1 at that node are width wide; row 2
    # at 1.5 closes their triangles and rows 3-5 lie far beyond
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 6, 4)
    d = np.full(g.shape, 100.0)
    d[:2] = 0.5
    d[1, 1] += width
    d[2] = 1.5
    return DistanceField(grid=g, source=(0, 0), epsilon=0.0, values=d)


def test_bounded_and_full_field_classify_a_thin_triangle_alike():
    # a bounded march leaves +inf beyond the reach, past row 2.  The two
    # triangles at node (1, 1) are 1e-3 wide: not flat on their own scale,
    # 1e-4, but flat on the full field's largest value, 1e-4 times 100
    full = _thin_triangle_field(1e-3)
    g, d = full.grid, full.values
    bounded = DistanceField(grid=g, source=(0, 0), epsilon=0.0, reach=1.0,
                            values=np.where(d < 2.0, d, np.inf))
    vb, vf = (geometry.VolumeFunction(f) for f in (bounded, full))
    below = np.count_nonzero(vb.breaks < bounded.reach)
    assert vb.breaks[:below].tobytes() == vf.breaks[:below].tobytes()
    assert vb.coeffs[:below].tobytes() == vf.coeffs[:below].tobytes()
    for s in (0.5, 0.5 + 3e-4, 0.5 + 7e-4, 0.75, 1.0):
        assert vb(s) == vf(s), s


@pytest.mark.parametrize("width", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8,
                                   1e-7, 1e-6])
def test_thin_triangle_keeps_larger_volumes_exact(width):
    # moving one node by width moves every ball volume by O(width) only;
    # quadratic pieces of width 1e-8 used to read |B(0.75)| = 0.445 for
    # the 0.25 of the flat field, and of width 1e-13, 1.07e9
    exact = geometry.VolumeFunction(_thin_triangle_field(0.0))
    measure = geometry.VolumeFunction(_thin_triangle_field(width))
    for s, volume in ((0.75, 0.25), (1.0, 0.3), (1.4, 0.38)):
        assert exact(s) == pytest.approx(volume, abs=1e-15)
        assert abs(measure(s) - volume) <= width, s


def test_upper_window_calibrates_C(grushin_field_origin):
    radii = list(np.geomspace(0.1, 0.45, 16))
    analytics = volume_curve(grushin_field_origin, radii)
    fill_delta_curve(analytics, C=1.001)
    # the 5/4 jump cannot exceed 2C once C is calibrated
    for r in (0.15, 0.25):
        d, capped, C_used = nondoubling_order(analytics, r,
                                              analytics.C_doubling)
        ratio = analytics.measure(r + d) / analytics.measure(r)
        assert ratio >= 1.25 - 1e-9
        assert ratio <= 2.0 * C_used + 1e-9


def test_window_invariant_on_fresh_radii(grushin_field_origin):
    # post-hoc check on radii not used by the bisection
    radii = list(np.geomspace(0.1, 0.45, 16))
    analytics = volume_curve(grushin_field_origin, radii)
    fill_delta_curve(analytics, C=2.0)
    C = analytics.C_doubling
    for r in (0.13, 0.21, 0.34):
        d, capped, _ = nondoubling_order(analytics, r, C)
        if capped:
            continue
        ratio = analytics.measure(r + d) / analytics.measure(r)
        assert 1.25 - 1e-9 <= ratio <= 2.0 * C * 1.05


def test_growth_condition_paper_delta_law():
    # delta(r) = r h(r/2) with the paper h and lambda = 9: g increases
    radii = np.array([0.5 * 2.0 ** (-k) for k in range(9)])
    deltas = np.array([r * eval_h(r / 2.0, 9.0) for r in radii])
    rep = growth_condition_check(radii, deltas, 9.0, 2.0)
    assert rep.increasing
    assert np.all(np.diff(rep.log_g) > 0)       # strictly, not just in thirds
    assert np.all(rep.g_values > 0)


def test_growth_condition_power_delta_fails():
    # delta(r) = r^2: the inner factor dies too fast; g stays bounded
    radii = np.array([0.5 * 2.0 ** (-k) for k in range(9)])
    deltas = radii ** 2
    rep = growth_condition_check(radii, deltas, 9.0, 2.0)
    assert not rep.increasing

    import sympy
    r, lam, C = sympy.symbols("r lam C", positive=True)
    g = sympy.log(r) * sympy.log(1 - sympy.exp(-(r / r ** 2) ** 9) / (2 * 2))
    limit = sympy.limit(g, r, 0, dir="+")
    assert limit == 0                            # bounded, not -> +infinity


def test_growth_condition_half_r_doubling_trivially_increasing():
    # delta = r/2: constant inner factor < 1, g -> +inf like |ln r|
    radii = np.array([0.5 * 2.0 ** (-k) for k in range(9)])
    rep = growth_condition_check(radii, radii / 2.0, 9.0, 2.0)
    assert rep.increasing


def test_growth_condition_input_validation():
    radii = np.array([0.5, 0.25, 0.125])
    with pytest.raises(DomainError):
        growth_condition_check(radii[::-1], radii[::-1] / 2, 9.0, 2.0)
    with pytest.raises(DomainError):
        growth_condition_check(radii, np.zeros(3), 9.0, 2.0)


def test_box_sandwich_euclidean(euclid_field, euclid_profile):
    for r in (0.2, 0.3, 0.4):
        rep = box_sandwich(euclid_field, r, euclid_profile)
        assert rep.inner_checked > 0
        assert rep.inner_violations == 0
        assert rep.outer_violations == 0


def test_box_sandwich_grushin(grushin_field_origin, grushin_profile):
    for r in (0.2, 0.4):
        rep = box_sandwich(grushin_field_origin, r, grushin_profile)
        assert rep.inner_violations == 0
        assert rep.outer_violations == 0


def test_box_sandwich_requires_axis_center(grushin_field_off_axis,
                                           grushin_profile):
    with pytest.raises(DomainError):
        box_sandwich(grushin_field_off_axis, 0.2, grushin_profile)


def test_containment_euclidean_alpha_equals_r(euclid_field):
    radii = [0.15, 0.25, 0.35]
    rep = containment_check(euclid_field, radii)
    assert rep.ok
    for r, a in zip(rep.radii, rep.alphas):
        # eps-regularized field: alpha = r/sqrt(1+eps^2) up to a cell
        assert abs(a - r) < 2.5 * euclid_field.grid.hx


def test_containment_grushin_alpha_scale(grushin_field_origin,
                                         grushin_profile):
    radii = [0.2, 0.3, 0.4]
    rep = containment_check(grushin_field_origin, radii)
    assert rep.ok
    for r, a in zip(rep.radii, rep.alphas):
        scale = 0.5 * r * grushin_profile.value(r / 2.0)
        assert 0.2 * scale < a < 2.0 * scale


def test_containment_alpha_inflates_with_epsilon(grushin_form):
    radii = [0.25]
    alphas = []
    for eps in (0.3, 0.15, 0.05):
        f = solve_distance(grushin_form, (128, 128), eps)
        alphas.append(containment_check(f, radii).alphas[0])
    assert alphas[0] >= alphas[1] >= alphas[2]


def test_volume_curve_monotone_everywhere(paper_field_origin):
    radii = list(np.geomspace(0.12, 0.4, 12))
    analytics = volume_curve(paper_field_origin, radii)
    assert np.all(np.diff(analytics.volumes) >= 0)
    assert np.all(analytics.volumes > 0)


def test_box_ball_on_axis_is_dilation_invariant(grid257, grushin_profile):
    # (x, y) -> (lam x, lam^2 y) with eps ~ rho maps the box problem of
    # radius rho onto that of radius lam rho: same nodes, distances scaled
    # up to the eps^2 in the x-coefficient 1 + eps^2, which does not scale
    fields = [box_ball(grushin_profile, (0.0, 0.0), rho, 0.2, 0.0125, 41,
                       grid257) for rho in (0.2, 0.1)]
    masks = [f.values < rho for f, rho in zip(fields, (0.2, 0.1))]
    assert masks[0].sum() >= geometry.MIN_BALL_NODES
    assert np.array_equal(masks[0], masks[1])
    assert np.allclose(fields[1].values, 0.5 * fields[0].values,
                       rtol=0.0125 ** 2, atol=0.0)


def test_box_ball_off_axis_holds_a_resolved_ball(grid257, grushin_profile):
    field = box_ball(grushin_profile, (0.15, 0.0), 0.02, 0.13, 0.0125, 41,
                     grid257)
    assert np.count_nonzero(field.values < 0.02) >= geometry.MIN_BALL_NODES


def test_box_ball_errors(grid257, grushin_profile, euclid_profile):
    with pytest.raises(GeometryError):          # box leaves the domain
        box_ball(grushin_profile, (0.4, 0.0), 0.2, 0.2, 0.0125, 41, grid257)
    with pytest.raises(GeometryError):          # x-speed sqrt(1 + eps^2)
        box_ball(euclid_profile, (0.0, 0.0), 0.2, 0.2, 1.0, 41, grid257)
    with pytest.raises(DomainError):            # center must be a node
        box_ball(euclid_profile, (0.0, 0.0), 0.2, 0.2, 0.0125, 40, grid257)
    with pytest.raises(ResolutionError):        # nothing inside the collar
        box_ball(euclid_profile, (0.0, 0.0), 0.2, 0.2, 0.0125, 9, grid257)


def test_bilinear_exact_on_bilinear_functions(grid129):
    X, Y = grid129.meshgrid()
    v = 1.0 + 2.0 * X - 3.0 * Y + 0.5 * X * Y
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(2, 50))
    out, err = grid129.bilinear(v, pts[0], pts[1])
    want = 1.0 + 2.0 * pts[0] - 3.0 * pts[1] + 0.5 * pts[0] * pts[1]
    assert np.allclose(out, want, atol=1e-13)
    assert err < 1e-13
    _, err_curved = grid129.bilinear(X ** 2, pts[0], pts[1])
    assert math.isclose(err_curved, grid129.hx ** 2 / 4.0, rel_tol=1e-9)
    with pytest.raises(DomainError):
        grid129.bilinear(v, np.array([0.6]), np.array([0.0]))
