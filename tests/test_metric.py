"""Subunit distance fields: eikonal solve, eps ladder, balls."""

import heapq
import json
import math
import os

import numpy as np
import pytest
from conftest import read_npz

from subunit_lab import metric
from subunit_lab.config import ExperimentConfig
from subunit_lab.errors import (ConfigError, DomainError, MonotonicityError,
                                RangeError)
from subunit_lab.forms import DegeneracyProfile, assemble_form
from subunit_lab.grid import GridSpec
from subunit_lab.metric import (DistanceField, ball, solve_distance,
                                solve_ladder)
from subunit_lab.pipeline import build_form, metric_stage, run_experiment

PAPER_4BALLS = os.path.join(os.path.dirname(__file__), "..", "bench",
                            "workloads", "paper-4balls.json")


def _reference_solve_distance(form, source, epsilon):
    """Straightforward fast marching with numpy-scalar indexing and explicit
    bounds checks: the reference the list-based kernel must match bit for
    bit (same operations in the same order, same tie-breaking)."""
    nx, ny = form.grid.shape
    hx, hy = form.grid.hx, form.grid.hy
    e2 = epsilon * epsilon
    alpha = (form.q11 + e2).ravel()
    beta = (form.q22 + e2).ravel()
    values = np.full(nx * ny, np.inf)
    frozen = np.zeros(nx * ny, dtype=bool)
    src = source[0] * ny + source[1]
    values[src] = 0.0
    heap = [(0.0, src)]
    inf = math.inf
    while heap:
        _, idx = heapq.heappop(heap)
        if frozen[idx]:
            continue
        frozen[idx] = True
        i, j = divmod(idx, ny)
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ii, jj = i + di, j + dj
            if not (0 <= ii < nx and 0 <= jj < ny):
                continue
            nb = ii * ny + jj
            if frozen[nb]:
                continue
            a = inf
            if ii > 0 and frozen[nb - ny]:
                a = values[nb - ny]
            if ii < nx - 1 and frozen[nb + ny]:
                a = min(a, values[nb + ny])
            b = inf
            if jj > 0 and frozen[nb - 1]:
                b = values[nb - 1]
            if jj < ny - 1 and frozen[nb + 1]:
                b = min(b, values[nb + 1])
            A = alpha[nb] / (hx * hx)
            B = beta[nb] / (hy * hy)
            u = inf
            if a < inf and b < inf:
                S = A + B
                P = A * a + B * b
                disc = P * P - S * (A * a * a + B * b * b - 1.0)
                if disc >= 0.0:
                    cand = (P + math.sqrt(disc)) / S
                    if cand >= a and cand >= b:
                        u = cand
            if u == inf:
                if a < inf:
                    u = a + hx / math.sqrt(alpha[nb])
                if b < inf:
                    u = min(u, b + hy / math.sqrt(beta[nb]))
            if u < values[nb]:
                values[nb] = u
                heapq.heappush(heap, (u, nb))
    return values.reshape(nx, ny)


@pytest.mark.parametrize("kind,param", [("power", 1.0), ("exponential", 0.1),
                                        ("paper_model", 9.0)])
@pytest.mark.parametrize("nx,ny", [(33, 33), (41, 23)])
def test_kernel_matches_reference_bytes(kind, param, nx, ny):
    # a non-square grid catches a wrong padded row stride; edge and corner
    # sources put the sentinel ring next to the first frozen nodes
    form = assemble_form(DegeneracyProfile(kind, param),
                         GridSpec(-0.5, 0.5, -0.5, 0.5, nx, ny))
    sources = [(nx // 2, ny // 2), (0, ny // 2), (0, 0), (nx - 1, ny - 1)]
    for source in sources:
        for eps in (0.1, 0.05, 0.025, 0.0125):
            got = solve_distance(form, source, eps).values
            want = _reference_solve_distance(form, source, eps)
            assert got.tobytes() == want.tobytes(), (source, eps)


def test_source_distance_exact_zero(euclid_field):
    assert euclid_field.values[euclid_field.source] == 0.0


def test_epsilon_zero_rejected(euclid_form):
    with pytest.raises(ConfigError):
        solve_distance(euclid_form, (10, 10), 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_epsilon_non_finite_rejected(euclid_form, eps):
    with pytest.raises(ConfigError):
        solve_distance(euclid_form, (10, 10), eps)


def test_source_outside_grid_rejected(euclid_form):
    with pytest.raises(DomainError):
        solve_distance(euclid_form, (500, 10), 0.1)


def _slack(field):
    """Discretization slack declared for the field's grid (first-order
    scheme)."""
    return 2.0 * max(field.grid.hx, field.grid.hy)


def test_euclidean_identity(euclid_field):
    # d((0,0),(0.3,0.4)) = 0.5 up to grid error and the tiny eps inflation
    g = euclid_field.grid
    node = g.nearest_node(0.3, 0.4)
    assert abs(euclid_field.values[node] - 0.5) < 2.0 * _slack(euclid_field)


def test_euclidean_lower_bound(euclid_field):
    # subunit distance dominates Euclidean distance (C = 1), up to slack
    g = euclid_field.grid
    eu = g.euclid_from(euclid_field.source)
    slack = _slack(euclid_field)
    assert np.all(euclid_field.values >= eu / math.sqrt(1 + 1e-6) - slack)


def test_grushin_vertical_distance_against_oracles(grushin_field_origin):
    """Vertical Grushin displacement from the origin: the exact distance is
    sqrt(2 pi |y|), where the geodesics x = t sin(th)/th, y = t^2 (2 th -
    sin 2th)/(4 th^2) return to the axis at th = pi.  The solver must sit
    within 3% of it and above the 2 sqrt(|y|) floor.  Closer to the source
    the sqrt(|y|) cusp on the axis is under-resolved at 257^2 (+2.2% at
    y = 0.1, +3.2% at y = 0.05), so those points are left out."""
    g = grushin_field_origin.grid
    for y in (0.15, 0.2, 0.3, -0.2):
        node = g.nearest_node(0.0, y)
        y_node = abs(g.node_xy(node)[1])
        d_fmm = grushin_field_origin.values[node]
        exact = math.sqrt(2.0 * math.pi * y_node)
        assert abs(d_fmm - exact) / exact < 0.03, y
        assert d_fmm > 2.0 * math.sqrt(y_node), y


@pytest.mark.parametrize("kind,param", [("constant", 1.0), ("power", 1.0),
                                        ("paper_model", 9.0),
                                        ("exponential", 0.1)])
def test_epsilon_monotonicity_nodewise(grid129, kind, param):
    # `run` measures on eps_min alone; the eps-monotone invariant of the
    # configs' ladder (the one `dist` writes) is asserted here, on and off
    # the degenerate axis, besides the check solve_ladder runs itself
    form = assemble_form(DegeneracyProfile(kind, param), grid129)
    for source in (grid129.nearest_node(0.0, 0.0),
                   grid129.nearest_node(0.2, 0.1)):
        fields = solve_ladder(form, source, [0.1, 0.05, 0.025, 0.0125])
        for f1, f2 in zip(fields, fields[1:]):
            assert f2.epsilon < f1.epsilon
            assert np.all(f2.values >= f1.values - 1e-9)


def _reach_nodes(d, reach):
    """Nodes of every grid triangle with a vertex below reach; each cell
    splits along its (i, j)-(i+1, j+1) diagonal, as VolumeFunction's."""
    below = d < reach
    out = np.zeros_like(below)
    p00 = (slice(None, -1), slice(None, -1))
    p10 = (slice(1, None), slice(None, -1))
    p01 = (slice(None, -1), slice(1, None))
    p11 = (slice(1, None), slice(1, None))
    for tri in ((p00, p10, p11), (p00, p01, p11)):
        touch = below[tri[0]] | below[tri[1]] | below[tri[2]]
        for vertex in tri:
            out[vertex] |= touch
    return out


def _assert_bounded_march(field, full):
    # bit for bit the full march on every finite node, finite on every
    # node of a triangle touching {full < reach}, +inf everywhere else
    fin = np.isfinite(field.values)
    assert field.values[fin].tobytes() == full[fin].tobytes()
    assert np.array_equal(fin, _reach_nodes(full, field.reach))
    assert np.all(field.values[~fin] == np.inf)


@pytest.mark.parametrize("kind,param", [("power", 1.0), ("paper_model", 9.0)])
def test_bounded_march_stops_at_reach(kind, param):
    # reaches inside the first step, mid-grid and past every node; edge
    # and corner sources put the sentinel ring inside the reach
    nx, ny = 41, 23
    form = assemble_form(DegeneracyProfile(kind, param),
                         GridSpec(-0.5, 0.5, -0.5, 0.5, nx, ny))
    for source in [(nx // 2, ny // 2), (0, ny // 2), (nx - 1, ny - 1)]:
        full = _reference_solve_distance(form, source, 0.05)
        for reach in (1e-3, 0.2, 0.45, 10.0):
            field = solve_distance(form, source, 0.05, reach)
            assert field.reach == reach
            _assert_bounded_march(field, full)
        assert np.isfinite(field.values).all()


def test_metric_stage_field_is_finest_ladder_rung():
    # the one solve metric_stage makes is the ladder's finest rung, marched
    # as far as the later stages read, for every ball of the paper-model
    # workload (on 65^2); solve_ladder marches the whole grid
    with open(PAPER_4BALLS) as fh:
        raw = json.load(fh)
    raw["grid"].update(nx=65, ny=65)
    cfg = ExperimentConfig.from_dict(raw)
    form = build_form(cfg)
    for spec in cfg.balls:
        section, field = metric_stage(cfg, form, spec)
        source = form.grid.nearest_node(*spec.center)
        rung = solve_ladder(form, source, cfg.epsilon_ladder())[-1]
        assert np.isfinite(rung.values).all()
        _assert_bounded_march(field, rung.values)
        assert not np.isfinite(field.values).all(), spec.center
        assert field.epsilon == rung.epsilon == section["eps_min"]
        assert field.source == rung.source


GRUSHIN_256 = os.path.join(os.path.dirname(__file__), "..", "src",
                           "subunit_lab", "configs", "grushin-box-256.json")


def _edge_balls_config():
    # balls the grid cannot measure: one centred on the boundary (margin
    # 0) and smaller than a cell, one whose r exceeds twice its margin and
    # whose volume band holds no dyadic radius, so containment reads B(r)
    # before the skip
    with open(GRUSHIN_256) as fh:
        raw = json.load(fh)
    raw["grid"].update(nx=257, ny=257)
    raw["balls"] = [{"center": [0.5, 0.0], "r": 0.001},
                    {"center": [0.5 - 0.0245, 0.0], "r": 0.2}]
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("name", ["paper-4balls", "edge-balls"])
def test_run_with_full_marches_writes_the_same_outputs(tmp_path, monkeypatch,
                                                       name):
    # bounded marches change nothing a run reports: with every march
    # forced to the whole grid, report.json and every artifact but the
    # distance files and run_meta.json are the same, and each distance
    # file holds the full march's value at every node its bounded march
    # froze and +inf at every other node.  paper-4balls on its own 145^2
    # grid measures every ball (at 65^2 every ball is skipped); edge-balls
    # skips every ball
    if name == "paper-4balls":
        cfg = ExperimentConfig.load(PAPER_4BALLS)
    else:
        cfg = _edge_balls_config()
    full = metric.solve_distance
    fields = []    # each ball's bounded field

    def recording(form, source, epsilon, reach=math.inf):
        fields.append(full(form, source, epsilon, reach))
        return fields[-1]

    monkeypatch.setattr("subunit_lab.pipeline.solve_distance", recording)
    run_experiment(cfg, str(tmp_path / "bounded"))

    def unbounded(form, source, epsilon, reach=math.inf):
        return full(form, source, epsilon)

    monkeypatch.setattr("subunit_lab.pipeline.solve_distance", unbounded)
    monkeypatch.setattr("subunit_lab.geometry.solve_distance", unbounded)
    report, _ = run_experiment(cfg, str(tmp_path / "full"))
    measured = len(cfg.balls) if name == "paper-4balls" else 0
    assert len(report["balls"]) == measured
    assert len(report["notes"]) == len(cfg.balls) - measured

    def outputs(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
                and p.name != "run_meta.json" and p.parent.name != "distances"}

    bounded = outputs(tmp_path / "bounded")
    assert bounded == outputs(tmp_path / "full")
    assert any(p.name == "report.json" for p in bounded)

    distances = sorted((tmp_path / "bounded" / "distances").iterdir())
    assert [p.name for p in distances] == sorted(
        f"{b}_finest.npz" for b in report["balls"])
    assert len(fields) == len(cfg.balls)
    for k, field in enumerate(fields):
        name = f"ball{k}_finest.npz"
        if f"ball{k}" not in report["balls"]:
            continue
        frozen = np.isfinite(field.values)
        assert not frozen.all()
        # the full march reaches every node, so its file is the whole grid
        full, crop = read_npz(tmp_path / "full" / "distances" / name,
                              field.grid)
        assert crop == field.grid.shape and np.isfinite(full).all()
        bounded, _ = read_npz(tmp_path / "bounded" / "distances" / name,
                              field.grid)
        expected = np.where(frozen, full, math.inf)
        assert bounded.view(np.int64).tolist() == \
            expected.view(np.int64).tolist()


def test_ladder_paper_model_monotone_increments(paper_form):
    fields = solve_ladder(paper_form, (128, 128), [0.1, 0.05, 0.025, 0.0125])
    # increments are nonnegative on nodes across the degenerate axis
    g = paper_form.grid
    probe = g.nearest_node(-0.2, 0.3)   # reached by crossing x = 0
    incs = [fields[k + 1].values[probe] - fields[k].values[probe]
            for k in range(len(fields) - 1)]
    assert all(i >= -1e-12 for i in incs)


def test_ladder_monotonicity_error_on_corrupted_rung(euclid_form, monkeypatch):
    # solve_ladder checks the rungs it solves: a finest rung that drops
    # below the rung before it must raise
    solve = metric.solve_distance

    def corrupted(form, source, epsilon):
        f = solve(form, source, epsilon)
        if epsilon != 0.025:
            return f
        values = f.values.copy()
        values[10, 10] = max(0.0, values[10, 10] - 0.2)
        return DistanceField(grid=f.grid, source=f.source,
                             epsilon=f.epsilon, values=values)

    monkeypatch.setattr("subunit_lab.metric.solve_distance", corrupted)
    with pytest.raises(MonotonicityError, match="distance decreased"):
        solve_ladder(euclid_form, (64, 64), [0.1, 0.05, 0.025])


def test_symmetry_sampled_pairs(grushin_form):
    g = grushin_form.grid
    a = g.nearest_node(0.15, 0.1)
    b = g.nearest_node(-0.1, -0.2)
    fa = solve_distance(grushin_form, a, 1e-3)
    fb = solve_distance(grushin_form, b, 1e-3)
    slack = _slack(fa)
    assert abs(fa.values[b] - fb.values[a]) <= 2.0 * slack


def test_triangle_inequality_sampled(euclid_field, euclid_form):
    # d(a, c) <= d(a, b) + d(b, c) with a the field source, b fixed
    slack = _slack(euclid_field)
    rng = np.random.default_rng(3)
    nodes = [(int(i), int(j)) for i, j in
             zip(rng.integers(20, 236, 12), rng.integers(20, 236, 12))]
    b = nodes[0]
    fb = solve_distance(euclid_form, b, 1e-3)
    for c in nodes[1:]:
        lhs = euclid_field.values[c]
        rhs = euclid_field.values[b] + fb.values[c]
        assert lhs <= rhs + 2.0 * slack


def test_ball_tiny_radius_is_source_only(euclid_field):
    v = euclid_field.values
    sv = np.sort(v[np.isfinite(v)])
    r = float(sv[1]) * 0.5          # below the first positive value
    mask = ball(euclid_field, r)
    assert mask.sum() == 1
    assert mask[euclid_field.source]


def test_ball_huge_radius_is_everything(euclid_field):
    mask = ball(euclid_field, float(np.max(euclid_field.values)) * 1.01)
    assert mask.all()


def test_ball_rejects_nonpositive_radius(euclid_field):
    with pytest.raises(DomainError):
        ball(euclid_field, 0.0)


def test_ball_beyond_reach_raises(euclid_form):
    # +inf beyond the reach would read as outside the ball
    field = solve_distance(euclid_form, (128, 128), 1e-3, 0.1)
    assert ball(field, 0.1).sum() > 1
    with pytest.raises(RangeError, match="reach"):
        ball(field, 0.1000001)


def test_grid_refinement_first_order(grushin_profile):
    # doubling the resolution moves values by less than the slack budget
    coarse = GridSpec(-0.5, 0.5, -0.5, 0.5, 65, 65)
    fine = GridSpec(-0.5, 0.5, -0.5, 0.5, 129, 129)
    fc = solve_distance(assemble_form(grushin_profile, coarse),
                        (32, 32), 1e-3)
    ff = solve_distance(assemble_form(grushin_profile, fine), (64, 64), 1e-3)
    probe_pts = [(0.3, 0.0), (0.0, 0.25), (-0.2, -0.2), (0.25, 0.25)]
    for x, y in probe_pts:
        vc = fc.values[coarse.nearest_node(x, y)]
        vf = ff.values[fine.nearest_node(x, y)]
        assert abs(vc - vf) <= _slack(fc)


def test_determinism_bitwise(grushin_form):
    f1 = solve_distance(grushin_form, (100, 80), 0.01)
    f2 = solve_distance(grushin_form, (100, 80), 0.01)
    assert np.array_equal(f1.values, f2.values)
