"""Discrete solver: assembly, maximum principle, Picard, functionals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dst, idst
from scipy.linalg import solve_banded
from scipy.sparse.linalg import LinearOperator, splu
from scipy.sparse.linalg import cg as scipy_cg
from conftest import traced_grid_peak

from subunit_lab import solver
from subunit_lab.config import SolverSpec
from subunit_lab.cutoff import q_gradient
from subunit_lab.errors import (ConfigError, DomainError, EmptySupportError,
                                ZeroGradientError)
from subunit_lab.forms import (PHI_RANGE, DegeneracyProfile,
                               QuadraticFormField, assemble_form,
                               default_phi)
from subunit_lab.grid import GridSpec
from subunit_lab.metric import ball
from subunit_lab.solver import (SolveStats, _dst1, _harmonic, _norm,
                                _separable_inverse,
                                assemble_linear, cg, max_principle_slack,
                                poincare_functional, solve_linear,
                                solve_quasilinear, sobolev_functional)

@pytest.fixture(scope="module")
def grid97():
    return GridSpec(-0.5, 0.5, -0.5, 0.5, 97, 97)


def affine(X, Y):
    return X + 2.0


def _reference_assemble_linear(q22, grid, rhs, u_bd):
    """The interior 5-point system of diag(1, q22) assembled as a CSR
    matrix: index maps,
    one COO block per stencil direction and the boundary data u_bd (node
    values) folded into the right-hand side with np.add.at.  The reference
    the matrix-free system must match bit for bit; returns (matrix, rhs)."""
    nx, ny = grid.shape
    wx = np.full((nx - 1, ny), 1.0 / grid.hx ** 2)
    wy = _harmonic(q22[:, :-1], q22[:, 1:]) / grid.hy ** 2
    f = np.full(grid.shape, float(rhs))

    interior = ~grid.boundary_mask()
    flat_int = np.flatnonzero(interior.ravel())
    n_int = flat_int.size
    col_of = np.full(nx * ny, -1, dtype=np.int64)
    col_of[flat_int] = np.arange(n_int)
    b = (-f)[interior].astype(float).ravel()

    ii, jj = np.nonzero(interior)
    ca = col_of[ii * ny + jj]
    diag = np.zeros(n_int)
    rows_list, cols_list, vals_list = [], [], []
    faces = (((-1, 0), wx[ii - 1, jj]), ((1, 0), wx[ii, jj]),
             ((0, -1), wy[ii, jj - 1]), ((0, 1), wy[ii, jj]))
    for (di, dj), w in faces:
        ni, nj = ii + di, jj + dj
        diag += w
        cb = col_of[ni * ny + nj]
        is_int = cb >= 0
        rows_list.append(ca[is_int])
        cols_list.append(cb[is_int])
        vals_list.append(-w[is_int])
        np.add.at(b, ca[~is_int], w[~is_int] * u_bd[ni[~is_int], nj[~is_int]])
    rows = np.concatenate(rows_list + [np.arange(n_int)])
    cols = np.concatenate(cols_list + [np.arange(n_int)])
    vals = np.concatenate(vals_list + [diag])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_int, n_int)), b


def _reference_solve(matrix, b, system, spec):
    """solve_linear's preconditioned CG run on the reference matrix."""
    atol = spec.lin_tol * max(_norm(b), 1.0)
    x, info, _ = cg(lambda v: matrix @ v, b, rtol=spec.lin_tol, atol=atol,
                    maxiter=spec.lin_max_iter, M=_separable_inverse(system))
    assert info == 0
    full = system.boundary_values.copy()
    full[1:-1, 1:-1] = x.reshape(full[1:-1, 1:-1].shape)
    return full


@pytest.mark.parametrize("random_f", [False, True], ids=["f0", "f_random"])
@pytest.mark.parametrize("shape", [(33, 33), (41, 23), (145, 145), (20, 57)])
def test_matrix_free_system_matches_csr_reference(shape, random_f):
    # random q22 with a zero column off the boundary, and f 0 or a random
    # constant; the unit first entry links every node to the boundary
    # along its row
    g = GridSpec(-0.5, 0.5, -0.3, 0.7, *shape)
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    q22 = rng.uniform(0.0, 1.5, g.shape) ** 2
    q22[2 * shape[0] // 3, :] = 0.0
    f = rng.normal() if random_f else 0.0
    bc = trig(*g.meshgrid())
    system = assemble_linear(q22, g, f, bc)
    matrix, rhs = _reference_assemble_linear(q22, g, f, bc)
    assert (system.rhs + 0.0).tobytes() == (rhs + 0.0).tobytes()
    for _ in range(3):
        v = rng.normal(size=rhs.size)
        assert ((system.apply(v) + 0.0).tobytes()
                == (matrix @ v + 0.0).tobytes())
    spec = SolverSpec()
    u = solve_linear(system, spec)
    assert (u.values.tobytes()
            == _reference_solve(matrix, rhs, system, spec).tobytes())


def _frozen_picard_system(n):
    # A = diag(1, phi(u) f^2) with phi in [1, 3] at a trig u: not separable
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
    form = assemble_form(DegeneracyProfile("exponential", 0.1), g)
    X, Y = g.meshgrid()
    a22 = default_phi(4.0 * (trig(X, Y) - 2.0)) * form.q22
    return assemble_linear(a22, g, 0.0, trig(X, Y))


@pytest.mark.parametrize("n,tol", [(65, 1e-12), (129, 1e-8)])
def test_cg_matches_scipy_cg_from_cold_start(n, tol):
    system = _frozen_picard_system(n)
    b, inverse = system.rhs, _separable_inverse(system)
    kw = dict(rtol=tol, atol=tol * max(_norm(b), 1.0), maxiter=200)
    theirs = []
    x, info, iterations = cg(system.apply, b, M=inverse, **kw)
    shape = (b.size, b.size)
    y, scipy_info = scipy_cg(LinearOperator(shape, matvec=system.apply), b,
                             M=LinearOperator(shape, matvec=inverse),
                             callback=lambda _: theirs.append(1), **kw)
    assert info == scipy_info == 0
    assert iterations == len(theirs) > 2
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def test_cg_zero_rhs_and_untouched_start():
    system = _frozen_picard_system(33)
    inverse = _separable_inverse(system)
    kw = dict(rtol=1e-12, atol=1e-12, maxiter=50)
    x0 = np.ones(system.rhs.size)
    x, info, iterations = cg(system.apply, np.zeros_like(x0), x0, M=inverse,
                             **kw)
    assert info == 0 and iterations == 0 and not x.any()
    x, info, _ = cg(system.apply, system.rhs, x0, M=inverse, **kw)
    assert info == 0 and np.all(x0 == 1.0)


def test_harmonic_identity_euclidean(grid97):
    form = assemble_form(DegeneracyProfile("constant", 1.0), grid97)
    system = assemble_linear(form.q22, grid97, 0.0,
                             affine(*grid97.meshgrid()))
    u = solve_linear(system, SolverSpec(lin_tol=1e-13))
    X, _ = grid97.meshgrid()
    assert np.max(np.abs(u.values - (X + 2.0))) < 1e-10


def test_grushin_affine_is_stencil_exact(grid97):
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    system = assemble_linear(form.q22, grid97, 0.0,
                             affine(*grid97.meshgrid()))
    u = solve_linear(system, SolverSpec(lin_tol=1e-13))
    X, _ = grid97.meshgrid()
    assert np.max(np.abs(u.values - (X + 2.0))) < 1e-10


def test_general_affine_family_exact(grid97):
    # u = a x + b y + c is stencil-exact for any x-dependent diagonal form
    form = assemble_form(DegeneracyProfile("exponential", 0.3), grid97)
    bc = lambda X, Y: 0.7 * X - 1.3 * Y + 2.5
    X, Y = grid97.meshgrid()
    system = assemble_linear(form.q22, grid97, 0.0, bc(X, Y))
    u = solve_linear(system, SolverSpec(lin_tol=1e-13))
    assert np.max(np.abs(u.values - bc(X, Y))) < 1e-9


def test_paper_model_zero_column_still_solvable():
    # exact zero q22 on the axis: the unit first entry keeps every node
    # linked to the boundary
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 65, 65)
    form = assemble_form(DegeneracyProfile("paper_model", 9.0), g)
    assert np.all(form.q22[32, :] == 0.0)
    system = assemble_linear(form.q22, g, 0.0, affine(*g.meshgrid()))
    u = solve_linear(system, SolverSpec(lin_tol=1e-13))
    X, _ = g.meshgrid()
    assert np.max(np.abs(u.values - (X + 2.0))) < 1e-10


def trig(X, Y):
    return 2.0 + 0.5 * np.sin(math.pi * X) * np.cos(math.pi * Y)


@pytest.mark.parametrize("profile", [DegeneracyProfile("power", 1.0),
                                     DegeneracyProfile("paper_model", 9.0)],
                         ids=["power", "paper_model"])
def test_separable_system_exact_preconditioner(profile):
    # q = diag(1, f(x)^2): the separable preconditioner is the system
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 65, 65)
    form = assemble_form(profile, g)
    bc = trig(*g.meshgrid())
    system = assemble_linear(form.q22, g, 0.0, bc)
    stats = SolveStats()
    u = solve_linear(system, SolverSpec(), stats)
    assert stats.linear_solves == 1
    assert 1 <= stats.max_pcg_iterations <= 2
    matrix, _ = _reference_assemble_linear(form.q22, g, 0.0, bc)
    direct = splu(matrix.tocsc()).solve(system.rhs)
    x = u.values[1:-1, 1:-1].ravel()
    assert np.max(np.abs(x - direct)) < 1e-10


def _reference_separable_inverse(system):
    """P^-1 by scipy: scipy.fft.dst/idst along y and one solve_banded
    (LAPACK dgtsv) over the sine modes stacked end to end, uncoupled."""
    cx = system.cx
    ay = system.wy[1:-1].mean(axis=1)
    nxi, nyi = ay.size, system.wy.shape[1] - 1
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nyi + 1) / (nyi + 1))
    off = np.tile(np.append(np.full(nxi - 1, -cx), 0.0), nyi)
    ab = np.zeros((3, nxi * nyi))
    ab[0, 1:] = off[:-1]
    ab[1] = ((cx + cx) + lam[:, None] * ay[None, :]).ravel()
    ab[2, :-1] = off[:-1]

    def apply(r):
        rhat = dst(r.reshape(nxi, nyi), type=1, norm="ortho", axis=1)
        uhat = solve_banded((1, 1), ab, rhat.T.ravel())
        return idst(uhat.reshape(nyi, nxi).T, type=1, norm="ortho",
                    axis=1).ravel()

    return apply


# odd and even lengths, 2 (n + 1) = 288 not a power of two, and a small n
@pytest.mark.parametrize("n", [15, 16, 143, 144, 255])
def test_dst1_matches_scipy_bit_for_bit(n):
    a = np.random.default_rng(n).standard_normal((7, n))
    ext = np.zeros((7, 2 * (n + 1)))
    assert np.array_equal(_dst1(a, ext),
                          dst(a, type=1, norm="ortho", axis=1))


def _face_weights(nx, ny, kind, seed=0):
    """A random positive x-face weight, shared by every x-face, and random
    positive y-face weights on an nx x ny grid; "axis" closes the y-faces
    of the middle column (the Grushin axis, a_y = 0 there) and "exp"
    scales the y-faces by exp(-2 / (10 |x|)), 0 on the axis and
    exponentially small near it (3e-13 next to it at nx = 145)."""
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0.5, 2.0) * 1e4
    wy = rng.uniform(0.5, 2.0, (nx, ny - 1)) * 1e4
    x = np.linspace(-0.5, 0.5, nx)
    if kind == "axis":
        wy[nx // 2] = 0.0
    elif kind == "exp":
        with np.errstate(divide="ignore"):
            wy *= np.exp(-2.0 / (10.0 * np.abs(x)))[:, None]
    return SimpleNamespace(cx=cx, wy=wy)


@pytest.mark.parametrize("kind", ["random", "axis", "exp"])
@pytest.mark.parametrize("shape", [(17, 17), (33, 18), (145, 145),
                                   (100, 257)], ids="{0[0]}x{0[1]}".format)
def test_separable_inverse_matches_scipy_bit_for_bit(kind, shape):
    system = _face_weights(*shape, kind)
    r = np.random.default_rng(1).standard_normal(
        (shape[0] - 2) * (shape[1] - 2))
    M = _separable_inverse(system)
    expected = _reference_separable_inverse(system)(r)
    assert np.array_equal(M(r), expected)
    assert np.array_equal(M(r), expected)      # the factors are reused


def test_picard_frozen_system_mesh_independent_iterations():
    # A = diag(1, phi(u) f^2) with phi in [1, 3]: cond(P^-1 A) <= 9 on
    # every grid, so the PCG iteration count does not grow with n
    counts = []
    for n in (65, 257):
        system = _frozen_picard_system(n)
        stats = SolveStats()
        u = solve_linear(system, SolverSpec(), stats)
        x = u.values[1:-1, 1:-1].ravel()
        res = np.linalg.norm(system.rhs - system.apply(x))
        assert res <= 1e-11 * np.linalg.norm(system.rhs)
        counts.append(stats.max_pcg_iterations)
    assert 2 < counts[0] <= 30 and 2 < counts[1] <= 30
    assert abs(counts[1] - counts[0]) <= 3


def _any_q22(case):
    """A grid and a q22 >= 0 on it: zero at every node, or seeded random
    zeros at density 0.5 between random positive values."""
    shape = (145, 145) if case == "random-145" else (33, 57)
    g = GridSpec(-0.5, 0.5, -0.3, 0.7, *shape)
    if case == "zero":
        return g, np.zeros(g.shape)
    rng = np.random.default_rng(shape[0] + shape[1])
    q22 = rng.uniform(0.0, 2.0, g.shape)
    q22[rng.random(g.shape) < 0.5] = 0.0
    return g, q22


@pytest.mark.parametrize("case", ["zero", "random-33x57", "random-145"])
def test_any_nonnegative_q22_assembles_and_solves(case):
    # zeros in q22 close y-faces only: the 1/hx^2 x-faces link every node
    # to the boundary along its row, so every such system is definite
    g, q22 = _any_q22(case)
    spec = SolverSpec()
    system = assemble_linear(q22, g, 0.0, trig(*g.meshgrid()))
    u = solve_linear(system, spec)
    x = u.values[1:-1, 1:-1].ravel()
    assert (_norm(system.rhs - system.apply(x))
            <= spec.lin_tol * max(_norm(system.rhs), 1.0))
    assert max_principle_slack(u, system) <= 1e-12
    if case == "zero":
        # no y-faces: each row is the 1-D Dirichlet problem, whose
        # solution is the linear interpolant of the row's two ends
        t = ((g.xs() - g.x0) / (g.x1 - g.x0))[:, None]
        line = (1.0 - t) * u.values[0] + t * u.values[-1]
        assert np.max(np.abs(u.values - line)[:, 1:-1]) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_q22_is_rejected(bad):
    # q22 < 0 is false for NaN, which the harmonic face mean then closes
    # silently; an inf fails only later, in an unrelated finiteness check
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
    q22 = np.ones(g.shape)
    q22[5, 5] = bad
    with pytest.raises(DomainError, match="finite"):
        assemble_linear(q22, g, 0.0, trig(*g.meshgrid()))


@pytest.mark.parametrize("shape", [(), (33,), (1, 33), (33, 1), (33, 34),
                                   (32, 33)])
def test_boundary_data_off_the_grid_is_rejected(shape):
    # node values of another shape were broadcast across the grid, so a
    # row of y-values silently became every column's data
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
    form = assemble_form(DegeneracyProfile("power", 1.0), g)
    bad = np.full(shape, 2.0)
    with pytest.raises(DomainError, match="shape"):
        assemble_linear(form.q22, g, 0.0, bad)
    with pytest.raises(DomainError, match="shape"):
        solve_quasilinear(form, bad, SolverSpec())


@pytest.mark.parametrize("name,value", [
    ("fp_tol", math.nan), ("fp_tol", math.inf), ("fp_tol", 0.0),
    ("lin_tol", math.nan), ("lin_tol", math.inf), ("lin_tol", -1e-12),
    ("theta", math.nan), ("theta", math.inf),
    ("fp_max_iter", 0), ("fp_max_iter", 2.5), ("fp_max_iter", math.nan),
    ("lin_max_iter", math.inf), ("lin_max_iter", -3)])
def test_solve_config_rejects_bad_setting_with_field_path(name, value):
    # a SolverSpec built directly, as a solver caller builds it
    with pytest.raises(ConfigError) as exc:
        SolverSpec(**{name: value})
    assert exc.value.field_path == f"solver.{name}"


def test_solve_config_whole_number_counts_are_ints():
    spec = SolverSpec(fp_max_iter=30.0, lin_max_iter=400.0)
    assert (spec.fp_max_iter, spec.lin_max_iter) == (30, 400)
    assert isinstance(spec.fp_max_iter, int)
    assert isinstance(spec.lin_max_iter, int)


def test_maximum_principle_random_boundaries(grid97):
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    rng = np.random.default_rng(42)
    for _ in range(5):
        coef = rng.normal(size=4)
        bc = lambda X, Y: (coef[0] + coef[1] * X + coef[2] * Y
                           + coef[3] * np.sin(3 * X + 2 * Y))
        system = assemble_linear(form.q22, grid97, 0.0,
                                 bc(*grid97.meshgrid()))
        u = solve_linear(system, SolverSpec(lin_tol=1e-12))
        spread = float(np.ptp(system.boundary_values[grid97.boundary_mask()]))
        assert max_principle_slack(u, system) <= 1e-8 * max(spread, 1.0)


def test_energy_identity(grid97):
    # u' S u = u' b to linear-solver tolerance (discrete weak formulation)
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    bc = lambda X, Y: X + 0.3 * np.sin(4 * Y) + 2.0
    system = assemble_linear(form.q22, grid97, 0.5, bc(*grid97.meshgrid()))
    u = solve_linear(system, SolverSpec(lin_tol=1e-13))
    x = u.values[1:-1, 1:-1].ravel()
    lhs = float(x @ system.apply(x))
    rhs = float(x @ system.rhs)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_quasilinear_tanh_geometric_decay(grid97):
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    X, Y = grid97.meshgrid()
    bc = X + 0.4 * np.sin(3 * Y) + 2.0
    res = solve_quasilinear(form, bc, SolverSpec(theta=0.7, fp_tol=1e-10,
                                                 fp_max_iter=40))
    assert res.converged
    if len(res.residuals) >= 3:
        decay = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 0]
        assert min(decay) < 1.0


def test_quasilinear_consistency_reassemble(grid97):
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    spec = SolverSpec(theta=0.7, fp_tol=1e-11)
    bc = affine(*grid97.meshgrid())
    res = solve_quasilinear(form, bc, spec)
    assert res.converged
    a22 = default_phi(res.u.values) * form.q22
    system = assemble_linear(a22, grid97, spec.rhs, bc)
    u2 = solve_linear(system, spec)
    assert np.max(np.abs(u2.values - res.u.values)) <= 2.0 * spec.fp_tol * 10


def test_quasilinear_memory_ceiling():
    # the exp-picard problem on 129^2 reads 20.6 grid arrays at its peak,
    # inside a frozen solve's preconditioner: the system's y-face weights,
    # diagonal, right-hand side and two work arrays, the factors and
    # transform buffers of P^-1, CG's x, r, p and one work vector, the
    # shared boundary data and the Picard iterates.  With padded copies of
    # the face weights, the frozen coefficients held through each solve
    # and fresh CG and Picard temporaries it read 30.3.  The ceiling
    # leaves a margin of 0.9, under one grid array
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 129, 129)
    form = assemble_form(DegeneracyProfile("exponential", 0.1), g)
    spec = SolverSpec(theta=0.7, fp_tol=1e-9)
    res, peak = traced_grid_peak(g.shape, solve_quasilinear, form,
                                 trig(*g.meshgrid()), spec)
    assert res.converged and res.iterations > 1
    assert peak <= 21.5, peak


def test_picard_warm_start_saves_pcg_iterations(monkeypatch):
    # the exp-picard problem on 65^2: warm-started frozen solves against
    # the same Picard loop with every frozen solve started at zero
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 65, 65)
    form = assemble_form(DegeneracyProfile("exponential", 0.1), g)
    bc = trig(*g.meshgrid())
    spec = SolverSpec(theta=0.7, fp_tol=1e-9)
    warm_stats, cold_stats = SolveStats(), SolveStats()
    warm = solve_quasilinear(form, bc, spec, warm_stats)
    solve = solver.solve_linear
    monkeypatch.setattr(solver, "solve_linear",
                        lambda system, spec, stats, x0: solve(
                            system, spec, stats))
    cold = solve_quasilinear(form, bc, spec, cold_stats)
    assert warm.converged and cold.converged
    assert warm.iterations == cold.iterations
    assert warm_stats.linear_solves == cold_stats.linear_solves
    assert warm_stats.pcg_iterations < cold_stats.pcg_iterations
    assert np.max(np.abs(warm.u.values - cold.u.values)) <= 10 * spec.fp_tol


def test_quasilinear_stiff_no_convergence_path():
    # data of amplitude 4 spans tanh's bend, so four undamped steps end
    # some way short of fp_tol (the last step is about 1e-3)
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
    form = assemble_form(DegeneracyProfile("constant", 1.0), g)
    X, Y = g.meshgrid()
    bc = 4.0 * np.sin(6 * X) * np.cos(6 * Y)
    res = solve_quasilinear(form, bc, SolverSpec(theta=1.0, fp_tol=1e-14,
                                                 fp_max_iter=4))
    assert not res.converged
    assert res.iterations == 4
    assert min(res.residuals) > 1e-14       # no step reached fp_tol
    assert res.u is not None


def test_structural_sandwich_on_solution(grid97):
    form = assemble_form(DegeneracyProfile("power", 1.0), grid97)
    res = solve_quasilinear(form, affine(*grid97.meshgrid()),
                            SolverSpec(fp_tol=1e-10))
    gq2 = q_gradient(form, res.u.values) ** 2
    a22 = default_phi(res.u.values) * form.q22
    fa = QuadraticFormField(grid=grid97, q22=a22)
    ga2 = q_gradient(fa, res.u.values) ** 2
    # A = diag(1, phi q22) against Q = diag(1, q22): the sandwich constants
    # are min(1, c_phi) and max(1, C_phi), with phi's range (c_phi, C_phi)
    k, K = min(1.0, PHI_RANGE[0]), max(1.0, PHI_RANGE[1])
    assert np.all(ga2 >= k * gq2 - 1e-12)
    assert np.all(ga2 <= K * gq2 + 1e-12)


def test_sobolev_tent_function_stable_under_refinement():
    ratios = []
    for n in (97, 193):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
        form = assemble_form(DegeneracyProfile("constant", 1.0), g)
        X, Y = g.meshgrid()
        r = 0.3
        eu = np.hypot(X, Y)
        tent = np.maximum(0.0, 1.0 - eu / (0.8 * r))
        mask = eu < r
        ratios.append(sobolev_functional(form, tent, mask, r, sigma=2.0))
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.10
    assert 0.0 < ratios[0] < 2.0


def test_sobolev_cutoff_on_grushin_ball(grushin_field_off_axis, grushin_form):
    from subunit_lab.cutoff import build_sequence
    from tests.test_cutoff import seq_delta
    r = 0.2
    delta = seq_delta(grushin_field_off_axis, r, 0.5)
    seq = build_sequence(grushin_field_off_axis, grushin_form, r, 0.5, delta, 6)
    mask = ball(grushin_field_off_axis, r)
    ratio = sobolev_functional(grushin_form, seq.member(0), mask, r, 2.0)
    assert np.isfinite(ratio) and ratio > 0


def test_sobolev_zero_function_raises(grid97):
    form = assemble_form(DegeneracyProfile("constant", 1.0), grid97)
    mask = np.zeros(grid97.shape, dtype=bool)
    mask[40:60, 40:60] = True
    with pytest.raises(EmptySupportError):
        sobolev_functional(form, np.zeros(grid97.shape), mask, 0.2)


def test_poincare_constant_function_zero_convention(euclid_field, euclid_form):
    mask = ball(euclid_field, 0.3)
    w = np.full(euclid_form.grid.shape, 5.0)
    assert poincare_functional(euclid_form, w, mask, 0.3) == 0.0


def test_poincare_linear_on_disk_closed_form(euclid_field, euclid_form):
    # w = x on a Euclidean disk: int |x| / (r int |grad x|) = 4/(3 pi)
    g = euclid_form.grid
    X, _ = g.meshgrid()
    r = 0.35
    mask = ball(euclid_field, r)
    ratio = poincare_functional(euclid_form, X, mask, r)
    want = 4.0 / (3.0 * math.pi)

    # independent quadrature oracle on the continuum disk
    from scipy.integrate import dblquad
    num, _ = dblquad(lambda y, x: abs(x), -r, r,
                     lambda x: -math.sqrt(r * r - x * x),
                     lambda x: math.sqrt(r * r - x * x))
    den = r * math.pi * r * r
    assert math.isclose(num / den, want, rel_tol=1e-7)
    assert abs(ratio - want) / want < 0.05


def test_poincare_jump_zero_gradient_raises():
    # w jumps across y = 0 and is constant along x, the one direction
    # the unit first entry sees: with q22 = 0 its Q-gradient vanishes
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
    form = QuadraticFormField(grid=g, q22=np.zeros(g.shape))
    _, Y = g.meshgrid()
    w = np.sign(Y)
    mask = np.ones(g.shape, dtype=bool)
    with pytest.raises(ZeroGradientError):
        poincare_functional(form, w, mask, 0.3)
