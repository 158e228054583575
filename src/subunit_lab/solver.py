"""Discrete weak solutions of div(A(x, u) grad u) = f with Dirichlet data.

Discretization: 5-point finite differences with harmonic-mean face
coefficients.  The assembled interior system is symmetric positive
semidefinite with M-matrix sign structure, so the discrete maximum
principle holds for f = 0 and exact zeros in q22 are tolerated as long as
every interior node connects to the boundary through positive-coefficient
faces.  The quasilinear problem is solved by damped Picard iteration on the
frozen-coefficient linear problem.

Also home to the empirical Sobolev and Poincare functionals measured on
discrete functions over metric balls.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg, spsolve

from .cutoff import q_gradient
from .errors import (ConfigError, DomainError, EmptySupportError,
                     GeometryError, SingularSystemError, SolverError,
                     ZeroGradientError)

__all__ = [
    "DiscreteFunction", "SolveConfig", "LinearSystem", "assemble_linear",
    "solve_linear", "solve_quasilinear", "QuasilinearResult",
    "sobolev_functional", "poincare_functional", "q_energy",
    "max_principle_slack",
]


@dataclass
class DiscreteFunction:
    """Grid function; the discrete stand-in for the degenerate Sobolev pair."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DomainError("values shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("discrete function must be finite")

    def average(self, mask):
        if not np.any(mask):
            raise EmptySupportError("average over an empty node set")
        return float(self.values[mask].mean())


@dataclass
class SolveConfig:
    rhs: np.ndarray | float = 0.0
    boundary: object = 0.0          # callable (X, Y) -> values, array, or const
    fp_max_iter: int = 40
    fp_theta: float = 0.7
    fp_tol: float = 1e-10
    lin_tol: float = 1e-12
    lin_max_iter: int = 20000

    def __post_init__(self):
        if not 0.0 < self.fp_theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1]", "solver.fp_theta")
        if self.fp_tol <= 0 or self.lin_tol <= 0:
            raise ConfigError("tolerances must be positive", "solver.tol")


def _boundary_values(grid, boundary):
    X, Y = grid.meshgrid()
    if callable(boundary):
        vals = np.asarray(boundary(X, Y), dtype=float)
        return np.broadcast_to(vals, grid.shape).copy()
    arr = np.asarray(boundary, dtype=float)
    if arr.shape == grid.shape:
        return arr.copy()
    return np.full(grid.shape, float(boundary))


def _rhs_values(grid, rhs):
    if callable(rhs):
        X, Y = grid.meshgrid()
        return np.asarray(rhs(X, Y), dtype=float)
    arr = np.asarray(rhs, dtype=float)
    if arr.shape == grid.shape:
        return arr.copy()
    return np.full(grid.shape, float(rhs))


def _harmonic(a, b):
    s = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(s > 0, 2.0 * a * b / np.where(s > 0, s, 1.0), 0.0)
    return h


@dataclass
class LinearSystem:
    grid: object
    matrix: sp.csr_matrix          # SPD interior operator (-L_h)
    rhs: np.ndarray                # right-hand side with boundary folded in
    interior_index: np.ndarray     # (n_int,) flat indices of unknowns
    boundary_values: np.ndarray    # full-grid boundary data (interior entries 0)
    f_values: np.ndarray


def assemble_linear(q11, q22, grid, rhs=0.0, boundary=0.0):
    """Assemble the interior 5-point system for frozen coefficients.

    Face coefficients are harmonic means of the nodal q values, so an exact
    zero on one side closes the face.  Raises SingularSystemError when some
    interior connected component (under positive faces) touches no boundary
    node, reporting the island nodes.
    """
    q11 = np.asarray(q11, dtype=float)
    q22 = np.asarray(q22, dtype=float)
    nx, ny = grid.shape
    if q11.shape != (nx, ny) or q22.shape != (nx, ny):
        raise DomainError("coefficient shape mismatch")
    if np.any(q11 < 0) or np.any(q22 < 0):
        raise DomainError("form must be nonnegative")
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2

    wx = _harmonic(q11[:-1, :], q11[1:, :]) / hx2   # faces (i,j)-(i+1,j)
    wy = _harmonic(q22[:, :-1], q22[:, 1:]) / hy2   # faces (i,j)-(i,j+1)

    bmask = grid.boundary_mask()
    interior = ~bmask
    flat_int = np.flatnonzero(interior.ravel())
    n_int = flat_int.size
    col_of = np.full(nx * ny, -1, dtype=np.int64)
    col_of[flat_int] = np.arange(n_int)

    u_bd = _boundary_values(grid, boundary)
    f = _rhs_values(grid, rhs)
    b = (-f)[interior].astype(float).ravel()

    ii, jj = np.nonzero(interior)
    ca = col_of[ii * ny + jj]
    diag = np.zeros(n_int)
    rows_list, cols_list, vals_list = [], [], []
    # (neighbor offset, face-weight array) per stencil direction
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
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n_int, n_int))

    _audit_connectivity(grid, wx, wy, col_of, bmask)

    bd_full = np.where(bmask, u_bd, 0.0)
    return LinearSystem(grid=grid, matrix=S, rhs=b, interior_index=flat_int,
                        boundary_values=bd_full, f_values=f)


def _audit_connectivity(grid, wx, wy, col_of, bmask):
    """Find interior components with no positive-face path to the boundary."""
    nx, ny = grid.shape
    n = nx * ny
    rows, cols = [], []

    ii, jj = np.nonzero(wx > 0)
    a = ii * ny + jj
    b = (ii + 1) * ny + jj
    rows.extend(a)
    cols.extend(b)
    ii, jj = np.nonzero(wy > 0)
    a = ii * ny + jj
    b = ii * ny + (jj + 1)
    rows.extend(a)
    cols.extend(b)

    g = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, labels = connected_components(g, directed=False)
    bd_labels = set(labels[bmask.ravel()])
    bad = np.flatnonzero(~np.isin(labels, list(bd_labels)))
    bad = [idx for idx in bad if col_of[idx] >= 0]
    if bad:
        nodes = [(int(idx // ny), int(idx % ny)) for idx in bad]
        raise SingularSystemError(
            f"{len(nodes)} interior nodes form degeneracy islands with no "
            f"boundary connection (first: {nodes[:5]})", nodes)


def solve_linear(system, config=None):
    """Solve the assembled system; returns the full-grid DiscreteFunction."""
    config = config or SolveConfig()
    S, b = system.matrix, system.rhs
    if S.shape[0] < 400:
        x = spsolve(S.tocsc(), b)
    else:
        d = S.diagonal()
        if np.any(d <= 0):
            raise SingularSystemError("zero diagonal in assembled system")
        M = sp.diags(1.0 / d)
        bnorm = float(np.linalg.norm(b))
        atol = config.lin_tol * max(bnorm, 1.0)
        x, info = cg(S, b, rtol=config.lin_tol, atol=atol,
                     maxiter=config.lin_max_iter, M=M)
        if info != 0:
            raise SolverError(f"conjugate gradient failed to converge "
                              f"(info={info})")
    full = system.boundary_values.copy().ravel()
    full[system.interior_index] = x
    return DiscreteFunction(grid=system.grid, values=full.reshape(system.grid.shape))


@dataclass
class QuasilinearResult:
    u: DiscreteFunction
    converged: bool
    iterations: int
    residuals: list
    diagnostic: str = ""


def solve_quasilinear(env, config):
    """Damped Picard iteration u_{k+1} = (1-theta) u_k + theta solve(A(x, u_k)).

    Returns the first iterate meeting the sup-norm tolerance, with the
    residual history.  Non-convergence is reported on the result (best
    iterate and diagnostic), not raised.
    """
    grid = env.base.grid

    def frozen_solve(z):
        a11, a22 = env.coefficients(z)
        system = assemble_linear(a11, a22, grid, config.rhs, config.boundary)
        return solve_linear(system, config)

    u_k = frozen_solve(np.zeros(grid.shape))
    best, best_res = u_k, math.inf
    residuals = []
    for it in range(1, config.fp_max_iter + 1):
        u_star = frozen_solve(u_k.values)
        u_next = DiscreteFunction(
            grid=grid, values=(1.0 - config.fp_theta) * u_k.values
            + config.fp_theta * u_star.values)
        res = float(np.max(np.abs(u_next.values - u_k.values)))
        residuals.append(res)
        if res < best_res:
            best, best_res = u_next, res
        u_k = u_next
        if res <= config.fp_tol:
            return QuasilinearResult(u=u_k, converged=True, iterations=it,
                                     residuals=residuals)
    return QuasilinearResult(
        u=best, converged=False, iterations=config.fp_max_iter,
        residuals=residuals,
        diagnostic=f"no convergence after {config.fp_max_iter} iterations; "
                   f"best residual {best_res:.3e}")


def q_energy(form, u, weight=None):
    """Discrete energy integral of [grad u]_Q^2 (optionally masked)."""
    g2 = q_gradient(form, u.values if isinstance(u, DiscreteFunction) else u) ** 2
    if weight is not None:
        g2 = g2 * weight
    return float(g2.sum() * form.grid.cell_area)


def max_principle_slack(u, system):
    """How far the solution leaves [min boundary, max boundary] (f = 0)."""
    bmask = system.grid.boundary_mask()
    lo = float(system.boundary_values[bmask].min())
    hi = float(system.boundary_values[bmask].max())
    return max(0.0, float(lo - u.values.min()), float(u.values.max() - hi))


def sobolev_functional(form, w, ball_mask, r, sigma=2.0):
    """Empirical constant of the support-averaged Sobolev inequality.

    LHS = (mean_supp |w|^{2 sigma})^{1/(2 sigma)},
    RHS = r (mean_supp [grad w]_Q^2)^{1/2} + (mean_supp w^2)^{1/2},
    where mean_supp integrates over the ball and divides by |supp w|.
    Returns LHS / RHS.  w must vanish outside (a collar inside) the ball.
    """
    if sigma <= 1.0:
        raise DomainError("sigma must exceed 1")
    vals = w.values if isinstance(w, DiscreteFunction) else np.asarray(w)
    supp = vals != 0.0
    if not np.any(supp):
        raise EmptySupportError("w vanishes identically")
    if np.any(supp & ~ball_mask):
        raise GeometryError("w is not compactly supported in the ball")
    area = form.grid.cell_area
    supp_measure = float(supp.sum()) * area
    wB = vals[ball_mask]
    g = q_gradient(form, vals)[ball_mask]
    mean = lambda q: float(q.sum()) * area / supp_measure
    lhs = mean(np.abs(wB) ** (2.0 * sigma)) ** (1.0 / (2.0 * sigma))
    rhs = r * math.sqrt(mean(g * g)) + math.sqrt(mean(wB * wB))
    return lhs / rhs


def poincare_functional(form, w, ball_mask, r):
    """Empirical constant of the L1 Poincare inequality on a ball.

    ratio = integral_B |w - <w>_B|  /  (r * integral_B [grad w]_Q).
    Constant w returns 0 by the 0/0 convention; a vanishing denominator
    against a positive numerator raises ZeroGradientError (it would falsify
    the inequality for this w).
    """
    vals = w.values if isinstance(w, DiscreteFunction) else np.asarray(w)
    if not np.any(ball_mask):
        raise EmptySupportError("empty ball")
    area = form.grid.cell_area
    wB = vals[ball_mask]
    mean = wB.mean()
    num = float(np.abs(wB - mean).sum()) * area
    den = float(q_gradient(form, vals)[ball_mask].sum()) * area * r
    if den == 0.0:
        if num > 1e-14 * max(1.0, float(np.abs(wB).max())) * area:
            raise ZeroGradientError(
                "zero Q-gradient against nonzero oscillation: inequality "
                "falsified for this function/form pair")
        return 0.0
    return num / den
