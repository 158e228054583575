"""Discrete weak solutions of div(A(x, u) grad u) = f with Dirichlet data.

Discretization: 5-point finite differences with harmonic-mean face
coefficients, held and applied matrix-free as the face weights.  The
coefficient is diag(1, a22), as the form Q = diag(1, f(x)^2) is: every
x-face weighs 1/hx^2 and the y-faces are harmonic means of a22.  The
interior operator is symmetric positive semidefinite with M-matrix sign
structure, so the discrete maximum principle holds for f = 0.  Exact
zeros in a22 are tolerated: they close y-faces only, and the 1/hx^2
x-faces link every node to the boundary along its row.  The quasilinear
problem is solved by damped Picard iteration on the frozen-coefficient
linear problem.

Linear solves use conjugate gradients preconditioned by the exact inverse
of the separable operator P = Tx (x) I + diag(a_y) (x) Ty.  Tx is the
system's own x-part, 1/hx^2 tridiag(-1, 2, -1), so P differs from the
system only in its y-faces, each replaced by the mean of its grid column,
and P^-1 is one DST-I along y, one tridiagonal solve in x per sine mode
and the inverse DST-I (Buzbee, Golub and Nielson 1970), on numpy alone.
The DST-I is numpy's real FFT of the odd extension, scaled as
scipy.fft.dst scales it.  The tridiagonal solves are LAPACK dgtsv's
elimination in its operation order, without its row interchanges: P is
diagonally dominant, so dgtsv would take none (see _separable_inverse).
Both match scipy bit for bit; the factors are made once per system.  A
form diag(1, q22(x)), which every bundled profile is, makes P the system
itself, so CG stops after one iteration.  For the frozen quasilinear
coefficients the structural sandwich c_phi Q <= A <= C_phi Q holds face by
face.  When q22 depends on x only (every assemble_form field), A/P then
lies in [c_phi/C_phi, C_phi/c_phi] and cond(P^-1 A) <= (C_phi/c_phi)^2
whatever the grid (Concus and Golub 1973).  Tx, the Dirichlet second
difference, makes P and the system symmetric positive definite, whatever
the y-part adds: no diagonal or pivot can vanish.

Every solve takes its settings as the config's SolverSpec, the one
settings type (SolverSpec() when none is given); the Dirichlet data is
an argument of its own.

The CG loop is this module's own (cg), with scipy's recurrence.  Its inner
products and norms are numpy's pairwise sums (np.add.reduce), not BLAS
dot products: no BLAS thread is ever started, and a solve gives the same
bits whatever the BLAS thread count.

Also home to the empirical Sobolev and Poincare functionals measured on
discrete functions over metric balls.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .config import SolverSpec
from .cutoff import q_gradient
from .errors import (DomainError, EmptySupportError, GeometryError,
                     SolverError, ZeroGradientError)

__all__ = [
    "DiscreteFunction", "SolveStats", "LinearSystem",
    "assemble_linear", "cg", "solve_linear", "solve_quasilinear",
    "QuasilinearResult",
    "sobolev_functional", "poincare_functional", "max_principle_slack",
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


def _grid_values(grid, value):
    """Node values from a callable (X, Y) -> values, an array or a constant."""
    if callable(value):
        value = value(*grid.meshgrid())
    return np.broadcast_to(np.asarray(value, dtype=float), grid.shape).copy()


def _harmonic(a, b):
    s = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(s > 0, 2.0 * a * b / np.where(s > 0, s, 1.0), 0.0)
    return h


@dataclass
class LinearSystem:
    """The interior system -L_h u = rhs, held as its face weights.

    It keeps one copy of each: the one x-face weight cx = 1/hx^2, the
    y-face weights wy, each interior node's diagonal, the right-hand side
    and the full-grid boundary data (which the frozen systems of one
    Picard solve share, read-only), plus two interior-sized work arrays of
    apply.  No matrix is built, and _separable_inverse reads the same face
    weights.  Every interior diagonal is at least 2 cx."""

    grid: object
    rhs: np.ndarray                # interior, j fastest, boundary folded in
    boundary_values: np.ndarray    # full-grid boundary data (interior entries 0)
    cx: float                      # 1/hx^2, every face (i,j)-(i+1,j)
    wy: np.ndarray                 # (nx, ny-1) face weights (i,j)-(i,j+1)
    diag: np.ndarray               # (nx-2, ny-2) sum of each node's four faces

    def __post_init__(self):
        # apply's work arrays, reused, so apply is not reentrant: v sits
        # in a zero-padded copy of the interior, whose shifts by one node
        # are the four neighbours of every interior node
        nxi, nyi = self.diag.shape
        self._padded = np.zeros((nxi + 2, nyi + 2))
        self._term = np.empty((nxi, nyi))

    def apply(self, v):
        """-L_h v for a flat interior vector v (j fastest), zero outside."""
        cx, down, up = self.cx, self.wy[1:-1, :-1], self.wy[1:-1, 1:]
        p, t = self._padded, self._term
        p[1:-1, 1:-1] = v.reshape(t.shape)
        # the terms in the sorted column order of a CSR matrix of -L_h, so
        # each sum rounds as scipy's csr_matvec rounds it, bit for bit;
        # -(cx v) rounds as (-cx) v: IEEE products are sign-symmetric
        out = np.multiply(cx, p[:-2, 1:-1])
        np.negative(out, out=out)
        out -= np.multiply(down, p[1:-1, :-2], out=t)
        out += np.multiply(self.diag, p[1:-1, 1:-1], out=t)
        out -= np.multiply(up, p[1:-1, 2:], out=t)
        out -= np.multiply(cx, p[2:, 1:-1], out=t)
        return out.ravel()


def _boundary_grid(grid, boundary):
    """The Dirichlet data on the boundary nodes and 0 inside, read-only:
    boundary is a callable (X, Y) -> values, an array or a constant."""
    g = np.where(grid.boundary_mask(), _grid_values(grid, boundary), 0.0)
    g.setflags(write=False)
    return g


def assemble_linear(q22, grid, rhs=0.0, boundary=0.0):
    """Assemble the interior 5-point system of diag(1, q22), frozen.

    Every x-face weighs cx = 1/hx^2; the y-faces are harmonic means of the
    nodal q22 values, so an exact zero on one side closes the face.  No
    matrix is built: the system is the face weights, diag = ((cx + cx) +
    down) + up, and rhs = -f + w g over the faces (i-1, j), (i+1, j),
    (i, j-1), (i, j+1) in turn, with g = 0 inside.  Each sum runs in the
    order of a CSR assembly of the same operator, so the values match it
    bit for bit.
    """
    return _assemble(q22, grid, rhs, _boundary_grid(grid, boundary))


def _assemble(q22, grid, rhs, g):
    """assemble_linear with the boundary data g already on the grid, as
    _boundary_grid gives it (the system keeps g itself, not a copy)."""
    q22 = np.asarray(q22, dtype=float)
    nx, ny = grid.shape
    if q22.shape != (nx, ny):
        raise DomainError("coefficient shape mismatch")
    if np.any(q22 < 0):
        raise DomainError("form must be nonnegative")
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2

    cx = 1.0 / hx2                                  # faces (i,j)-(i+1,j)
    wy = _harmonic(q22[:, :-1], q22[:, 1:]) / hy2   # faces (i,j)-(i,j+1)
    down, up = wy[1:-1, :-1], wy[1:-1, 1:]
    diag = ((cx + cx) + down) + up

    b = -_grid_values(grid, rhs)[1:-1, 1:-1]
    b += cx * g[:-2, 1:-1]
    b += cx * g[2:, 1:-1]
    b += down * g[1:-1, :-2]
    b += up * g[1:-1, 2:]

    return LinearSystem(grid=grid, rhs=b.ravel(), boundary_values=g,
                        cx=cx, wy=wy, diag=diag)


@dataclass
class SolveStats:
    """Work counters of the linear solves one caller made."""

    linear_solves: int = 0
    pcg_iterations: int = 0
    max_pcg_iterations: int = 0

    def record(self, iterations):
        self.linear_solves += 1
        self.pcg_iterations += iterations
        self.max_pcg_iterations = max(self.max_pcg_iterations, iterations)


def _dst1(a, ext, out=None):
    """Orthonormal DST-I of each row of a (into out when given), by numpy's
    real FFT.

    ext, an (rows, 2 (n + 1)) buffer whose columns 0 and n + 1 are zero,
    takes the odd extension [0, a, 0, -a reversed]; its DFT is -2i times
    the unnormalised DST-I in bins 1..n.  The factor 1/sqrt(2 (n + 1)) is
    taken in long double and rounded once, and the bins are scaled after
    the transform, as scipy.fft.dst(type=1, norm="ortho") does, so the
    result matches it bit for bit.  The DST-I in this norm is its own
    inverse.
    """
    n = a.shape[1]
    ext[:, 1:n + 1] = a
    np.negative(a[:, ::-1], out=ext[:, n + 2:])
    scale = float(np.longdouble(-1) / np.sqrt(np.longdouble(2 * (n + 1))))
    return np.multiply(rfft(ext, axis=1).imag[:, 1:n + 1], scale,
                       out=out)


def _separable_inverse(system):
    """P^-1 of the separable operator.

    Interior unknowns are ordered (i, j) with j fastest.  P's x-part is
    the system's own, Tx = c tridiag(-1, 2, -1) with c = system.cx =
    1/hx^2, and its y-faces (weight a_y per column) are the system's
    y-faces averaged over the column, so P = Tx (x) I + diag(a_y) (x) Ty
    with Ty = tridiag(-1, 2, -1).  The orthonormal DST-I along y
    diagonalises Ty (eigenvalues lam_k = 2 - 2 cos(pi k / (ny_int + 1)));
    the sine modes then decouple into tridiagonal systems
    Tx + lam_k diag(a_y), all solved at once with the modes along the
    second axis.

    Elimination is LAPACK dgtsv's recurrence without its row interchanges,
    in its operation order, so the solve matches dgtsv bit for bit.  dgtsv
    swaps rows i and i+1 only when |d'_i| < |dl_i| = c, and in exact
    arithmetic that never happens: d'_0 = 2c + lam a_y(0) >= c, and if
    d'_i >= c then d'_(i+1) = 2c + lam a_y(i+1) - c^2 / d'_i >= c.  So
    every pivot is at least c > 0.  The factorization is made here, once
    per system.
    """
    cx = system.cx
    ay = system.wy[1:-1].mean(axis=1)             # interior columns
    nxi, nyi = ay.size, system.wy.shape[1] - 1
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nyi + 1) / (nyi + 1))
    du = -cx                                      # = dl: Tx is symmetric
    d = (cx + cx) + ay[:, None] * lam[None, :]
    fact = np.empty((nxi - 1, nyi))
    b = np.empty((nxi, nyi))
    tmp = np.empty(nyi)
    # row views, made once: indexing costs as much as a row's arithmetic
    d_rows, f_rows, b_rows = list(d), list(fact), list(b)
    for d_i, d_next, f in zip(d_rows, d_rows[1:], f_rows):
        np.divide(du, d_i, out=f)
        d_next -= np.multiply(f, du, out=tmp)
    ext = np.zeros((nxi, 2 * (nyi + 1)))
    forward = list(zip(f_rows, b_rows, b_rows[1:]))
    backward = list(zip(d_rows, b_rows, b_rows[1:]))[::-1]

    def apply(r):
        _dst1(r.reshape(nxi, nyi), ext, out=b)
        for f, b_i, b_next in forward:
            b_next -= np.multiply(f, b_i, out=tmp)
        b_rows[-1] /= d_rows[-1]
        for d_i, b_i, b_next in backward:
            b_i -= np.multiply(du, b_next, out=tmp)
            b_i /= d_i
        return _dst1(b, ext).ravel()

    return apply


def _dot(a, b, out=None):
    """a . b as numpy's pairwise sum, which runs in this thread only and
    rounds the same whatever the BLAS thread count.  out, when given,
    takes the products."""
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def _norm(a, out=None):
    return math.sqrt(_dot(a, a, out))


def cg(A, b, x0=None, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradients for A x = b; returns (x, info,
    iterations).

    A and M are callables v -> A v and r -> M^-1 r.  The recurrence is
    scipy.sparse.linalg.cg's: the residual is tested before each step
    against max(atol, rtol |b|), callback(x), when given, runs once per
    step, info is 0 on convergence or maxiter when the steps ran out, and
    iterations counts the steps taken.  Inner products and norms are
    pairwise sums (_dot), so from a cold start the iteration count is
    scipy's and x agrees with it to rounding.  x0, of b's size in any
    shape, is not modified.  x, r and p are updated in place, and one work
    vector takes every product.
    """
    bnrm2 = _norm(b)
    atol = max(atol, rtol * bnrm2)
    if bnrm2 == 0.0:
        return np.zeros_like(b), 0, 0
    x = (np.zeros_like(b) if x0 is None
         else np.array(x0, dtype=float).reshape(b.shape))
    r = b - A(x) if x.any() else b.copy()
    work = np.empty_like(b)
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if _norm(r, work) < atol:
            return x, 0, iteration
        z = M(r)
        rho = _dot(r, z, work)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        del z       # z and q die before the next M and A make theirs
        q = A(p)
        alpha = rho / _dot(p, q, work)
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=work)
        del q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter, maxiter


def solve_linear(system, spec=None, stats=None, x0=None):
    """Solve the assembled system; returns the full-grid DiscreteFunction.

    Conjugate gradients (cg) preconditioned by the separable operator (see
    the module docstring): one iteration when the system is separable, a
    mesh-independent handful under the quasilinear sandwich.  x0, the
    interior values (flat, j fastest, or as an (nx-2, ny-2) array), starts
    CG there instead of at zero.  CG stops at relative residual
    spec.lin_tol (spec a SolverSpec, SolverSpec() when None) and raises
    SolverError when the true residual, a pairwise-summed norm like CG's
    own, still misses it after spec.lin_max_iter iterations.  When given,
    stats records the iterations.
    """
    spec = spec or SolverSpec()
    b = system.rhs
    atol = spec.lin_tol * max(_norm(b), 1.0)
    x, info, iterations = cg(system.apply, b, x0, rtol=spec.lin_tol,
                             atol=atol, maxiter=spec.lin_max_iter,
                             M=_separable_inverse(system))
    # cg tests convergence before each step, so a solve that met the
    # tolerance on its last allowed step still reports info > 0
    if info != 0 and _norm(b - system.apply(x)) > atol:
        raise SolverError(f"conjugate gradient failed to converge "
                          f"(info={info})")
    if stats is not None:
        stats.record(iterations)
    full = system.boundary_values.copy()
    full[1:-1, 1:-1] = x.reshape(system.diag.shape)
    return DiscreteFunction(grid=system.grid, values=full)


@dataclass
class QuasilinearResult:
    u: DiscreteFunction
    converged: bool
    iterations: int
    residuals: list


def solve_quasilinear(env, boundary, spec=None, stats=None):
    """Damped Picard iteration u_{k+1} = (1-theta) u_k + theta solve(A(x, u_k)).

    boundary is the Dirichlet data, as assemble_linear takes it; theta,
    the tolerances, the iteration caps and the right-hand side come from
    spec (SolverSpec() when None).  Picard starts from u_0 =
    solve(A(x, 0)).  Each later frozen solve warm starts its CG at the
    previous frozen solution, which the next one differs from by about the
    Picard step, so the inner iterations shrink as Picard converges; the
    fixed point is unchanged up to the CG tolerance.  Returns the first
    iterate meeting the sup-norm tolerance, with the residual history.
    Non-convergence is reported on the result (best iterate and
    diagnostic), not raised.  stats, when given, records every frozen
    linear solve.  The boundary data is put on the grid once and every
    frozen system shares it; a frozen system and its coefficients are
    freed before the next step assembles its own.
    """
    spec = spec or SolverSpec()
    grid = env.base.grid
    g = _boundary_grid(grid, boundary)    # every frozen system shares it

    def frozen_solve(z, previous=None):
        # the coefficients die with the assembly, before the solve runs
        system = _assemble(env.coefficients(z), grid, spec.rhs, g)
        x0 = None if previous is None else previous.values[1:-1, 1:-1]
        return solve_linear(system, spec, stats, x0)

    u_k = u_star = frozen_solve(np.zeros(grid.shape))
    best, best_res = u_k, math.inf
    residuals = []
    for it in range(1, spec.fp_max_iter + 1):
        u_star = frozen_solve(u_k.values, u_star)
        values, res = _damped_step(u_k.values, u_star.values, spec.theta)
        u_next = DiscreteFunction(grid=grid, values=values)
        residuals.append(res)
        if res < best_res:
            best, best_res = u_next, res
        u_k = u_next
        if res <= spec.fp_tol:
            return QuasilinearResult(u=u_k, converged=True, iterations=it,
                                     residuals=residuals)
    return QuasilinearResult(u=best, converged=False,
                             iterations=spec.fp_max_iter, residuals=residuals)


def _damped_step(u_k, u_star, theta):
    """(1 - theta) u_k + theta u_star, a new array (u_k may still be
    returned), and its sup-norm distance from u_k; one work array, freed
    on return."""
    values = np.multiply(u_k, 1.0 - theta)
    step = np.multiply(u_star, theta)
    values += step
    np.subtract(values, u_k, out=step)
    return values, float(np.max(np.abs(step, out=step)))


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
    Returns LHS / RHS.  w (node values) must vanish outside (a collar
    inside) the ball.
    """
    if sigma <= 1.0:
        raise DomainError("sigma must exceed 1")
    supp = w != 0.0
    if not np.any(supp):
        raise EmptySupportError("w vanishes identically")
    if np.any(supp & ~ball_mask):
        raise GeometryError("w is not compactly supported in the ball")
    area = form.grid.cell_area
    supp_measure = float(supp.sum()) * area
    wB = w[ball_mask]
    g = q_gradient(form, w)[ball_mask]
    mean = lambda q: float(q.sum()) * area / supp_measure
    lhs = mean(np.abs(wB) ** (2.0 * sigma)) ** (1.0 / (2.0 * sigma))
    rhs = r * math.sqrt(mean(g * g)) + math.sqrt(mean(wB * wB))
    return lhs / rhs


def poincare_functional(form, w, ball_mask, r):
    """Empirical constant of the L1 Poincare inequality on a ball.

    ratio = integral_B |w - <w>_B|  /  (r * integral_B [grad w]_Q),
    for w given by its node values.  Constant w returns 0 by the 0/0
    convention; a vanishing denominator against a positive numerator
    raises ZeroGradientError (it would falsify the inequality for this w).
    """
    if not np.any(ball_mask):
        raise EmptySupportError("empty ball")
    area = form.grid.cell_area
    wB = w[ball_mask]
    mean = wB.mean()
    num = float(np.abs(wB - mean).sum()) * area
    den = float(q_gradient(form, w)[ball_mask].sum()) * area * r
    if den == 0.0:
        if num > 1e-14 * max(1.0, float(np.abs(wB).max())) * area:
            raise ZeroGradientError(
                "zero Q-gradient against nonzero oscillation: inequality "
                "falsified for this function/form pair")
        return 0.0
    return num / den
