"""Discrete weak solutions of div(A(x, u) grad u) = f with Dirichlet data.

Discretization: 5-point finite differences with harmonic-mean face
coefficients, held and applied matrix-free as the face weights.  The
interior operator is symmetric positive semidefinite with M-matrix sign
structure, so the discrete maximum principle holds for f = 0 and exact
zeros in q22 are tolerated as long as every interior node connects to the
boundary through positive-coefficient faces.  The quasilinear problem is
solved by damped Picard iteration on the frozen-coefficient linear problem.

Linear solves use conjugate gradients preconditioned by the exact inverse
of the system's column-averaged separable operator P = Tx (x) I +
diag(a_y) (x) Ty: every face weight is averaged along y over its grid
column, and P^-1 is one DST-I along y, one tridiagonal solve in x per sine
mode and the inverse DST-I (Buzbee, Golub and Nielson 1970).  A form
diag(q11(x), q22(x)), which every bundled profile is, makes P the system
itself, so CG stops after one iteration.  For the frozen quasilinear
coefficients the structural sandwich c_phi Q <= A <= C_phi Q holds face by
face.  When q11 and q22 depend on x only (every assemble_form field), A/P
then lies in [c_phi/C_phi, C_phi/c_phi] and cond(P^-1 A) <= (C_phi/c_phi)^2
whatever the grid (Concus and Golub 1973).  P is symmetric positive
definite once the connectivity audit passes: it could only be singular on
a block of columns with no y-faces closed off by zero x-faces, and such
nodes have no positive-face path to the boundary.

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
from scipy.fft import dst, idst
from scipy.linalg import solve_banded

from .config import SolverSpec
from .cutoff import q_gradient
from .errors import (DomainError, EmptySupportError, GeometryError,
                     SingularSystemError, SolverError, ZeroGradientError)

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


def _node_faces(wx, wy):
    """Interior nodes' faces toward (i-1, j), (i+1, j), (i, j-1), (i, j+1)."""
    return wx[:-1, 1:-1], wx[1:, 1:-1], wy[1:-1, :-1], wy[1:-1, 1:]


@dataclass
class LinearSystem:
    """The interior system -L_h u = rhs, held as its face weights."""

    grid: object
    rhs: np.ndarray                # interior, j fastest, boundary folded in
    boundary_values: np.ndarray    # full-grid boundary data (interior entries 0)
    wx: np.ndarray                 # (nx-1, ny) face weights (i,j)-(i+1,j)
    wy: np.ndarray                 # (nx, ny-1) face weights (i,j)-(i,j+1)
    diag: np.ndarray               # (nx-2, ny-2) sum of each node's four faces

    def __post_init__(self):
        # apply works on flat rows of width ny: v sits in a zero-padded
        # copy of the grid, so the neighbours of the interior nodes are
        # the padded array shifted by -ny, -1, +1 and +ny.  A run of n
        # entries from the first interior node covers every interior node,
        # plus the two padding columns between rows, whose face weights
        # are 0 and whose results apply drops.  The buffers are reused, so
        # apply is not reentrant.
        nxi, nyi = self.diag.shape
        w = nyi + 2
        n = (nxi - 1) * w + nyi

        def rows(a):
            out = np.zeros((nxi, w))
            out[:, :nyi] = a
            return out.ravel()[:n]

        left, right, down, up = _node_faces(self.wx, self.wy)
        # -(left v) rounds as (-left) v: IEEE products are sign-symmetric
        self._faces = (rows(-left), rows(right), rows(down), rows(up))
        self._diag = rows(self.diag)
        self._padded = np.zeros((nxi + 2) * w)
        self._out = np.zeros(nxi * w)
        self._term = np.empty(n)

    def apply(self, v):
        """-L_h v for a flat interior vector v (j fastest), zero outside."""
        neg_left, right, down, up = self._faces
        p, t = self._padded, self._term
        nxi, nyi = self.diag.shape
        w, n = nyi + 2, t.size
        p.reshape(nxi + 2, w)[1:-1, 1:-1] = v.reshape(nxi, nyi)
        c = w + 1                  # padded index of the first interior node
        out = self._out[:n]
        # the terms in the sorted column order of a CSR matrix of -L_h, so
        # each sum rounds as scipy's csr_matvec rounds it, bit for bit
        np.multiply(neg_left, p[c - w:c - w + n], out=out)
        out -= np.multiply(down, p[c - 1:c - 1 + n], out=t)
        out += np.multiply(self._diag, p[c:c + n], out=t)
        out -= np.multiply(up, p[c + 1:c + 1 + n], out=t)
        out -= np.multiply(right, p[c + w:c + w + n], out=t)
        return self._out.reshape(nxi, w)[:, :nyi].ravel()


def assemble_linear(q11, q22, grid, rhs=0.0, boundary=0.0):
    """Assemble the interior 5-point system for frozen coefficients.

    Face coefficients are harmonic means of the nodal q values, so an exact
    zero on one side closes the face.  No matrix is built: the system is
    the face weights, diag = ((left + right) + down) + up, and rhs = -f +
    w g over the faces (i-1, j), (i+1, j), (i, j-1), (i, j+1) in turn, with
    g = 0 inside.  Each sum runs in the order of a CSR assembly of the same
    operator, so the values match it bit for bit.  Raises
    SingularSystemError when some interior connected component (under
    positive faces) touches no boundary node, reporting the island nodes.
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
    left, right, down, up = _node_faces(wx, wy)
    diag = ((left + right) + down) + up

    g = np.where(grid.boundary_mask(), _grid_values(grid, boundary), 0.0)
    b = -_grid_values(grid, rhs)[1:-1, 1:-1]
    b += left * g[:-2, 1:-1]
    b += right * g[2:, 1:-1]
    b += down * g[1:-1, :-2]
    b += up * g[1:-1, 2:]

    _audit_connectivity(grid, wx, wy)
    return LinearSystem(grid=grid, rhs=b.ravel(), boundary_values=g,
                        wx=wx, wy=wy, diag=diag)


def _audit_connectivity(grid, wx, wy):
    """Find interior components with no positive-face path to the boundary."""
    # all x-faces (or all y-faces) positive: every node reaches the
    # boundary by a straight walk in x (or in y), so no island can exist
    if np.all(wx > 0) or np.all(wy > 0):
        return
    # no bundled config gets here, so scipy.sparse loads only when needed
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    nx, ny = grid.shape
    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    rows = np.concatenate([idx[:-1][wx > 0], idx[:, :-1][wy > 0]])
    cols = np.concatenate([idx[1:][wx > 0], idx[:, 1:][wy > 0]])
    g = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    _, labels = connected_components(g, directed=False)
    bmask = grid.boundary_mask().ravel()
    bad = np.flatnonzero(~np.isin(labels, labels[bmask]) & ~bmask)
    if bad.size:
        nodes = [(int(k // ny), int(k % ny)) for k in bad]
        raise SingularSystemError(
            f"{len(nodes)} interior nodes form degeneracy islands with no "
            f"boundary connection (first: {nodes[:5]})", nodes)


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


def _separable_inverse(system):
    """P^-1 of the column-averaged separable operator.

    Interior unknowns are ordered (i, j) with j fastest.  P's x-faces are
    the system's x-faces averaged over the interior rows and its y-faces
    (weight a_y per column) the y-faces averaged over the column, so
    P = Tx (x) I + diag(a_y) (x) Ty with Ty = tridiag(-1, 2, -1).  The
    orthonormal DST-I along y diagonalises Ty (eigenvalues
    2 - 2 cos(pi k / (ny_int + 1))); the sine modes then decouple into
    tridiagonal systems Tx + lam_k diag(a_y), solved as one banded system
    with the modes stacked end to end.
    """
    ax = system.wx[:, 1:-1].mean(axis=1)          # faces i-(i+1), i < nx-1
    ay = system.wy[1:-1].mean(axis=1)             # interior columns
    nxi, nyi = ay.size, system.wy.shape[1] - 1
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nyi + 1) / (nyi + 1))
    off = np.tile(np.append(-ax[1:-1], 0.0), nyi)  # no coupling across modes
    ab = np.zeros((3, nxi * nyi))
    ab[0, 1:] = off[:-1]
    ab[1] = ((ax[:-1] + ax[1:])[None, :] + lam[:, None] * ay[None, :]).ravel()
    ab[2, :-1] = off[:-1]

    def apply(r):
        rhat = dst(r.reshape(nxi, nyi), type=1, norm="ortho", axis=1)
        uhat = solve_banded((1, 1), ab, rhat.T.ravel())
        return idst(uhat.reshape(nyi, nxi).T, type=1, norm="ortho",
                    axis=1).ravel()

    return apply


def _dot(a, b):
    """a . b as numpy's pairwise sum, which runs in this thread only and
    rounds the same whatever the BLAS thread count."""
    return float(np.add.reduce(a * b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def cg(A, b, x0=None, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradients for A x = b; returns (x, info).

    A and M are callables v -> A v and r -> M^-1 r.  The recurrence is
    scipy.sparse.linalg.cg's: the residual is tested before each step
    against max(atol, rtol |b|), callback(x) runs once per step, and info
    is 0 on convergence or maxiter when the steps ran out.  Inner products
    and norms are pairwise sums (_dot), so from a cold start the iteration
    count is scipy's and x agrees with it to rounding.  x0 is not modified.
    """
    bnrm2 = _norm(b)
    atol = max(atol, rtol * bnrm2)
    if bnrm2 == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A(x) if x.any() else b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, 0
        z = M(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_linear(system, spec=None, stats=None, x0=None):
    """Solve the assembled system; returns the full-grid DiscreteFunction.

    Conjugate gradients (cg) preconditioned by the column-averaged
    separable operator (see the module docstring): one iteration when the
    system is separable, a mesh-independent handful under the quasilinear
    sandwich.  x0, a flat interior vector, starts CG there instead of at
    zero.  CG stops at relative residual spec.lin_tol (spec a SolverSpec,
    SolverSpec() when None) and raises SolverError when the true residual,
    a pairwise-summed norm like CG's own, still misses it after
    spec.lin_max_iter iterations.  When given, stats records the
    iterations.
    """
    spec = spec or SolverSpec()
    b = system.rhs
    if np.any(system.diag <= 0):
        raise SingularSystemError("zero diagonal in assembled system")
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    atol = spec.lin_tol * max(_norm(b), 1.0)
    x, info = cg(system.apply, b, x0, rtol=spec.lin_tol, atol=atol,
                 maxiter=spec.lin_max_iter, M=_separable_inverse(system),
                 callback=count)
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
    linear solve.
    """
    spec = spec or SolverSpec()
    grid = env.base.grid

    def frozen_solve(z, previous=None):
        a11, a22 = env.coefficients(z)
        system = assemble_linear(a11, a22, grid, spec.rhs, boundary)
        x0 = None if previous is None else previous.values[1:-1, 1:-1].ravel()
        return solve_linear(system, spec, stats, x0)

    u_k = u_star = frozen_solve(np.zeros(grid.shape))
    best, best_res = u_k, math.inf
    residuals = []
    for it in range(1, spec.fp_max_iter + 1):
        u_star = frozen_solve(u_k.values, u_star)
        u_next = DiscreteFunction(
            grid=grid, values=(1.0 - spec.theta) * u_k.values
            + spec.theta * u_star.values)
        res = float(np.max(np.abs(u_next.values - u_k.values)))
        residuals.append(res)
        if res < best_res:
            best, best_res = u_next, res
        u_k = u_next
        if res <= spec.fp_tol:
            return QuasilinearResult(u=u_k, converged=True, iterations=it,
                                     residuals=residuals)
    return QuasilinearResult(u=best, converged=False,
                             iterations=spec.fp_max_iter, residuals=residuals)


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
