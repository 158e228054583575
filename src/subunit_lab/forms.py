"""Degeneracy profiles f and the diagonal operator fields they induce.

The model operator is diag(1, f(x)^2) on a rectangular grid.  Profiles:

    constant(c)     f = c
    power(k)        f = |x|^k
    exponential(a)  f = exp(-a/|x|),  f(0) = 0
    paper_model(l)  f = exp(-I(x)),   I(x) = integral_x^1 dt / (t h(t))

with the slowly vanishing helper

    h(x) = (-1 / ln(1 - exp((ln x)^(-1/3))))^(1/l),

where the cube root of the negative number ln x is the real one.  h is
finite and increasing on (0, domain_cap], blows up at 1, and tends to 0
as x -> 0+ far more slowly than any power of ln ln(1/x) would suggest:
h is still ~0.84 at x = exp(-1e6).  The quadrature for I(x) runs in the
log variable t = e^s, where the integrand 1/h(e^s) is smooth and bounded,
by the package's own port of QUADPACK's qags (quadpack.qags), which gives
SciPy's quad bit for bit on the standard library alone.  For x < 1/e it
is split at s = -1, and the tail piece over (-1, 0) is the same for every
such x: it is integrated once per (lambda, quad_tol).  I(|x|) itself is
memoized per (|x|, lambda, quad_tol), so a column x that recurs, in
another grid or in the same one at -x, costs no second quadrature.

A quasilinear envelope multiplies the degenerate entry by a bounded
modulation phi(z), keeping the same form Q as its structural envelope.
Its worst violation of the structural condition
c_phi xi'Q xi <= xi'A(x, z) xi <= C_phi xi'Q xi over every node, z and
direction has a closed form (envelope_violation).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ProfileError, QuadratureError
from .grid import GridSpec

DEFAULT_DOMAIN_CAP = 0.9
DEFAULT_QUAD_TOL = 1e-10


def lambda_from_sigma(sigma):
    """Continuity-theorem exponent l = (5*sigma - 1)/(sigma - 1)."""
    if sigma <= 1:
        raise DomainError("sigma must exceed 1")
    return (5.0 * sigma - 1.0) / (sigma - 1.0)


def eval_h(x, lam, domain_cap=DEFAULT_DOMAIN_CAP):
    """Helper h(x) of the slow model; finite, positive, increasing in x.

    Raises DomainError outside (0, domain_cap): the inner logarithm
    degenerates as x -> 1-.
    """
    if not 0.0 < x < domain_cap:
        raise DomainError(f"h defined on (0, {domain_cap}), got x={x}")
    if lam <= 1.0:
        raise DomainError("lambda must exceed 1")
    return eval_h_log(math.log(x), lam, domain_cap)


def eval_h_log(ln_x, lam, domain_cap=DEFAULT_DOMAIN_CAP):
    """h evaluated from ln x, reaching arguments that underflow float64
    (the vanishing tail only bites around x = exp(-1e6))."""
    if not ln_x < math.log(domain_cap):
        raise DomainError(f"need ln x < ln({domain_cap})")
    if lam <= 1.0:
        raise DomainError("lambda must exceed 1")
    # t = (ln x)^(-1/3) < 0; 1 - exp(t) computed as -expm1(t) for accuracy
    t = -abs(ln_x) ** (-1.0 / 3.0)
    inner = -math.expm1(t)
    return (-1.0 / math.log(inner)) ** (1.0 / lam)


def _inv_h_logvar(s, lam):
    # integrand 1/h(e^s) of I(x) in the log variable; 0 at s = 0 (x = 1)
    if s >= -1e-16:
        return 0.0
    t = -abs(s) ** (-1.0 / 3.0)
    inner = -math.expm1(t)
    return (-math.log(inner)) ** (1.0 / lam)


def _quad_piece(a, b, lam, quad_tol):
    """(value, error estimate) of the integral of 1/h(e^s) over (a, b)."""
    # imported here: only paper_model integrates, so a run on another
    # profile never loads (and, without cached bytecode, never compiles)
    # the module
    from .quadpack import qags
    return qags(lambda s: _inv_h_logvar(s, lam), a, b, epsabs=quad_tol,
                epsrel=10.0 * quad_tol, limit=200)


@functools.lru_cache(maxsize=None)
def _tail_piece(lam, quad_tol):
    # the piece over (-1, 0) does not depend on x
    return _quad_piece(-1.0, 0.0, lam, quad_tol)


@functools.lru_cache(maxsize=1 << 14)
def _log_integral(x, lam, quad_tol):
    """I(x) = integral_x^1 dt/(t h(t)) for 0 < x < 1, by Gauss-Kronrod
    quadrature (quadpack.qags) in s = ln t.  Memoized per (x, lambda,
    quad_tol); the LRU bound keeps a long-lived process from growing the
    memo without limit.

    Split at s = -1: on (-1, 0) the integrand is flat-zero to all orders
    at the endpoint (x near 1), which defeats a single adaptive pass.
    The tail piece over (-1, 0) does not depend on x, so it is
    integrated once per (lambda, quad_tol) (_tail_piece); the sums, the
    error estimate and its budget are those of two fresh qags calls.
    x >= 1/e takes one pass over (ln x, 0).  Raises QuadratureError when
    the summed error estimate exceeds 100 quad_tol max(1, I); a raise is
    not memoized, so asking again raises again.
    """
    lo = math.log(x)
    if lo < -1.0:
        pieces = [_quad_piece(lo, -1.0, lam, quad_tol),
                  _tail_piece(lam, quad_tol)]
    else:
        pieces = [_quad_piece(lo, 0.0, lam, quad_tol)]
    val = err = 0.0
    for v, e in pieces:
        val += v
        err += e
    budget = 100.0 * quad_tol * max(1.0, abs(val))
    if err > budget:
        raise QuadratureError(
            f"I({x}) error estimate {err:.3e} exceeds budget {budget:.3e}")
    return val


@dataclass(frozen=True)
class DegeneracyProfile:
    """One-dimensional degeneracy factor f, even in x, nondecreasing on R+."""

    kind: str                      # constant | power | exponential | paper_model
    param: float
    domain_cap: float = DEFAULT_DOMAIN_CAP
    quad_tol: float = DEFAULT_QUAD_TOL

    def __post_init__(self):
        if self.kind not in ("constant", "power", "exponential", "paper_model"):
            raise ProfileError(f"unknown profile kind {self.kind!r}", "kind")
        if not math.isfinite(self.param):
            raise ProfileError("profile parameter must be finite", "param")
        if self.kind == "paper_model":
            if not 1.0 < self.param:
                raise ProfileError("paper_model lambda must exceed 1", "param")
            if not 0.0 < self.domain_cap < 1.0:
                raise ProfileError("domain_cap must lie in (0, 1)",
                                   "domain_cap")
            if not 0.0 < self.quad_tol < math.inf:
                raise ProfileError("quad_tol must be positive and finite",
                                   "quad_tol")
        elif self.param < 0:
            raise ProfileError("profile parameter must be nonnegative",
                               "param")

    def _value_pos(self, x):
        # x > 0 assumed
        if self.kind == "constant":
            return self.param
        if self.kind == "power":
            return x ** self.param if self.param > 0 else 1.0
        if self.kind == "exponential":
            return math.exp(-self.param / x)
        return math.exp(-_log_integral(x, self.param, self.quad_tol))

    def value(self, x):
        """f(|x|): even extension, f(0) = 0 for the vanishing profiles."""
        ax = abs(float(x))
        if self.kind == "constant":
            return self.param
        if ax == 0.0:
            return 0.0 if self.kind in ("exponential", "paper_model") else \
                (0.0 if self.param > 0 else 1.0)
        if self.kind == "paper_model" and ax >= self.domain_cap:
            raise DomainError(
                f"paper_model restricted to |x| < {self.domain_cap}, got {x}")
        return self._value_pos(ax)

    def log_value(self, x):
        """ln f(|x|); -inf at a genuine zero.  Usable far below underflow."""
        ax = abs(float(x))
        if ax == 0.0 and self.kind != "constant":
            return -math.inf
        if self.kind == "constant":
            return math.log(self.param)
        if self.kind == "power":
            return self.param * math.log(ax)
        if self.kind == "exponential":
            return -self.param / ax
        if ax >= self.domain_cap:
            raise DomainError(
                f"paper_model restricted to |x| < {self.domain_cap}, got {x}")
        return -_log_integral(ax, self.param, self.quad_tol)


@dataclass(frozen=True)
class QuadraticFormField:
    """Diagonal nonnegative form Q = diag(q11, q22) sampled on a grid."""

    grid: GridSpec
    q11: np.ndarray
    q22: np.ndarray
    profile: DegeneracyProfile | None = None
    underflow_radius: float = 0.0   # largest |x| whose q22 column is exactly 0

    def __post_init__(self):
        if self.q11.shape != self.grid.shape or self.q22.shape != self.grid.shape:
            raise DomainError("q11/q22 shape does not match the grid")
        if np.any(self.q11 < 0) or np.any(self.q22 < 0):
            raise DomainError("form entries must be nonnegative")
        self.q11.setflags(write=False)
        self.q22.setflags(write=False)


def assemble_form(profile, grid):
    """Model field q11 = 1, q22 = f(x)^2 on the grid."""
    xs = grid.xs()
    if profile.kind == "paper_model" and np.max(np.abs(xs)) >= profile.domain_cap:
        raise DomainError("grid x-range exceeds the paper_model domain cap")
    fvals = np.array([profile.value(x) for x in xs])
    q22_col = fvals ** 2
    zero_cols = np.abs(xs)[q22_col == 0.0]
    underflow_radius = float(zero_cols.max()) if zero_cols.size else 0.0
    q11 = np.ones(grid.shape)
    q22 = np.broadcast_to(q22_col[:, None], grid.shape).copy()
    return QuadraticFormField(grid=grid, q11=q11, q22=q22, profile=profile,
                              underflow_radius=underflow_radius)


# the open range of default_phi, approached as z -> -inf and z -> +inf
PHI_RANGE = (1.0, 3.0)


def default_phi(z):
    """Bounded modulation for the quasilinear demo, range PHI_RANGE."""
    return 2.0 + np.tanh(z)


@dataclass(frozen=True)
class QuasilinearEnvelope:
    """A(x, z) = diag(q11, phi(z) q22)."""

    base: QuadraticFormField
    phi: callable = default_phi

    def coefficients(self, z):
        """Frozen diagonal (a11, a22) at modulation state z (scalar or array)."""
        return self.base.q11, self.phi(z) * self.base.q22


def envelope_violation(form, c_phi, C_phi):
    """Worst relative violation of c_phi xi'Q xi <= xi'A xi <= C_phi xi'Q xi
    for A = diag(q11, default_phi(z) q22), over every node of form, every
    z and every direction xi, floored at 0.

    The quotient xi'A xi / xi'Q xi is 1 along e1 (q11 carries no phi),
    phi(z) along e2 where q22 > 0, and a convex mix of the two in
    between.  So its infimum and supremum over the grid are those of {1}
    and PHI_RANGE, or of {1} alone when q22 is 0 at every node.
    """
    ratios = (1.0,) + (PHI_RANGE if np.any(form.q22 > 0) else ())
    return max(0.0, c_phi - min(ratios), max(ratios) - C_phi)
