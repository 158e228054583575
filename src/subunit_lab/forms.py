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
h is still ~0.84 at x = exp(-1e6).

I(x) is integrated in v = |ln t|^(1/3): t = exp(-v^3) turns it into

    I(x) = integral_0^V 3 v^2 (-ln(1 - exp(-1/v)))^(1/l) dv,  V = |ln x|^(1/3),

whose integrand is smooth on (0, V] and flat to all orders at v = 0, so
one fixed Gauss-Legendre rule on panels at most 1/8 wide integrates it,
with no adaptivity and no error estimate (_log_integral).  The integrand
is taken in logs, as exp(ln(-ln(1 - e^(-1/v))) / l): at large l,
(e^(-1/v))^(1/l) is still of order 1 where e^(-1/v) has underflowed or
1 - e^(-1/v) has rounded to 1.  Against a 40-digit reference the rule is
within 1e-13 max(1, I) for l from 1.0001 to 1e8 and x from the smallest
subnormal to 0.999999 (tests/test_forms.py).  I(|x|) is memoized per
(|x|, l), so a column x that recurs, in another grid or in the same one
at -x, costs no second quadrature.

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

from .errors import DomainError, ProfileError
from .grid import GridSpec

DEFAULT_DOMAIN_CAP = 0.9


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


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on (-1, 1), by
    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Legendre polynomials' Jacobi matrix, and each weight is twice
    the squared first component of its eigenvector."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vecs[0] ** 2


_ORDER = 16             # Gauss-Legendre nodes per panel
_PANEL = 0.125          # largest panel width in v
_HALVINGS = 30          # geometric split of the first panel toward v = 0
# V = |ln x|^(1/3) is largest at the smallest positive float
_MAX_PANELS = math.ceil((-math.log(5e-324)) ** (1.0 / 3.0) / _PANEL)


def _unit_panels():
    """The rule's nodes and weights for panels of width 1: (0, 1) split
    at 2^-_HALVINGS, ..., 1/2, then (1, 2), ..., up to _MAX_PANELS.  A
    call scales a prefix of them by its own panel width."""
    nodes, weights = _gauss_legendre(_ORDER)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(_HALVINGS, 0, -1),
                            np.arange(1.0, _MAX_PANELS + 1)))
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


_UNIT_NODES, _UNIT_WEIGHTS = _unit_panels()


@functools.lru_cache(maxsize=1 << 14)
def _log_integral(x, lam):
    """I(x) = integral_x^1 dt/(t h(t)) for 0 < x < 1, as the integral of
    3 v^2 (-ln(1 - exp(-1/v)))^(1/lambda) over (0, V), V = |ln x|^(1/3):
    the unit panels' rule scaled to the n = ceil(V / _PANEL) panels of
    width V/n.  Memoized per (x, lambda); the LRU bound keeps a
    long-lived process from growing the memo without limit.
    """
    top = (-math.log(x)) ** (1.0 / 3.0)
    n = math.ceil(top / _PANEL)
    width = top / n
    v = width * _UNIT_NODES[:(_HALVINGS + n) * _ORDER]
    # ln(-ln(1 - e^(-1/v))), kept in logs: (e^(-1/v))^(1/lambda) stays
    # well above 0 long after e^(-1/v) underflows.  Below e^-700 the
    # inner -ln(1 - u) is u to every digit, so its log is -1/v itself
    log_inner = -1.0 / v
    live = log_inner > -700.0
    log_inner[live] = np.log(-np.log1p(-np.exp(log_inner[live])))
    f = v * v * np.exp(log_inner / lam)
    return 3.0 * width * float(np.sum(f * _UNIT_WEIGHTS[:v.size]))


@dataclass(frozen=True)
class DegeneracyProfile:
    """One-dimensional degeneracy factor f, even in x, nondecreasing on R+."""

    kind: str                      # constant | power | exponential | paper_model
    param: float
    domain_cap: float = DEFAULT_DOMAIN_CAP

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
        elif self.param < 0:
            raise ProfileError("profile parameter must be nonnegative",
                               "param")

    def value(self, x):
        """f(|x|): even extension, f(0) = 0 for the vanishing profiles."""
        ax = abs(float(x))
        if self.kind == "constant":
            return self.param
        if self.kind == "power":
            return ax ** self.param
        return math.exp(self.log_value(x))

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
        return -_log_integral(ax, self.param)


@dataclass(frozen=True)
class QuadraticFormField:
    """The form Q = diag(1, q22) sampled on a grid, q22 >= 0.

    The first entry is 1 by construction, as in the paper's
    Q = diag(1, f(x)^2), so only q22 is held."""

    grid: GridSpec
    q22: np.ndarray
    profile: DegeneracyProfile | None = None
    underflow_radius: float = 0.0   # largest |x| whose q22 column is exactly 0

    def __post_init__(self):
        if self.q22.shape != self.grid.shape:
            raise DomainError("q22 shape does not match the grid")
        # min and max carry a NaN through, so this also rejects one
        if not (self.q22.min() >= 0.0 and self.q22.max() < math.inf):
            raise DomainError("form entries must be finite and nonnegative")
        self.q22.setflags(write=False)


def assemble_form(profile, grid):
    """Model field Q = diag(1, f(x)^2) on the grid."""
    xs = grid.xs()
    if profile.kind == "paper_model" and np.max(np.abs(xs)) >= profile.domain_cap:
        raise DomainError("grid x-range exceeds the paper_model domain cap")
    fvals = np.array([profile.value(x) for x in xs])
    q22_col = fvals ** 2
    zero_cols = np.abs(xs)[q22_col == 0.0]
    underflow_radius = float(zero_cols.max()) if zero_cols.size else 0.0
    q22 = np.broadcast_to(q22_col[:, None], grid.shape).copy()
    return QuadraticFormField(grid=grid, q22=q22, profile=profile,
                              underflow_radius=underflow_radius)


# the open range of default_phi, approached as z -> -inf and z -> +inf
PHI_RANGE = (1.0, 3.0)


def default_phi(z):
    """Bounded modulation for the quasilinear demo, range PHI_RANGE."""
    return 2.0 + np.tanh(z)


@dataclass(frozen=True)
class QuasilinearEnvelope:
    """A(x, z) = diag(1, phi(z) q22)."""

    base: QuadraticFormField
    phi: callable = default_phi

    def coefficients(self, z):
        """The frozen a22 = phi(z) q22 at modulation state z (scalar or
        array); a11 is 1."""
        return self.phi(z) * self.base.q22


def envelope_violation(form, c_phi, C_phi):
    """Worst relative violation of c_phi xi'Q xi <= xi'A xi <= C_phi xi'Q xi
    for A = diag(1, default_phi(z) q22), over every node of form, every
    z and every direction xi, floored at 0.

    The quotient xi'A xi / xi'Q xi is 1 along e1, where both forms have
    the unit first entry, phi(z) along e2 where q22 > 0, and a convex mix
    of the two in between.  So its infimum and supremum over the grid are
    those of {1} and PHI_RANGE, or of {1} alone when q22 is 0 at every
    node.
    """
    ratios = (1.0,) + (PHI_RANGE if np.any(form.q22 > 0) else ())
    return max(0.0, c_phi - min(ratios), max(ratios) - C_phi)
