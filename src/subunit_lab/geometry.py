"""Ball-measure analytics: volume curves, non-doubling order, boxes.

Volumes are the Lebesgue measure of the piecewise-linear ball
|B(x, s)| = |{d_h < s}|, where d_h interpolates the nodal distances
linearly on the two triangles of every grid cell.  V(s) is continuous and
piecewise quadratic in s with breakpoints at the nodal values, so the
5/4 jump is located between nodes instead of on the staircase that whole
rows of nodes entering at once produce on a degenerate axis.  The node
count #{nodes with d < s} is kept as the resolution floor: balls holding
fewer than MIN_BALL_NODES nodes are refused outright.

The non-doubling order delta_x(r) is the smallest radius increment with
|B(r + delta)| / |B(r)| >= 5/4, found by bisection on the monotone volume
function; the upper window |B(r + delta)|/|B(r)| <= 2C is enforced by
calibrating C.  All r -> 0 statements become trend tests on the
resolvable dyadic band.

Oscillation chains run on box grids: radius rho around (x0, y0) is
measured on its own grid over [x0 +- rho] x [y0 +- rho F] plus a collar,
with F the largest subunit y-speed over the box, so every chain ball
carries the same node budget however thin it is on the global grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, RangeError, ResolutionError
from .forms import assemble_form
from .grid import GridSpec
from .metric import ball, solve_distance

MIN_BALL_NODES = 25
RATIO_LOW = 1.25          # the 5/4 side of the non-doubling window
_SNAP = 1e-6              # relative vertex gap below which a triangle piece
                          # is merged away (bounds the quadratic coefficients)
_FLAT = 1e-4              # width c - a, relative to max(1, c), below which a
                          # triangle is a step at a: a quadratic piece of width
                          # w rounds by about eps (c/w)^2 of its area, and
                          # every larger radius's running sum keeps that error
BOX_COLLAR_CELLS = 3
CHECK_COLLAR_CELLS = 1.0  # nodes within this many cells of a box face or
                          # ball edge are not judged (discretization collar)
DELTA_RESOLUTION = 1e-9   # bisection stop, relative to the radius band
DOUBLING_SLOPE_TOL = 0.25


class VolumeFunction:
    """s -> |{d_h < s}| for the piecewise-linear interpolant of a field.

    On a triangle of area A with sorted vertex values a <= b <= c the
    sublevel area is A (s-a)^2/((b-a)(c-a)) on [a, b], A - A (c-s)^2/
    ((c-a)(c-b)) on [b, c] and A above c.  The per-triangle coefficient
    changes are summed once in breakpoint order, so a query is one
    searchsorted plus a quadratic.  A triangle narrower than _FLAT
    max(1, c) is a step at a, whose error stays inside [a, c].  Triangles
    touching a node with a non-finite distance lie outside every ball.  Queries beyond the
    field's reach raise RangeError: a bounded march leaves the triangles
    there out.
    """

    def __init__(self, field):
        d = field.values
        self.reach = field.reach
        area = 0.5 * field.grid.cell_area
        p00, p11 = d[:-1, :-1].ravel(), d[1:, 1:].ravel()
        tri = np.stack([np.concatenate([p00, p00]),
                        np.concatenate([d[1:, :-1].ravel(),
                                        d[:-1, 1:].ravel()]),
                        np.concatenate([p11, p11])], axis=1)
        tri = tri[np.all(np.isfinite(tri), axis=1)]
        tri.sort(axis=1)
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        w = c - a
        flat = w <= _FLAT * np.maximum(1.0, c)   # on each triangle's scale
        w = np.where(flat, 1.0, w)
        b = np.where(c - b < _SNAP * w, c, b)
        b = np.where((b - a < _SNAP * w) | flat, a, b)
        k1 = np.where(b > a, area / (w * np.where(b > a, b - a, 1.0)), 0.0)
        k2 = np.where(c > b, area / (w * np.where(c > b, c - b, 1.0)), 0.0)
        z = np.zeros_like(a)
        piece1 = np.stack([k1, -2.0 * k1 * a, k1 * a * a], axis=1)
        piece2 = np.stack([-k2, 2.0 * k2 * c, area - k2 * c * c], axis=1)
        full = np.stack([z, z, z + area], axis=1)
        piece2[flat] = full[flat]          # a flat triangle is a step at a
        breaks = np.concatenate([a, b, c])
        jumps = np.concatenate([piece1, piece2 - piece1, full - piece2])
        order = np.argsort(breaks, kind="stable")
        self.breaks = breaks[order]
        self.coeffs = np.cumsum(jumps[order], axis=0)
        self.total = area * a.size
        self.nodes = np.sort(d[np.isfinite(d)].ravel())

    @property
    def s_max(self):
        """Largest finite nodal distance: every ball beyond it is full, or
        (bounded march) it is at least the reach."""
        return float(self.nodes[-1])

    def _beyond_reach(self, s):
        return RangeError(f"radius {s:g} beyond the field's reach "
                          f"{self.reach:g}")

    def __call__(self, s):
        if s > self.reach:
            raise self._beyond_reach(s)
        k = int(np.searchsorted(self.breaks, s, side="left"))
        if k == 0:
            return 0.0
        if k == self.breaks.size:
            return self.total
        q2, q1, q0 = self.coeffs[k - 1]
        return float((q2 * s + q1) * s + q0)

    def count(self, s):
        """#{nodes with d < s}: the resolution floor of a ball (s scalar or
        array)."""
        if np.max(s) > self.reach:
            raise self._beyond_reach(np.max(s))
        return np.searchsorted(self.nodes, s, side="left")


@dataclass
class BallAnalytics:
    """Per-center volume curve and derived non-doubling quantities."""

    radii: np.ndarray
    volumes: np.ndarray
    measure: VolumeFunction            # |B(center, s)| at any s, and counts
    doubling_ratios: np.ndarray        # |B(2r)|/|B(r)|, nan where 2r out of range
    delta_curve: np.ndarray = None     # filled by fill_delta_curve
    C_doubling: float = None


def volume_curve(field, radii):
    """Measure |B(center, r)| over the given radii.

    Volumes are areas of the piecewise-linear balls {d_h < r}; the node
    count is the resolution floor.  Raises ResolutionError when any
    requested ball holds fewer than MIN_BALL_NODES nodes (below that the ball
    is a handful of cells and no volume estimate is meaningful).
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii[0] <= 0:
        raise DomainError("radii must be positive")
    measure = VolumeFunction(field)
    counts = measure.count(radii)
    if counts.min() < MIN_BALL_NODES:
        r_bad = radii[int(np.argmin(counts))]
        raise ResolutionError(
            f"ball at r={r_bad:g} holds {counts.min()} nodes "
            f"(< {MIN_BALL_NODES}); below the resolution floor")
    volumes = np.array([measure(r) for r in radii])
    ratios = np.full(radii.shape, np.nan)
    for k, r in enumerate(radii):
        if 2.0 * r <= measure.s_max:
            ratios[k] = measure(2.0 * r) / volumes[k]
    return BallAnalytics(radii=radii, volumes=volumes, measure=measure,
                         doubling_ratios=ratios)


def nondoubling_order(analytics, r, C=2.0):
    """Smallest delta with |B(r+delta)| / |B(r)| >= 5/4 (bisection).

    Returns (delta, capped, C_used).  delta is capped at r (doubling at that
    scale) when even |B(2r)|/|B(r)| < 5/4 never happens below the cap.  The
    <= 2C side is asserted for the found delta; when violated, C is raised to
    ratio/2 and returned so the caller can record the calibration.
    """
    if C <= 1.0:
        raise DomainError("C must exceed 1")
    radii = analytics.radii
    if not (radii[0] <= r <= radii[-1]):
        raise RangeError(f"r={r:g} outside measured range "
                         f"[{radii[0]:g}, {radii[-1]:g}]")
    vol = analytics.measure
    v_r = vol(r)
    if v_r <= 0:
        raise ResolutionError(f"empty ball at r={r:g}")
    s_max = vol.s_max
    target = RATIO_LOW * v_r
    resolution = max(1e-12, (radii[-1] - radii[0]) * DELTA_RESOLUTION)

    hi_limit = min(r + r, s_max, radii[-1] + (radii[-1] - radii[0]))
    if vol(min(2.0 * r, s_max)) < target and vol(hi_limit) < target:
        if 2.0 * r > s_max and vol(s_max) < target:
            raise RangeError(
                f"delta search at r={r:g} exits the measured range "
                f"(max radius {s_max:g})")
        return r, True, C
    lo, hi = 0.0, hi_limit - r
    if vol(r + hi) < target:
        raise RangeError(f"delta search at r={r:g} exits the measured range")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if vol(r + mid) >= target:
            hi = mid
        else:
            lo = mid
    delta = hi
    capped = delta >= r
    if capped:
        delta = r
    ratio = vol(r + delta) / v_r
    C_used = C
    if ratio > 2.0 * C:
        C_used = ratio / 2.0
    return float(delta), bool(capped), float(C_used)


def fill_delta_curve(analytics, C=2.0):
    """Extract delta(r) at every measured radius; calibrates C_doubling."""
    deltas = []
    C_run = C
    for r in analytics.radii:
        d, _, C_run = nondoubling_order(analytics, float(r), max(C_run, C))
        deltas.append(d)
    analytics.delta_curve = np.asarray(deltas)
    analytics.C_doubling = C_run
    return analytics


def doubling_classification(analytics):
    """Doubling verdict for the band: delta(r)/r not decaying toward 0.

    Fits the log-log slope of delta(r)/r against r; a slope below
    DOUBLING_SLOPE_TOL in magnitude (flat) or negative (growing as r
    decreases) classifies the band as doubling at the measured scales.
    """
    if analytics.delta_curve is None:
        raise GeometryError("delta curve not filled")
    t = analytics.delta_curve / analytics.radii
    mask = t > 0
    if mask.sum() < 2:
        raise ResolutionError("not enough delta samples to classify")
    slope = np.polyfit(np.log(analytics.radii[mask]), np.log(t[mask]), 1)[0]
    return bool(slope <= DOUBLING_SLOPE_TOL), float(slope)


@dataclass(frozen=True)
class GrowthReport:
    radii: np.ndarray
    g_values: np.ndarray       # g(r), underflows to 0 when (r/delta)^lam > ~700
    log_g: np.ndarray          # ln g(r), always finite; trend runs on this
    increasing: bool


def growth_condition_check(radii, deltas, lam, C):
    """Trend test of g(r) = ln r * ln(1 - exp(-(r/delta)^lambda) / (2C)).

    radii must decrease toward the resolution floor.  The condition holds
    when g increases toward +inf as r -> 0; the desk-scale surrogate is
    min(last third) > max(first third) on the decreasing-r sequence.

    g is strictly positive but collapses below float resolution as soon as
    (r/delta)^lambda exceeds ~700, so the comparison runs on ln g computed
    stably:  ln g = ln|ln r| + ln(-ln(1 - inner)),  with the second term
    replaced by its asymptote -(r/delta)^lambda - ln(2C) once inner
    underflows.
    """
    radii = np.asarray(radii, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if radii.ndim != 1 or radii.shape != deltas.shape or radii.size < 3:
        raise DomainError("need matched r/delta sequences of length >= 3")
    if np.any(np.diff(radii) >= 0):
        raise DomainError("radii must strictly decrease")
    if np.any(deltas <= 0):
        raise DomainError("delta values must be positive")
    if np.any(radii >= 1.0):
        raise DomainError("growth condition is a small-r test; need r < 1")
    power = np.power(radii / deltas, lam)
    with np.errstate(over="ignore", under="ignore"):
        inner = np.exp(-power) / (2.0 * C)
    g = np.log(radii) * np.log1p(-inner)
    log_abs_lnr = np.log(np.abs(np.log(radii)))
    with np.errstate(divide="ignore"):
        tail = np.where(inner > 1e-280,
                        np.log(-np.log1p(-np.maximum(inner, 1e-300))),
                        -power - math.log(2.0 * C))
    log_g = log_abs_lnr + tail
    third = max(1, radii.size // 3)
    increasing = float(np.min(log_g[-third:])) > float(np.max(log_g[:third]))
    return GrowthReport(radii=radii, g_values=g, log_g=log_g,
                        increasing=increasing)


def box_ball(profile, center, rho, R, eps_min, n, domain):
    """Distance field for the ball B(center, rho) on its own box grid.

    The box is [x0 +- rho] x [y0 +- rho F], F = max over |x - x0| <= rho of
    sqrt(f(x)^2 + eps^2), widened by BOX_COLLAR_CELLS cells on every side.  A
    subunit curve shorter than rho cannot leave it, so inside the ball the
    local distance is the one the whole domain would give, on or off the
    degenerate axis alike.  n nodes per axis (odd, so the center is a
    node); eps = eps_min rho / R shrinks the regularization with the box.
    The march reaches rho: only B(center, rho) is ever read.

    GeometryError when the box leaves the domain grid or the ball
    {d < rho} reaches the collar; ResolutionError when n leaves fewer than
    two cells per side inside the collar.
    """
    if n % 2 == 0:
        raise DomainError("box grids need an odd node count")
    if n - 1 < 2 * BOX_COLLAR_CELLS + 4:
        raise ResolutionError(f"a box grid of {n} nodes per axis leaves no "
                              f"cells inside its collar")
    x0, y0 = center
    half = (n - 1) // 2
    core = half - BOX_COLLAR_CELLS
    hx = rho / core
    # x first: f is only evaluated on the domain's x-range
    if x0 - half * hx < domain.x0 or x0 + half * hx > domain.x1:
        raise GeometryError(f"box of radius {rho:g} leaves the domain")
    eps = eps_min * rho / R
    F = math.hypot(profile.value(abs(x0) + rho), eps)
    hy = rho * F / core
    if y0 - half * hy < domain.y0 or y0 + half * hy > domain.y1:
        raise GeometryError(f"box of radius {rho:g} leaves the domain")
    box = GridSpec(x0 - half * hx, x0 + half * hx,
                   y0 - half * hy, y0 + half * hy, n, n)
    field = solve_distance(assemble_form(profile, box), (half, half), eps,
                           rho)
    i, j = np.nonzero(field.values < rho)
    if np.any(np.abs(i - half) > core) or np.any(np.abs(j - half) > core):
        raise GeometryError(f"ball of radius {rho:g} reaches the box collar")
    return field


@dataclass(frozen=True)
class BoxReport:
    r: float
    inner_checked: int
    inner_violations: int
    outer_checked: int
    outer_violations: int

    @property
    def ok(self):
        return self.inner_violations == 0 and self.outer_violations == 0


def box_sandwich(field, r, profile):
    """Check the box sandwich  Q~_r subset B_r subset Q_r  for an axis center.

    Q_r  = [-r, r] x [y0 - r f(r/2), y0 + r f(r/2)]
    Q~_r = [r/2, 3r/4] x [y0 - (r/4) f(r/2), y0 + (r/4) f(r/2)]

    Nodes within CHECK_COLLAR_CELLS of a box face are excluded
    (discretization collar); report-only, returns violation counts.
    """
    grid = field.grid
    cx, cy = grid.node_xy(field.source)
    if abs(cx) > 0.5 * grid.hx:
        raise DomainError("box_sandwich requires a center on the x = 0 axis")
    fr2 = profile.value(r / 2.0)
    X, Y = grid.meshgrid()
    dx_col = CHECK_COLLAR_CELLS * grid.hx
    dy_col = CHECK_COLLAR_CELLS * grid.hy
    d = field.values

    # inner box, shrunk by the collar: all nodes must satisfy d < r
    inner = ((X >= cx + r / 2.0 + dx_col) & (X <= cx + 0.75 * r - dx_col)
             & (np.abs(Y - cy) <= 0.25 * r * fr2 - dy_col))
    inner_bad = inner & ~(d < r)

    # ball must stay inside the outer box inflated by the collar
    in_ball = d < r
    outside_outer = ((np.abs(X - cx) > r + dx_col)
                     | (np.abs(Y - cy) > r * fr2 + dy_col))
    outer_bad = in_ball & outside_outer

    return BoxReport(r=float(r),
                     inner_checked=int(inner.sum()),
                     inner_violations=int(inner_bad.sum()),
                     outer_checked=int(in_ball.sum()),
                     outer_violations=int(outer_bad.sum()))


@dataclass(frozen=True)
class ContainmentReport:
    radii: np.ndarray
    outer_violations: np.ndarray   # nodes of B(x, r) beyond E(x, r) + collar
    alphas: np.ndarray             # largest rho with E(x, rho) subset B(x, r)

    @property
    def ok(self):
        return bool(np.all(self.outer_violations == 0) & np.all(self.alphas > 0))


def containment_check(field, radii):
    """Verify B(x, r) subset E(x, r) (C = 1) and extract alpha_x(r).

    alpha_x(r) is the largest Euclidean radius rho with E(x, rho) subset
    B(x, r); positivity at every sampled r witnesses topology equivalence.
    """
    grid = field.grid
    eu = grid.euclid_from(field.source)
    collar = CHECK_COLLAR_CELLS * math.hypot(grid.hx, grid.hy)
    radii = np.asarray(sorted(float(r) for r in radii))
    outer = np.zeros(radii.size, dtype=int)
    alphas = np.zeros(radii.size)
    for k, r in enumerate(radii):
        mask = ball(field, r)
        outer[k] = int(np.count_nonzero(mask & (eu > r + collar)))
        not_in = ~mask
        if np.any(not_in):
            alphas[k] = float(eu[not_in].min())
        else:
            alphas[k] = float(eu.max())
    return ContainmentReport(radii=radii, outer_violations=outer, alphas=alphas)
