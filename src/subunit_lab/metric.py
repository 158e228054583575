"""Subunit distance fields via a monotone anisotropic eikonal solver.

For a diagonal form Q = diag(q11, q22) the subunit constraint
(gamma' . xi)^2 <= xi' Q xi for all xi is exactly the ellipse constraint
(g1')^2/q11 + (g2')^2/q22 <= 1, so the regularized subunit distance
d_eps(x0, .) solves the eikonal equation

    (q11 + eps^2) (d_x)^2 + (q22 + eps^2) (d_y)^2 = 1.

We discretize with the Godunov upwind scheme and march causally
(fast marching, single pass).  d_eps increases monotonically as eps
decreases.  The pipeline measures every ball on one field, the finest
rung eps_min (one solve_distance per ball).  Only the `dist` subcommand
solves the whole geometric eps ladder (solve_ladder) and estimates the
eps -> 0 limit by Richardson extrapolation (extrapolate_distance), which
also checks the nodewise eps-monotonicity.

The marching loop works on plain Python lists and a bytearray, not numpy
scalars, over the grid padded by one sentinel ring.  Sentinel nodes are
frozen, hold +inf and are never updated, so the loop needs no bounds
checks.  Per-node coefficients are computed once with numpy (each one the
same correctly rounded IEEE operation as a per-node evaluation).  Ties in
the causal ordering break by linear node index, so results are
bit-deterministic.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, MonotonicityError
from .grid import GridSpec


@dataclass(frozen=True)
class DistanceField:
    """Distance values from one source node at one regularization level.

    epsilon == 0 marks an extrapolated limit field; frozen_mask is False on
    nodes judged unreachable in the limit (value beyond diam(Omega)/eps_min).
    error_bar is set only on extrapolated fields (last ladder increment).
    """

    grid: GridSpec
    source: tuple
    epsilon: float
    values: np.ndarray
    frozen_mask: np.ndarray
    error_bar: np.ndarray | None = None

    def __post_init__(self):
        self.values.setflags(write=False)
        self.frozen_mask.setflags(write=False)

    def slack(self):
        """Discretization slack declared for this grid (first-order scheme)."""
        return 2.0 * max(self.grid.hx, self.grid.hy)


@dataclass
class FmmStats:
    """Work counters of the fast-marching solves one caller made."""

    fmm_solves: int = 0
    fmm_nodes: int = 0      # frozen (reached) nodes, summed over solves

    def record(self, field):
        self.fmm_solves += 1
        self.fmm_nodes += int(np.count_nonzero(field.frozen_mask))


def solve_distance(form, source, epsilon):
    """Fast-marching solve of the regularized subunit eikonal equation.

    source: (i, j) node.  epsilon must be positive and finite; the eps = 0
    limit is the job of extrapolate_distance.

    The march runs on Python lists over the grid padded by one sentinel
    ring.  Sentinels are frozen from the start, hold +inf and are never
    updated, so no neighbour lookup needs a bounds check: a frozen +inf
    neighbour never lowers an upwind minimum.  The heap holds
    (value, padded index); row-major padding preserves the order of linear
    node indices, so ties in the causal ordering break by linear node index
    and results are bit-deterministic.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be positive and finite; use "
                          "extrapolate_distance for the limit field",
                          "metric.epsilon")
    grid = form.grid
    if not grid.contains_node(source):
        raise DomainError(f"source node {source} outside grid")
    nx, ny = grid.shape
    hx, hy = grid.hx, grid.hy
    e2 = epsilon * epsilon
    alpha = form.q11 + e2   # x-direction coefficient
    beta = form.q22 + e2    # y-direction coefficient

    def padded(a):
        return np.pad(a, 1, constant_values=1.0).ravel().tolist()

    # per-node quadratic coefficients and one-sided steps
    AX = padded(alpha / (hx * hx))
    BY = padded(beta / (hy * hy))
    SX = padded(hx / np.sqrt(alpha))
    SY = padded(hy / np.sqrt(beta))

    w = ny + 2                       # padded row stride
    inf = math.inf
    values = [inf] * ((nx + 2) * w)
    frozen = bytearray(np.pad(np.zeros((nx, ny), dtype=np.uint8), 1,
                              constant_values=1).tobytes())
    src = (source[0] + 1) * w + source[1] + 1
    values[src] = 0.0
    heap = [(0.0, src)]
    sqrt = math.sqrt
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap:
        _, p = heappop(heap)
        if frozen[p]:
            continue
        frozen[p] = 1
        for nb in (p - w, p + w, p - 1, p + 1):
            if frozen[nb]:
                continue
            # frozen one-sided neighbor minima in each axis
            a = values[nb - w] if frozen[nb - w] else inf
            if frozen[nb + w]:
                t = values[nb + w]
                if t < a:
                    a = t
            b = values[nb - 1] if frozen[nb - 1] else inf
            if frozen[nb + 1]:
                t = values[nb + 1]
                if t < b:
                    b = t
            u = inf
            if a < inf and b < inf:
                A = AX[nb]
                B = BY[nb]
                S = A + B
                P = A * a + B * b
                disc = P * P - S * (A * a * a + B * b * b - 1.0)
                if disc >= 0.0:
                    cand = (P + sqrt(disc)) / S
                    if cand >= a and cand >= b:
                        u = cand
            if u == inf:
                # one-sided fallback (causality not met or single neighbor)
                if a < inf:
                    u = a + SX[nb]
                if b < inf:
                    t = b + SY[nb]
                    if t < u:
                        u = t
            if u < values[nb]:
                values[nb] = u
                heappush(heap, (u, nb))

    vals = np.array(values).reshape(nx + 2, w)[1:-1, 1:-1].copy()
    return DistanceField(grid=grid, source=tuple(source), epsilon=float(epsilon),
                         values=vals, frozen_mask=np.isfinite(vals))


def solve_ladder(form, source, epsilons):
    """Distance fields over a decreasing eps ladder (independent solves)."""
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    return [solve_distance(form, source, e) for e in eps]


def extrapolate_distance(fields, monotonicity_tol=1e-9):
    """Richardson-style eps -> 0 limit of a monotone field ladder.

    Needs >= 3 fields at strictly decreasing eps with identical source and
    grid.  Values must be nodewise nondecreasing as eps decreases (exact for
    the monotone scheme); violations beyond tolerance raise MonotonicityError.
    The per-node error bar is the last increment; nodes whose limit exceeds
    diam(Omega)/eps_min are flagged unreachable.
    """
    if len(fields) < 3:
        raise ConfigError("need at least 3 ladder fields", "metric.ladder")
    eps = [f.epsilon for f in fields]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly decreasing", "metric.ladder")
    g = fields[0].grid
    src = fields[0].source
    if any(f.grid != g or f.source != src for f in fields[1:]):
        raise ConfigError("ladder fields must share source and grid",
                          "metric.ladder")
    for f1, f2 in zip(fields, fields[1:]):
        drop = f1.values - f2.values
        bad = drop > monotonicity_tol * (1.0 + np.abs(f1.values))
        if np.any(bad):
            i, j = np.unravel_index(np.argmax(drop), f1.values.shape)
            raise MonotonicityError(
                f"distance decreased by {drop[i, j]:.3e} at node ({i}, {j}) "
                f"between eps={f1.epsilon} and eps={f2.epsilon}")

    v_prev, v_last = fields[-2].values, fields[-1].values
    d_last = v_last - v_prev
    d_prev = v_prev - fields[-3].values
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(d_prev > 1e-300, d_last / np.maximum(d_prev, 1e-300), 0.0)
    rho = np.clip(rho, 0.0, 0.95)
    limit = v_last + d_last * rho / (1.0 - rho)
    bound = g.diameter / eps[-1]
    reachable = limit <= bound
    limit = np.where(reachable, limit, np.inf)
    return DistanceField(grid=g, source=src, epsilon=0.0, values=limit,
                         frozen_mask=reachable, error_bar=d_last)


def ball(field, r):
    """Open metric ball as a boolean node mask: {values < r}."""
    if r <= 0.0:
        raise DomainError("ball radius must be positive")
    return field.values < r


_STENCILS = {
    8: [(1, 0), (0, 1), (-1, 0), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1)],
    16: [(2, 1), (2, -1), (-2, 1), (-2, -1),
         (1, 2), (1, -2), (-1, 2), (-1, -2)],
    32: [(3, 1), (3, -1), (-3, 1), (-3, -1),
         (1, 3), (1, -3), (-1, 3), (-1, -3),
         (3, 2), (3, -2), (-3, 2), (-3, -2),
         (2, 3), (2, -3), (-2, 3), (-2, -3)],
}


def dijkstra_distance(form, source, epsilon, neighborhood=32):
    """Brute-force anisotropic shortest path on the grid graph (oracle).

    Edge cost between nodes p, q is the Riemannian length of the straight
    segment in the metric dx^2/(q11+eps^2) + dy^2/(q22+eps^2), integrated
    with a 3-point rule along the segment.  A wide neighborhood (up to 32)
    keeps the metrication (angular) error near 1%.  Slow; intended for
    cross-checks on modest grids.
    """
    grid = form.grid
    nx, ny = grid.shape
    hx, hy = grid.hx, grid.hy
    e2 = epsilon * epsilon
    a = form.q11 + e2
    b = form.q22 + e2
    if neighborhood not in (8, 16, 32):
        raise ConfigError("neighborhood must be 8, 16 or 32", "metric.oracle")
    stencil = []
    for size in (8, 16, 32):
        stencil += _STENCILS[size]
        if size == neighborhood:
            break

    n = nx * ny
    dist = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    src = source[0] * ny + source[1]
    dist[src] = 0.0
    heap = [(0.0, src)]
    fractions = (1.0 / 6.0, 0.5, 5.0 / 6.0)
    while heap:
        v, idx = heapq.heappop(heap)
        if done[idx]:
            continue
        done[idx] = True
        i, j = divmod(idx, ny)
        for di, dj in stencil:
            ii, jj = i + di, j + dj
            if not (0 <= ii < nx and 0 <= jj < ny):
                continue
            nb = ii * ny + jj
            if done[nb]:
                continue
            dx, dy = di * hx, dj * hy
            # 3-point sampling of the coefficients along the segment
            w = 0.0
            for s in fractions:
                si = int(round(i + s * di))
                sj = int(round(j + s * dj))
                w += math.sqrt(dx * dx / a[si, sj] + dy * dy / b[si, sj])
            w /= len(fractions)
            cand = v + w
            if cand < dist[nb]:
                dist[nb] = cand
                heapq.heappush(heap, (cand, nb))
    return DistanceField(grid=grid, source=tuple(source), epsilon=float(epsilon),
                         values=dist.reshape(nx, ny),
                         frozen_mask=np.isfinite(dist.reshape(nx, ny)))
