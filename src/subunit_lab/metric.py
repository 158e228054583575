"""Subunit distance fields via a monotone anisotropic eikonal solver.

For the form Q = diag(1, q22) the subunit constraint
(gamma' . xi)^2 <= xi' Q xi for all xi is exactly the ellipse constraint
(g1')^2 + (g2')^2/q22 <= 1, so the regularized subunit distance
d_eps(x0, .) solves the eikonal equation

    (1 + eps^2) (d_x)^2 + (q22 + eps^2) (d_y)^2 = 1.

We discretize with the Godunov upwind scheme and march causally
(fast marching, single pass).  d_eps increases monotonically as eps
decreases.  The pipeline measures every ball on one field, the finest
rung eps_min (one solve_distance per ball).  Only the `dist` subcommand
solves the whole geometric eps ladder (solve_ladder), which checks that
every rung's distances are nodewise no smaller than the rung before it.

A march may stop at a reach: the largest radius its consumers read.  It
then freezes every node below the reach and every node of a grid triangle
touching one (the triangulation geometry.VolumeFunction measures on), and
leaves every other node +inf.  Nodes freeze in value order, so each
finite value is bit-identical to the full march's.  The pipeline's fields
are bounded this way, and distances/*_finest.npz holds only the box of
their frozen nodes; solve_ladder, and with it `dist`, marches the whole
grid.

The marching loop runs in plain Python, not on numpy scalars, over the
grid padded by one sentinel ring.  Sentinel nodes are frozen, hold +inf
and are never updated, so the loop needs no bounds checks.  The x
direction's coefficient 1 + eps^2 is the same at every node, so its
quadratic coefficient and one-sided step are two scalars.  The march
keeps two per-node tables, the y direction's quadratic coefficient BY
and one-sided step SY: array('d') buffers, 8 bytes a node, which numpy
fills once through a view of their memory (each entry the same correctly
rounded IEEE operation as a per-node evaluation); as lists they held a
Python float object for every node, 32 bytes each.  The values stay a
list: the loop reads them at every neighbour update, an array('d') boxes
a new float on each read, and as one they made the march of the bench's
exp-picard ball about 4% slower.  The frozen flags are a bytearray.
Ties in the causal ordering break by linear node index, so results are
bit-deterministic.
"""

import heapq
import math
from array import array
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, DomainError, MonotonicityError, RangeError
from .grid import GridSpec

# relative drop a rung may show against the coarser rung before it
MONOTONICITY_TOL = 1e-9


@dataclass(frozen=True)
class DistanceField:
    """Distance values from one source node at one regularization level
    (+inf on nodes the march never reached).  Balls and volumes are exact
    up to radius reach (see solve_distance) and refused beyond it."""

    grid: GridSpec
    source: tuple
    epsilon: float
    values: np.ndarray
    reach: float = math.inf

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass
class FmmStats:
    """Work counters of the fast-marching solves one caller made."""

    fmm_solves: int = 0
    fmm_nodes: int = 0      # frozen (reached) nodes, summed over solves
    reaches: list = dc_field(default_factory=list)  # metric_stage's, per ball

    def record(self, field):
        self.fmm_solves += 1
        self.fmm_nodes += int(np.count_nonzero(np.isfinite(field.values)))


def dilate(mask):
    """mask and the four axis neighbours of every mask node."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _triangle_neighbourhood(mask):
    """mask and every node sharing a grid triangle with a mask node.

    Each cell splits along its (i, j)-(i+1, j+1) diagonal, so a node's
    triangle neighbours are its four axis neighbours, (i+1, j+1) and
    (i-1, j-1)."""
    out = dilate(mask)
    out[1:, 1:] |= mask[:-1, :-1]
    out[:-1, :-1] |= mask[1:, 1:]
    return out


def solve_distance(form, source, epsilon, reach=math.inf):
    """Fast-marching solve of the regularized subunit eikonal equation.

    source: (i, j) node.  epsilon must be positive and finite.  The march
    stops once every node below reach, and every node of a grid triangle
    touching one, is frozen; all other nodes are +inf.  Frozen values equal
    the full march's bit for bit (reach = inf marches the whole grid).

    The march runs over the grid padded by one sentinel ring, on the x
    direction's scalars AX and SX, the array('d') tables BY and SY (1.0 on
    the sentinels), a list of values and a bytearray of frozen flags (see
    the module docstring for why the values are a list).  Sentinels are
    frozen from the start, hold +inf and are never updated, so no
    neighbour lookup needs a bounds check: a frozen +inf neighbour never
    lowers an upwind minimum.  The heap holds (value, padded index);
    row-major padding preserves the order of linear node indices, so ties
    in the causal ordering break by linear node index and results are
    bit-deterministic.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be positive and finite",
                          "metric.epsilon")
    grid = form.grid
    if not grid.contains_node(source):
        raise DomainError(f"source node {source} outside grid")
    nx, ny = grid.shape
    hx, hy = grid.hx, grid.hy
    w = ny + 2                       # padded row stride
    size = (nx + 2) * w

    def table():
        """A padded per-node table, 1.0 on the sentinels, and a writable
        numpy view of its interior."""
        t = array("d", [1.0]) * size
        return t, np.frombuffer(t).reshape(nx + 2, w)[1:-1, 1:-1]

    # quadratic coefficients and one-sided steps: AX = alpha / hx^2 and
    # SX = hx / sqrt(alpha) for alpha = 1 + eps^2, the same at every node;
    # BY and SY likewise from beta = q22 + eps^2, per node, written by
    # numpy straight into the tables
    e2 = epsilon * epsilon
    alpha = 1.0 + e2
    AX = alpha / (hx * hx)
    SX = hx / math.sqrt(alpha)
    BY, by = table()
    SY, sy = table()
    coef = np.add(form.q22, e2)       # beta, y-direction coefficient
    np.divide(coef, hy * hy, out=by)
    np.divide(hy, np.sqrt(coef, out=sy), out=sy)
    del coef

    inf = math.inf
    values = [inf] * size
    frozen = bytearray(b"\x01") * size
    np.frombuffer(frozen, dtype=np.uint8).reshape(nx + 2, w)[1:-1, 1:-1] = 0
    src = (source[0] + 1) * w + source[1] + 1
    values[src] = 0.0
    heap = [(0.0, src)]
    sqrt = math.sqrt
    heappop, heappush = heapq.heappop, heapq.heappush
    keep = None          # nodes to freeze, fixed at the first pop >= reach
    pending = 0          # of them, those not frozen yet

    while heap:
        d, p = heappop(heap)
        if frozen[p]:
            continue
        if d >= reach:
            if keep is None:
                # every node frozen so far lies below reach (value order)
                f = np.frombuffer(frozen, dtype=np.uint8).reshape(nx + 2, w)
                below = np.zeros(f.shape, dtype=bool)
                below[1:-1, 1:-1] = f[1:-1, 1:-1]    # not the sentinels
                keep = _triangle_neighbourhood(below)
                todo = bytearray((keep & (f == 0)).tobytes())
                pending = todo.count(1)
            if not pending:
                break
            pending -= todo[p]
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
                B = BY[nb]
                S = AX + B
                P = AX * a + B * b
                disc = P * P - S * (AX * a * a + B * b * b - 1.0)
                if disc >= 0.0:
                    cand = (P + sqrt(disc)) / S
                    if cand >= a and cand >= b:
                        u = cand
            if u == inf:
                # one-sided fallback (causality not met or single neighbor)
                if a < inf:
                    u = a + SX
                if b < inf:
                    t = b + SY[nb]
                    if t < u:
                        u = t
            if u < values[nb]:
                values[nb] = u
                heappush(heap, (u, nb))

    vals = np.array(values).reshape(nx + 2, w)
    if keep is not None:
        vals[~keep] = inf
    return DistanceField(grid=grid, source=tuple(source), epsilon=float(epsilon),
                         values=vals[1:-1, 1:-1].copy(), reach=float(reach))


def solve_ladder(form, source, epsilons):
    """Distance fields over a decreasing eps ladder (independent solves).

    The rungs are the sorted, de-duplicated epsilons, largest first.  Each
    rung's values must be nodewise no smaller than the rung before it
    (exact for the monotone scheme); a drop beyond MONOTONICITY_TOL
    relative to the coarser value raises MonotonicityError.
    """
    eps = sorted(set(float(e) for e in epsilons), reverse=True)
    fields = [solve_distance(form, source, e) for e in eps]
    for f1, f2 in zip(fields, fields[1:]):
        drop = f1.values - f2.values
        bad = drop > MONOTONICITY_TOL * (1.0 + np.abs(f1.values))
        if np.any(bad):
            i, j = np.unravel_index(np.argmax(drop), f1.values.shape)
            raise MonotonicityError(
                f"distance decreased by {drop[i, j]:.3e} at node ({i}, {j}) "
                f"between eps={f1.epsilon} and eps={f2.epsilon}")
    return fields


def ball(field, r):
    """Open metric ball as a boolean node mask: {values < r}.

    RangeError for r beyond the field's reach, where +inf nodes would read
    as outside the ball."""
    if r <= 0.0:
        raise DomainError("ball radius must be positive")
    if r > field.reach:
        raise RangeError(f"ball radius {r:g} beyond the field's reach "
                         f"{field.reach:g}")
    return field.values < r

