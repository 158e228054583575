"""Rectangular grid description shared by all modules.

Nodes live at x_i = x0 + i*hx, y_j = y0 + j*hy with i in [0, nx), j in [0, ny).
Arrays over the grid are indexed [i, j] (x first).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class GridSpec:
    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ConfigError("grid needs at least 3 nodes per axis", "grid.nx/ny")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ConfigError("domain must have positive extent", "grid.domain")

    @property
    def hx(self):
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self):
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def cell_area(self):
        return self.hx * self.hy

    @property
    def shape(self):
        return (self.nx, self.ny)

    def xs(self):
        return self.x0 + self.hx * np.arange(self.nx)

    def ys(self):
        return self.y0 + self.hy * np.arange(self.ny)

    def meshgrid(self):
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def node_xy(self, node):
        i, j = node
        return (self.x0 + i * self.hx, self.y0 + j * self.hy)

    def nearest_node(self, x, y):
        fi, fj = (x - self.x0) / self.hx, (y - self.y0) / self.hy
        # the coarse test first: round() of an overflowed quotient raises
        if -1 < fi < self.nx and -1 < fj < self.ny:
            i, j = int(round(fi)), int(round(fj))
            if 0 <= i < self.nx and 0 <= j < self.ny:
                return (i, j)
        raise ConfigError(f"point ({x}, {y}) outside the grid", "grid")

    def contains_node(self, node):
        i, j = node
        return 0 <= i < self.nx and 0 <= j < self.ny

    def boundary_mask(self):
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m

    def euclid_from(self, node):
        """Euclidean distance of every node to the given node."""
        cx, cy = self.node_xy(node)
        X, Y = self.meshgrid()
        return np.hypot(X - cx, Y - cy)

    def boundary_distance(self, node):
        """Euclidean distance from a node to the domain boundary."""
        x, y = self.node_xy(node)
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    def bilinear(self, values, X, Y):
        """Bilinear interpolant of nodal values at the points (X, Y).

        Returns (interpolated, error) where error bounds the interpolation
        error by (hx^2 |u_xx| + hy^2 |u_yy|)/8, with the second derivatives
        taken as second differences over the cells the points touch.
        """
        fi = (np.asarray(X, dtype=float) - self.x0) / self.hx
        fj = (np.asarray(Y, dtype=float) - self.y0) / self.hy
        tol = 1e-9
        if (fi.min() < -tol or fi.max() > self.nx - 1 + tol
                or fj.min() < -tol or fj.max() > self.ny - 1 + tol):
            raise DomainError("interpolation points outside the grid")
        i = np.clip(np.floor(fi).astype(int), 0, self.nx - 2)
        j = np.clip(np.floor(fj).astype(int), 0, self.ny - 2)
        tx = np.clip(fi - i, 0.0, 1.0)
        ty = np.clip(fj - j, 0.0, 1.0)
        v = np.asarray(values, dtype=float)
        out = ((1.0 - tx) * ((1.0 - ty) * v[i, j] + ty * v[i, j + 1])
               + tx * ((1.0 - ty) * v[i + 1, j] + ty * v[i + 1, j + 1]))
        w = v[max(i.min() - 1, 0):i.max() + 3, max(j.min() - 1, 0):j.max() + 3]
        dxx = np.abs(np.diff(w, 2, axis=0)).max(initial=0.0)
        dyy = np.abs(np.diff(w, 2, axis=1)).max(initial=0.0)
        return out, float(dxx + dyy) / 8.0
