"""Accumulating cutoff sequences and the special logarithmic-estimate cutoff.

Both constructions are piecewise-linear ramps in the value of a regularized
distance field.  The accumulating sequence uses the radii recursion

    r_1 = r - (1 - nu) delta
    r_j = r - (1 - nu) delta * sum_{i=0}^{j-1} (1 - delta/r)^i
        = r * (nu + (1 - nu) (1 - delta/r)^j)      (closed form)

so r_j decreases strictly to nu*r.  psi_j ramps from 1 below r_{j+1} to 0
above r_j; with a single shared distance field the nesting and plateau
properties hold exactly and the per-j gradient bound follows from the ramp
slope times the discrete bound on [grad d]_Q.

The special cutoff phi_r ramps from 1 below r + delta/2 to 0 above r + delta.
This window realizes all three contract properties (support inside
B(y, r + delta), plateau covering B(y, r + delta/2), slope 2/delta) on the
shared field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, RangeError
from .metric import ball


def q_gradient(form, w):
    """[grad w]_Q = sqrt(q11 (Dx w)^2 + q22 (Dy w)^2).

    Centered differences in the interior, one-sided at the boundary.
    """
    grid = form.grid
    w = np.asarray(w, dtype=float)
    if w.shape != grid.shape:
        raise DomainError("w must be defined on the full grid")
    gx = np.gradient(w, grid.hx, axis=0)
    gy = np.gradient(w, grid.hy, axis=1)
    return np.sqrt(form.q11 * gx * gx + form.q22 * gy * gy)


def cutoff_radii(r, nu, delta, j_max):
    """The r_j recursion r_1 > r_2 > ... > nu*r, strictly decreasing.

    Stops early, before appending, at the first radius whose decrement
    from its predecessor falls below 1e-15*r (rounding has then reached
    nu*r)."""
    if not 0.0 < nu < 1.0:
        raise DomainError("nu must lie in (0, 1)")
    if not 0.0 < delta <= r:
        raise DomainError("delta must lie in (0, r]")
    q = 1.0 - delta / r
    radii = []
    for j in range(1, j_max + 2):
        rj = r * (nu + (1.0 - nu) * q ** j)
        if radii and radii[-1] - rj < 1e-15 * r:
            break
        radii.append(rj)
    if radii[-1] < nu * r - 1e-12 * r:
        raise RangeError("radius recursion undershot nu*r (bad delta/r)")
    return radii


@dataclass
class CutoffSequence:
    radii: list          # r_1 ... r_{J+1}
    psi: list            # grid functions psi_1 ... psi_J
    supports: list       # boolean masks E_1 ... E_J
    grad_bounds: list    # observed max [grad psi_j]_Q
    support_ratio: float  # max_j |E_j| / |E_{j+1}|
    grad_envelope: float  # max_j grad_bounds[j] * (1-nu) delta (1-delta/r)^j


def build_sequence(field, form, r, nu, delta, j_max):
    """Construct psi_1..psi_J from one distance field and validate (cutoff).

    The four structural properties are checked before returning:
      - E_1 inside B(center, r), and B(center, nu r) inside every plateau;
      - E_{j+1} inside {psi_j = 1} (exact with the shared field);
      - support ratios |E_j|/|E_{j+1}| finite (reported);
      - ramp slopes consistent with the (1 - delta/r)^j envelope (reported).
    GeometryError on any exact-property failure, which would signal an
    inconsistent delta or field.
    """
    radii = cutoff_radii(r, nu, delta, j_max)
    if field.values[field.source] != 0.0:
        raise GeometryError("field does not vanish at its source")
    d = field.values
    q = 1.0 - delta / r

    psis, supports, grads = [], [], []
    n_j = len(radii) - 1
    for j in range(n_j):
        r_out, r_in = radii[j], radii[j + 1]
        width = r_out - r_in
        if width <= 0:
            break
        psi = np.clip((r_out - d) / width, 0.0, 1.0)
        psis.append(psi)
        supports.append(psi > 0.0)
        grads.append(float(q_gradient(form, psi).max()))
    if not psis:
        raise GeometryError("no usable cutoff members (delta too close to r)")

    ball_r = ball(field, r)
    plateau_core = ball(field, nu * r)
    for j, psi in enumerate(psis):
        if np.any(supports[j] & ~ball_r):
            raise GeometryError(f"support of psi_{j+1} leaves B(center, r)")
        if not np.all(psi[plateau_core] == 1.0):
            raise GeometryError(f"psi_{j+1} not 1 on B(center, nu r)")
        if j + 1 < len(psis):
            plateau_j = psi == 1.0
            if np.any(supports[j + 1] & ~plateau_j):
                raise GeometryError(
                    f"E_{j+2} not inside the plateau of psi_{j+1}")

    counts = np.array([int(m.sum()) for m in supports], dtype=float)
    if np.any(counts == 0):
        raise GeometryError("empty cutoff support")
    ratio = float(np.max(counts[:-1] / counts[1:])) if len(counts) > 1 else 1.0
    envelope = max(g * (1.0 - nu) * delta * q ** (j + 1)
                   for j, g in enumerate(grads))
    return CutoffSequence(radii=radii, psi=psis, supports=supports,
                          grad_bounds=grads, support_ratio=ratio,
                          grad_envelope=float(envelope))


@dataclass
class SpecialCutoff:
    phi: np.ndarray
    support: np.ndarray
    grad_bound: float      # observed max [grad phi_r]_Q
    grad_constant: float   # grad_bound * delta (empirical C of (spec_cutoff))


def build_special_cutoff(field, form, r, delta, eta):
    """Cutoff phi_r: 1 on B(y, r + delta/2), supported in B(y, r + delta).

    The eta rule requires B(y, r + delta) to stay well inside the domain:
    r + delta < eta * dist(y, boundary).  The ramp runs between r + delta/2
    and r + delta, giving slope 2/delta; [grad phi_r]_Q <= C/delta is then
    verified on the grid (sqrt(n) expected from the eikonal bound).
    """
    grid = field.grid
    if delta <= 0 or r <= 0:
        raise DomainError("need positive r and delta")
    margin = eta * grid.boundary_distance(field.source)
    if r + delta > margin:
        raise GeometryError(
            f"B(center, r + delta) breaches the domain margin: "
            f"r + delta = {r + delta:g} > eta * dist = {margin:g}")
    d = field.values
    r_in = r + 0.5 * delta
    r_out = r + delta
    phi = np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)
    support = phi > 0.0

    if np.any(support & ~ball(field, r_out)):
        raise GeometryError("phi_r support leaves B(center, r + delta)")
    if not np.all(phi[ball(field, r_in)] == 1.0):
        raise GeometryError("phi_r not 1 on B(center, r + delta/2)")
    g = float(q_gradient(form, phi).max())
    return SpecialCutoff(phi=phi, support=support, grad_bound=g,
                         grad_constant=g * delta)
