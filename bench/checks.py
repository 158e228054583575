"""Correctness checks on the artifacts of one `run_experiment`.

Every check tests a property the method must have, or compares with a
computation made here; none compares with a stored copy of an earlier
output.  Each returns a list of problems (empty when the run is correct).
"""

import csv
import math

import numpy as np

# |B(0, r)| ~ r^(k+2) on the axis of f = |x|^k (dilation (x, y) ->
# (l x, l^(k+1) y)), so |B(r + delta)| = (5/4) |B(r)| gives
# delta / r = 1.25^(1/(k+2)) - 1: 0.0772 for the Grushin case k = 1
DILATION_TOL = 0.10
AFFINE_TOL = 1e-8         # |u - (ax x + c)| on the solution CSVs
OMEGA_CELLS = 3.0         # |omega(rho) - 2 |ax| rho| in global cells
MP_TOL = 1e-8             # maximum principle slack, times the boundary spread
# Jacobi-scaled residual |(L_u u)_i| / D_i of the quasilinear fixed point,
# in units of u.  Picard stops once a damped step moves u by less than
# fp_tol = 1e-9 and reads about 6e-13 on exp-picard; the linear solution,
# which ignores the modulation, reads about 5e-5 there.
FIXED_POINT_TOL = 1e-9


def _number(cell):
    # write_csv prints numpy scalars through repr, as np.float64(...)
    if cell.endswith(")"):
        cell = cell[cell.index("(") + 1:-1]
    return float(cell)


def read_grid_csv(path, nx, ny):
    """(x, y, u) arrays of shape (nx, ny) from a solution CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.array([[_number(c) for c in row] for row in rows])
    if data.shape != (nx * ny, 3):
        raise ValueError(f"{path}: {data.shape[0]} rows, expected {nx * ny}")
    return (data[:, 0].reshape(nx, ny), data[:, 1].reshape(nx, ny),
            data[:, 2].reshape(nx, ny))


def profile_f(profile, x):
    """f(|x|) = exp(-a/|x|), f(0) = 0: the exponential profile, restated."""
    if profile["kind"] != "exponential":
        raise ValueError(f"no restated profile {profile['kind']!r}")
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        return np.where(ax > 0, np.exp(-float(profile["param"]) / ax), 0.0)


def boundary_fn(spec, X, Y):
    """The Dirichlet data of a config, restated from its definition."""
    c = spec.get("c", 2.0)
    if spec.get("kind", "affine") == "affine":
        return spec.get("ax", 1.0) * X + spec.get("by", 0.0) * Y + c
    return c + spec.get("amp", 0.5) * np.sin(math.pi * spec.get("kx", 1.0) * X) \
        * np.cos(math.pi * spec.get("ky", 1.0) * Y)


def _harmonic(a, b):
    s = a + b
    return np.where(s > 0, 2.0 * a * b / np.where(s > 0, s, 1.0), 0.0)


def fixed_point_residual(u, a22, hx, hy):
    """max_i |(L u)_i| / D_i over interior nodes for div(diag(1, a22) grad u).

    5-point operator with harmonic-mean faces (the x faces of a11 = 1 are
    1/hx^2), assembled here; D_i is the sum of the four face weights, so
    the value is a Jacobi step in units of u."""
    wx = np.full((u.shape[0] - 1, u.shape[1]), 1.0 / hx ** 2)
    wy = _harmonic(a22[:, :-1], a22[:, 1:]) / hy ** 2
    c = u[1:-1, 1:-1]
    flux = (wx[:-1, 1:-1] * (u[:-2, 1:-1] - c) + wx[1:, 1:-1] * (u[2:, 1:-1] - c)
            + wy[1:-1, :-1] * (u[1:-1, :-2] - c) + wy[1:-1, 1:] * (u[1:-1, 2:] - c))
    diag = wx[:-1, 1:-1] + wx[1:, 1:-1] + wy[1:-1, :-1] + wy[1:-1, 1:]
    return float(np.max(np.abs(flux) / diag))


def check_flags(cfg, report):
    problems = []
    flags = report["flags"]
    for req in cfg["required_flags"]:
        hits = {n: v for n, v in flags.items()
                if n == req or n.endswith("." + req)}
        if not hits:
            problems.append(f"required flag {req} never reported")
        problems += [f"required flag {n} is {v}" for n, v in hits.items()
                     if v is not True]
    problems += [f"{n}: ball skipped" for n in flags if n.endswith(".skipped")]
    expected = {f"ball{k}" for k in range(len(cfg["balls"]))}
    if set(report["balls"]) != expected:
        problems.append(f"balls {sorted(report['balls'])} != {sorted(expected)}")
    return problems


def check_volumes(cfg, report):
    """f <= 1 on the domain, so B(x, r) lies in the Euclidean ball of radius
    r sqrt(1 + eps^2), eps the finest rung of the config's ladder; the grid
    adds the field's first-order slack 2h."""
    problems = []
    h = max(report["grid"]["hx"], report["grid"]["hy"])
    eps = cfg["epsilons"]["eps0"] * 2.0 ** (1 - cfg["epsilons"]["rungs"])
    for b, ball in sorted(report["balls"].items()):
        g = ball["geometry"]
        for r, v in zip(g["radii"], g["volumes"]):
            cap = math.pi * (r * math.sqrt(1.0 + eps * eps) + 2.0 * h) ** 2
            if not v <= cap:
                problems.append(f"{b}: |B({r:.4g})| = {v:.4g} > {cap:.4g}")
    return problems


def check_dilation_law(cfg, report):
    k = float(cfg["profile"]["param"])
    law = 1.25 ** (1.0 / (k + 2.0)) - 1.0
    problems = []
    for b, ball in sorted(report["balls"].items()):
        spec = cfg["balls"][int(b[4:])]
        if not spec.get("on_axis"):
            continue
        got = ball["constants"]["delta_over_r_at_r"]
        if not abs(got / law - 1.0) <= DILATION_TOL:
            problems.append(f"{b}: delta/r = {got:.4g}, dilation law {law:.4g}")
    return problems


def check_affine(cfg, report, out_dir):
    """u = ax x + c solves every diag(1, q22) problem (q11 = 1, by = 0)."""
    spec = cfg["solver"]["boundary"]
    ax = spec.get("ax", 1.0)
    grid = report["grid"]
    problems = []
    names = ["linear"] + (["quasilinear"] if cfg["solver"]["quasilinear"] else [])
    for name in names:
        X, Y, u = read_grid_csv(out_dir / "solutions" / f"{name}.csv",
                                grid["nx"], grid["ny"])
        err = float(np.max(np.abs(u - boundary_fn(spec, X, Y))))
        if not err <= AFFINE_TOL:
            problems.append(f"{name} solution off u = {ax} x + c by {err:.3g}")
    for b, ball in sorted(report["balls"].items()):
        osc = ball["diagnostics"]["oscillation"]
        if osc is None:
            problems.append(f"{b}: no oscillation chain")
            continue
        for rho, omega in zip(osc["radii"], osc["omega"]):
            if not abs(omega - 2.0 * abs(ax) * rho) <= OMEGA_CELLS * grid["hx"]:
                problems.append(f"{b}: omega({rho:.4g}) = {omega:.6g}, "
                                f"exact {2.0 * abs(ax) * rho:.6g}")
    return problems


def check_picard(cfg, report, out_dir):
    """Picard really iterates, keeps the maximum principle, and stops at a
    fixed point of u -> solve(A(x, u)) with A = diag(1, (2 + tanh u) f^2),
    the quasilinear envelope's modulation."""
    problems = []
    steps = report["solver"].get("quasilinear_iterations", 0)
    if not steps > 1:
        problems.append(f"Picard stopped after {steps} step(s)")
    grid = report["grid"]
    spec = cfg["solver"]["boundary"]
    X, Y, u = read_grid_csv(out_dir / "solutions" / "quasilinear.csv",
                            grid["nx"], grid["ny"])
    edge = np.ones_like(u, dtype=bool)
    edge[1:-1, 1:-1] = False
    bd = boundary_fn(spec, X, Y)[edge]
    err = float(np.max(np.abs(u[edge] - bd)))
    if not err <= 1e-12:
        problems.append(f"boundary values off the data by {err:.3g}")
    lo, hi = float(bd.min()), float(bd.max())
    slack = max(lo - float(u.min()), float(u.max()) - hi)
    if not slack <= MP_TOL * (hi - lo):
        problems.append(f"u leaves its boundary range by {slack:.3g}")
    a22 = (2.0 + np.tanh(u)) * profile_f(cfg["profile"], X) ** 2
    res = fixed_point_residual(u, a22, grid["hx"], grid["hy"])
    if not res <= FIXED_POINT_TOL:
        problems.append(f"fixed-point residual {res:.3g} > {FIXED_POINT_TOL:g}")
    return problems


def check_run(cfg, report, out_dir):
    """Every check that applies to this config; list of problems."""
    problems = check_flags(cfg, report) + check_volumes(cfg, report)
    boundary = cfg["solver"]["boundary"]
    affine = boundary.get("kind", "affine") == "affine" \
        and boundary.get("by", 0.0) == 0.0
    if cfg["profile"]["kind"] == "power":
        problems += check_dilation_law(cfg, report)
    if affine:
        problems += check_affine(cfg, report, out_dir)
    elif cfg["solver"]["quasilinear"]:
        problems += check_picard(cfg, report, out_dir)
    return problems
