"""Regularity diagnostics measured on discrete solutions.

Implements the quantitative pipeline: Caccioppoli ratios for powers of a
positive solution, the Moser ladder N_j with its exponent scheduler, weak
logarithmic estimates, Harnack quotients against the radius-dependent
constant

    C_Har(r) = C exp(2 [nu0 r / delta(nu0 r)]^(4 sigma/(sigma-1) + 1)),

whose prefactor is the one constant C = C_CAL = e, local boundedness,
and the oscillation recursion

    omega(nu0 r) <= (1 - 1/(2 C_Har(r))) omega(r) + r^2 ||f||_inf.

C_Har overflows float64 for any truly non-doubling ball, so everything
involving it is carried in logarithms; pass/fail comparisons happen in log
space and the reported gamma(r), alpha(r) degrade gracefully to 1 and 0
at desk scale (the underflow itself is the honest measurement).

Every measurement takes u as a plain array of node values.  The chain
from Moser to Harnack works on the shifted solution ubar = u + m(r); the
caller computes m once per ball (shift_m) and passes it to each link.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import q_gradient
from .errors import (ChainTooShortError, DomainError, PositivityError)
from .metric import ball, dilate

FLOOR_M_FACTOR = 1e-6     # m = 1e-6 ||u||_inf when f = 0
LOG_S_OCTAVES = 10        # level sets s = max|v - <v>| 2^-k, k < 10
MIN_CHAIN = 4             # radii an oscillation chain needs at least
C_CAL = math.e            # the prefactor C of C_Har(r)


def mu_beta(beta):
    """mu_beta = min{ |(2 beta - 1)/beta|, 1 };  undefined at 0 and 1/2."""
    if beta == 0.0 or beta == 0.5:
        raise DomainError("mu_beta undefined at beta in {0, 1/2}")
    return min(abs((2.0 * beta - 1.0) / beta), 1.0)


def harnack_exponent(sigma):
    """4 sigma/(sigma - 1) + 1; equals 9 at sigma = 2."""
    if sigma <= 1.0:
        raise DomainError("sigma must exceed 1")
    return 4.0 * sigma / (sigma - 1.0) + 1.0


def _sup_norm(f):
    """||f||_inf of a constant or an array of node values."""
    return float(np.max(np.abs(f)))


def shift_m(u_values, f_rhs, r):
    """Positivity shift m(r) = r^2 ||f||_inf, or the f = 0 convention."""
    fmax = _sup_norm(f_rhs)
    if fmax > 0.0:
        return r * r * fmax
    scale = float(np.max(np.abs(u_values)))
    return FLOOR_M_FACTOR * max(scale, 1.0)


def caccioppoli_ratio(u, psi, beta, form, f_rhs=0.0):
    """LHS/RHS of the Caccioppoli inequality for u^beta under cutoff psi.

    LHS = int psi^2 [grad u^beta]_Q^2
    RHS = mu_beta^{-2} int u^{2 beta} [grad psi]_Q^2
          + mu_beta^{-1} |beta| int psi^2 u^{2 beta - 1} |f|

    u (node values) must be positive on supp psi and its one-cell stencil
    collar, which the difference quotients in the integrands reach.
    """
    mu = mu_beta(beta)
    supp = psi > 0
    if not np.any(supp):
        raise DomainError("cutoff has empty support")
    reach = dilate(supp)
    if u[reach].min() <= 0.0:
        raise PositivityError("u must be positive on supp psi")
    area = form.grid.cell_area
    f = np.broadcast_to(np.asarray(f_rhs, dtype=float), u.shape)

    # positive placeholder outside the stencil reach: those nodes only feed
    # difference quotients at psi = 0 nodes, which the weights annihilate
    safe = np.where(reach, u, 1.0)
    lhs = float((psi ** 2 * q_gradient(form, safe ** beta) ** 2).sum()) * area
    gpsi2 = q_gradient(form, psi) ** 2
    t1 = float((safe ** (2 * beta) * gpsi2).sum()) * area / mu ** 2
    t2 = abs(beta) / mu * float(
        (psi ** 2 * safe ** (2 * beta - 1) * np.abs(f)).sum()) * area
    rhs = t1 + t2
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def schedule_gamma(gamma, sigma, j_max):
    """Shift positive gamma to gamma~ = sigma^k (sigma+1)/4 when needed.

    The ladder exponents beta_j = gamma sigma^(j-1) must keep
    |2 beta_j - 1| >= (1 - 1/sigma)/2.  For gamma <= 0 no shift is needed.
    Returns (gamma_used, shifted).
    """
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    margin = 0.5 * (1.0 - 1.0 / sigma)
    betas = [gamma * sigma ** j for j in range(j_max)]
    if gamma < 0 or all(abs(2.0 * b - 1.0) >= margin - 1e-12 for b in betas):
        return gamma, False
    k = math.floor(math.log(4.0 * gamma / (sigma + 1.0)) / math.log(sigma))
    gtilde = 0.25 * sigma ** k * (sigma + 1.0)
    while gtilde > gamma:
        gtilde /= sigma
    while gtilde * sigma <= gamma:
        gtilde *= sigma
    return gtilde, True


def _power_mean(values, p):
    """(mean values^p)^(1/p) for positive values, stable for huge p."""
    v = np.asarray(values, dtype=float)
    s = float(v.max()) if p > 0 else float(v.min())
    ratios = v / s
    with np.errstate(under="ignore"):
        m = float(np.mean(ratios ** p))
    if not np.isfinite(m):
        return math.inf
    if m <= 0.0:
        # all mass underflowed except the pivot; mean is 1/n at worst
        m = 1.0 / v.size
    return s * m ** (1.0 / p)


@dataclass
class MoserRun:
    gamma_used: float       # after the exponent scheduler
    shifted: bool
    N: list                 # N_j ladder
    observed_sup: float     # max of ubar^gamma_used on B(center, nu r)
    raw_bound: float        # pre_harnack RHS with C_sigma = 1
    passed: bool
    truncated_at: int = -1  # OverflowGuard truncation index, -1 if none
    empirical_c: float = 0.0


def moser_iterate(u, field, r, gamma, sigma, nu, supports, delta_nu_r, m):
    """Run the Moser ladder over the cutoff supports E_j (boolean masks).

    u_j = ubar^(gamma sigma^(j-1)),  N_j = (mean_{E_j} u_j^2)^(1/(2 sigma^(j-1)))

    ubar = u + m, with m the shift m(r) (shift_m).  delta_nu_r is the
    increment of the cutoff sequence, which sets the bound's prefactor.
    Powers are evaluated per support with a pivot normalization; a
    non-finite power (inf/nan input) truncates the ladder at that j with the
    OverflowGuard flag, the discrete analog of the M-truncation.
    """
    if gamma == 0.0 or abs(gamma) > 2.0:
        raise DomainError("need 0 < |gamma| <= 2")
    ubar = u + m
    if not supports:
        raise DomainError("cutoff sequence has no members")
    if min(float(ubar[s].min()) for s in supports) <= 0.0:
        raise PositivityError("ubar must be positive on the supports")

    g_used, shifted = schedule_gamma(gamma, sigma, len(supports))
    N, truncated_at = _ladder_values(ubar, supports, g_used, sigma)

    ball_nu = ball(field, nu * r)
    ball_r = ball(field, r)
    obs = float(np.max(ubar[ball_nu] ** g_used))
    mean_2g = float(np.mean(ubar[ball_r] ** (2.0 * g_used)))
    tau_exp = 1.0 / (sigma - 1.0) ** 2 + 1.0
    prefactor = 1.0 / ((1.0 - nu) ** tau_exp * (delta_nu_r / r) ** (sigma / (sigma - 1.0)))
    raw = prefactor * math.sqrt(mean_2g)
    passed = obs <= raw
    return MoserRun(gamma_used=g_used, shifted=shifted, N=N,
                    observed_sup=obs, raw_bound=raw,
                    passed=passed, truncated_at=truncated_at,
                    empirical_c=obs / raw if raw > 0 else math.inf)


def _ladder_values(ubar, supports, gamma_used, sigma):
    """N_j ladder; truncates with the OverflowGuard index when a power
    leaves the floating range (returns (list, truncation_index))."""
    out = []
    for j, supp in enumerate(supports):
        beta_j = gamma_used * sigma ** j
        uj = ubar[supp]
        if uj.size == 0 or not np.all(np.isfinite(uj)):
            return out, j
        # N_j = (mean ubar^{2 beta_j})^(1/(2 sigma^(j-1)))
        #     = power_mean(ubar, 2 beta_j)^gamma_used
        pm = _power_mean(uj, 2.0 * beta_j)
        if not math.isfinite(pm):
            return out, j
        nj = pm ** gamma_used
        if not math.isfinite(nj):
            return out, j
        out.append(nj)
    return out, -1


@dataclass
class LogEstimateReport:
    inter: float               # delta/|B| * int_B [grad ln ubar]_Q
    est1: float                # max_s s |{v - <v> > s}| delta / (r |B|)
    est2: float                # mirrored
    floor_proximity: bool      # ubar within 5% of the positivity floor


def log_estimate(u, field, r, delta, form, m):
    """Empirical constants of the weak logarithmic estimates on B(y, r),
    for ubar = u + m with m the shift m(r) (shift_m)."""
    ubar = u + m
    big = ball(field, r + delta)
    if float(ubar[big].min()) < m * (1.0 - 1e-9):
        raise PositivityError("ubar falls below its floor on B(y, r + delta)")
    B = ball(field, r)
    area = form.grid.cell_area
    measure_B = float(B.sum()) * area
    v = np.log(np.where(ubar > 0, ubar, 1.0))
    gv = q_gradient(form, v)
    inter = float(gv[B].sum()) * area * delta / measure_B

    vB = v[B]
    v_avg = float(vB.mean())
    dev = vB - v_avg
    smax = float(np.abs(dev).max())
    if smax <= 1e-13 * max(1.0, abs(v_avg)):
        smax = 0.0                        # constant v up to rounding
    est1 = est2 = 0.0
    if smax > 0:
        for k in range(LOG_S_OCTAVES):
            s = smax * 2.0 ** (-k)
            m1 = float(np.count_nonzero(dev > s)) * area
            m2 = float(np.count_nonzero(-dev > s)) * area
            est1 = max(est1, s * m1 * delta / (r * measure_B))
            est2 = max(est2, s * m2 * delta / (r * measure_B))
    floor = bool(float(ubar[B].min()) <= m * 1.05)
    return LogEstimateReport(inter=inter, est1=est1, est2=est2,
                             floor_proximity=floor)


@dataclass
class HarnackReport:
    quotient: float
    log_c_har: float           # ln C_Har(r), always finite
    passed: bool
    log_slack: float           # ln(quotient) - ln(C_Har), negative when passing


def log_c_har(r_scaled, delta_at, sigma):
    """ln C_Har for the already-scaled radius nu0*r and its delta."""
    if delta_at <= 0:
        raise DomainError("delta must be positive")
    expo = harnack_exponent(sigma)
    return math.log(C_CAL) + 2.0 * (r_scaled / delta_at) ** expo


def harnack_check(u, field, r, nu0, sigma, delta_nu0r, m):
    """Harnack quotient of ubar = u + m over B(y, nu0 r) against C_Har(r),
    with m the shift m(r) (shift_m)."""
    ubar = u + m
    mask = ball(field, nu0 * r)
    if float(ubar[mask].min()) < 0.0:
        raise PositivityError("solution must be nonnegative for Harnack")
    sup = float(ubar[mask].max())
    inf_ = float(ubar[mask].min())
    quotient = sup / inf_ if inf_ > 0 else math.inf
    L = log_c_har(nu0 * r, delta_nu0r, sigma)
    lq = math.log(quotient) if quotient < math.inf else math.inf
    passed = lq <= L
    return HarnackReport(quotient=quotient, log_c_har=L, passed=passed,
                         log_slack=lq - L)


def local_bound_check(u, field, r, nu, sigma, delta_nu_r, f_rhs=0.0):
    """Empirical constant of the local boundedness estimate on B(y, r):

        sup_{B(nu r)} |u| / (P [(mean_{B(r)} u^2)^(1/2) + r^2 ||f||_inf])

    with prefactor P = (delta(nu r)/r)^(-sigma/(sigma-1)); inf when the
    bracket vanishes."""
    inner = ball(field, nu * r)
    outer = ball(field, r)
    sup = float(np.abs(u[inner]).max())
    bracket = (math.sqrt(float(np.mean(u[outer] ** 2)))
               + r * r * _sup_norm(f_rhs))
    pref = (delta_nu_r / r) ** (-sigma / (sigma - 1.0))
    return sup / (pref * bracket) if bracket > 0 else math.inf


@dataclass
class OscillationCurve:
    radii: np.ndarray          # decreasing chain R, nu0 R, ...
    omega: np.ndarray
    gamma_r: np.ndarray        # 1 - 1/(2 C_Har), 1.0 at underflow
    alpha_r: np.ndarray        # (1-mu) ln(gamma)/ln(nu0), 0 at underflow
    log_product: np.ndarray    # ln|ln r| - ln(2 C_Har): stable |ln r ln gamma|
    pair_ok: np.ndarray        # per consecutive pair, the recursion holds
    monotone: bool


def oscillation_curve(us, fields, radii, nu0, mu, log_c_har_of_r, f_rhs=0.0):
    """Measure omega(r) down a nu0-chain and check the one-step recursion.

    radii: chain with ratio nu0, in any order.  fields holds one distance
    field per radius and us the node values of u on each field's grid (a
    chain on one grid passes the same field and array for every radius).
    log_c_har_of_r maps r to ln C_Har(r).  The per-pair check
    is omega(nu0 r) <= gamma(r) omega(r) + r^2 ||f||_inf with
    gamma(r) = 1 - exp(-ln(2 C_Har(r))), evaluated stably.
    """
    radii = [float(r) for r in radii]
    if not len(fields) == len(us) == len(radii):
        raise DomainError("need one field and one u per chain radius")
    samples = sorted(zip(radii, fields, us), key=lambda s: -s[0])
    radii = np.asarray([s[0] for s in samples])
    if radii.size < MIN_CHAIN:
        raise ChainTooShortError(
            f"need >= {MIN_CHAIN} resolvable radii, got {radii.size}")
    steps = radii[1:] / radii[:-1]
    if np.any(np.abs(steps - nu0) > 1e-9):
        raise DomainError("radii must form a nu0-chain")
    fmax = _sup_norm(f_rhs)

    omega = np.empty(radii.size)
    for k, (r, fld, uk) in enumerate(samples):
        mask = ball(fld, r)
        if not np.any(mask):
            raise ChainTooShortError(f"empty ball at r={r:g}")
        omega[k] = float(uk[mask].max() - uk[mask].min())

    gamma_r = np.empty(radii.size)
    alpha_r = np.empty(radii.size)
    log_prod = np.empty(radii.size)
    for k, r in enumerate(radii):
        L = log_c_har_of_r(r) + math.log(2.0)       # ln(2 C_Har)
        g = -math.expm1(-L)                          # 1 - exp(-L), stable
        gamma_r[k] = g
        lg = math.log1p(-math.exp(-L)) if L < 700 else 0.0   # ln gamma
        alpha_r[k] = (1.0 - mu) * lg / math.log(nu0)
        log_prod[k] = math.log(abs(math.log(r))) - L if r != 1.0 else -math.inf

    pair_ok = np.empty(radii.size - 1, dtype=bool)
    tol = 1e-12 * max(1.0, float(np.abs(omega).max()))
    for k in range(radii.size - 1):
        r = radii[k]
        bound = gamma_r[k] * omega[k] + r * r * fmax
        pair_ok[k] = omega[k + 1] <= bound + tol
    monotone = bool(np.all(np.diff(omega) <= tol))
    return OscillationCurve(radii=radii, omega=omega, gamma_r=gamma_r,
                            alpha_r=alpha_r, log_product=log_prod,
                            pair_ok=pair_ok, monotone=monotone)
