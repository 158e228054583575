"""Declarative experiment configuration: validation and lossless round-trip.

A config is one JSON document.  Lengths are in domain units, angles none,
radii in metric units of the subunit distance.  Validation failures carry
the dotted field path for the CLI's exit-1 message.  This module is the
one home of the experiment's settings, their defaults and their checks;
SolverSpec is the one settings type of the solver, which takes it as is.
"""

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .errors import ConfigError, ProfileError
from .forms import DegeneracyProfile, lambda_from_sigma
from .grid import GridSpec
from .reporting import DEFAULT_BUDGET, write_json


# the pass flags a run reports: the run's own, and each ball's, which the
# report names ball<k>.<flag> (a skipped ball reports only ball<k>.skipped,
# which is true, so requiring it would require nothing).  A required_flags
# entry names one of these, bare (a ball flag then binds every ball) or
# with its ball's prefix.
RUN_FLAGS = ("max_principle", "quasilinear_converged")
BALL_FLAGS = ("containment", "alphas_positive", "growth_increasing",
              "box_sandwich", "harnack", "moser", "osc_monotone", "osc_pairs")


def _finite_number(x):
    """x is an int or a float, not a string or a boolean, other than NaN
    and +-Infinity (json.load accepts both)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _positive_finite(x):
    """x is a finite number > 0."""
    return _finite_number(x) and x > 0


def _whole_number(x):
    """x is a finite integral number; False on 3.5 as on NaN."""
    return _finite_number(x) and x == int(x)


def _positive_count(x, path):
    """x as an int when it is a whole number >= 1 (12.0 included), else a
    ConfigError naming path."""
    if not (_whole_number(x) and x >= 1):
        raise ConfigError(f"must be a whole number >= 1, got {x!r}", path)
    return int(x)


def _known_keys(d, keys, path):
    """A ConfigError naming the first key of the object d that is not among
    keys, the settings of the section at path ("" for the top level)."""
    for key in d:
        if key not in keys:
            raise ConfigError(f"names no setting; the keys are "
                              f"{', '.join(keys)}",
                              f"{path}.{key}" if path else key)


def _setting_names(cls):
    return [f.name for f in fields(cls)]


# the keys of the sections a config holds as plain objects
_SECTION_KEYS = {
    "profile": ("kind", "param", "domain_cap"),
    "grid": ("x0", "x1", "y0", "y1", "nx", "ny"),
    "epsilons": ("eps0", "rungs"),
    "radii": ("r_max", "count"),
}
_BOUNDARY_KEYS = {"affine": ("kind", "ax", "by", "c"),
                  "trig": ("kind", "c", "amp", "kx", "ky")}


@dataclass
class BallSpec:
    center: tuple          # (x, y) in domain coordinates
    r: float
    on_axis: bool = False  # run box-sandwich checks (requires x = 0)

    def validate(self, path):
        if not _positive_finite(self.r):
            raise ConfigError(f"ball radius must be a positive finite "
                              f"number, got {self.r!r}", f"{path}.r")
        if not (isinstance(self.center, (list, tuple))
                and len(self.center) == 2
                and all(map(_finite_number, self.center))):
            raise ConfigError(f"ball center must be two finite numbers, "
                              f"got {self.center!r}", f"{path}.center")
        self.center = tuple(self.center)
        if not isinstance(self.on_axis, bool):
            raise ConfigError(f"must be true or false, got "
                              f"{self.on_axis!r}", f"{path}.on_axis")
        if self.on_axis and abs(self.center[0]) > 1e-12:
            raise ConfigError("on_axis ball must sit at x = 0",
                              f"{path}.center")
        self.r = float(self.r)


@dataclass
class Params:
    sigma: float = 2.0
    nu: float = 0.5
    nu0: float = 0.5
    mu: float = 0.5
    eta: float = 0.25
    C: float = 2.0
    gamma: float = 1.0
    lam: float = None          # defaults to (5 sigma - 1)/(sigma - 1)
    j_max: int = 12
    # pin cutoff increments to frac*r instead of the measured delta: keeps
    # ramp geometry identical across grid resolutions (refinement compares)
    cutoff_delta_frac: float = None

    def validate(self, path="params"):
        names = ["sigma", "nu", "nu0", "mu", "eta", "C", "gamma"]
        if self.cutoff_delta_frac is not None:
            names.append("cutoff_delta_frac")
        for name in names:
            v = getattr(self, name)
            if not _finite_number(v):
                raise ConfigError(f"must be a finite number, got {v!r}",
                                  f"{path}.{name}")
        if self.cutoff_delta_frac is not None and \
                not 0.0 < self.cutoff_delta_frac < 1.0:
            raise ConfigError("cutoff_delta_frac must lie in (0, 1)",
                              f"{path}.cutoff_delta_frac")
        if not self.sigma > 1:
            raise ConfigError("sigma must be > 1", f"{path}.sigma")
        for name in ("nu", "nu0", "mu"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)", f"{path}.{name}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]", f"{path}.eta")
        if not self.C > 1.0:
            raise ConfigError("C must be > 1", f"{path}.C")
        if not 0 < abs(self.gamma) <= 2:
            raise ConfigError("gamma must satisfy 0 < |gamma| <= 2",
                              f"{path}.gamma")
        if self.lam is None:
            self.lam = lambda_from_sigma(self.sigma)
        if not (_positive_finite(self.lam) and self.lam > 1):
            raise ConfigError("lambda must be finite and > 1", f"{path}.lam")
        self.j_max = _positive_count(self.j_max, f"{path}.j_max")


@dataclass
class SolverSpec:
    """Settings of the discrete solve: damped Picard (theta, fp_tol,
    fp_max_iter) over frozen linear solves by PCG, which stops at relative
    residual lin_tol or fails after lin_max_iter iterations; the Dirichlet
    data (boundary), the constant right-hand side f (rhs), whether Picard
    runs at all (quasilinear) and the declared bounds of phi.  Every
    instance is validated when built."""

    theta: float = 0.7
    fp_tol: float = 1e-9
    fp_max_iter: int = 40
    lin_tol: float = 1e-12
    lin_max_iter: int = 40000
    boundary: dict = dc_field(default_factory=lambda: {
        "kind": "affine", "ax": 1.0, "by": 0.0, "c": 2.0})
    rhs: float = 0.0
    quasilinear: bool = True
    phi_bounds: tuple = (1.0, 3.0)

    def __post_init__(self):
        self.validate()

    def validate(self, path="solver"):
        if not (_finite_number(self.theta) and 0.0 < self.theta <= 1.0):
            raise ConfigError("theta must lie in (0, 1]", f"{path}.theta")
        for name in ("fp_tol", "lin_tol"):
            if not _positive_finite(getattr(self, name)):
                raise ConfigError(f"{name} must be positive and finite",
                                  f"{path}.{name}")
        for name in ("fp_max_iter", "lin_max_iter"):
            count = _positive_count(getattr(self, name), f"{path}.{name}")
            setattr(self, name, count)
        if not isinstance(self.boundary, dict):
            raise ConfigError(f"must be an object, got {self.boundary!r}",
                              f"{path}.boundary")
        kind = self.boundary.get("kind")
        if kind not in ("affine", "trig"):
            raise ConfigError("boundary.kind must be affine or trig",
                              f"{path}.boundary.kind")
        _known_keys(self.boundary, _BOUNDARY_KEYS[kind], f"{path}.boundary")
        for name in _BOUNDARY_KEYS[kind][1:]:
            if name in self.boundary and \
                    not _finite_number(self.boundary[name]):
                raise ConfigError(f"must be a finite number, got "
                                  f"{self.boundary[name]!r}",
                                  f"{path}.boundary.{name}")
        if not _finite_number(self.rhs):
            raise ConfigError(f"rhs is the constant f and must be a finite "
                              f"number, got {self.rhs!r}", f"{path}.rhs")
        bounds = self.phi_bounds
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                and all(map(_finite_number, bounds))
                and 0.0 < bounds[0] <= bounds[1]):
            raise ConfigError(f"must be finite numbers with 0 < c_phi <= "
                              f"C_phi, got {bounds!r}", f"{path}.phi_bounds")
        self.phi_bounds = tuple(bounds)
        if not isinstance(self.quasilinear, bool):
            raise ConfigError(f"must be true or false, got "
                              f"{self.quasilinear!r}", f"{path}.quasilinear")

    def boundary_values(self, grid):
        """The Dirichlet data at every node of grid: ax x + by y + c
        (affine) or c + amp sin(pi kx x) cos(pi ky y) (trig)."""
        X, Y = grid.meshgrid()
        b = self.boundary
        c = b.get("c", 2.0)
        if b["kind"] == "affine":
            return b.get("ax", 1.0) * X + b.get("by", 0.0) * Y + c
        return c + b.get("amp", 0.5) * np.sin(math.pi * b.get("kx", 1.0) * X) \
            * np.cos(math.pi * b.get("ky", 1.0) * Y)


@dataclass
class ExperimentConfig:
    name: str
    profile: dict
    grid: dict
    balls: list
    epsilons: dict = dc_field(default_factory=lambda: {"eps0": 0.1, "rungs": 4})
    radii: dict = dc_field(default_factory=lambda: {"r_max": 0.4, "count": 5})
    params: Params = dc_field(default_factory=Params)
    solver: SolverSpec = dc_field(default_factory=SolverSpec)
    required_flags: list = dc_field(default_factory=list)
    compare_budgets: dict = dc_field(
        default_factory=lambda: {"default": DEFAULT_BUDGET})
    seed: int = 0

    def validate(self):
        if not (isinstance(self.name, str) and self.name):
            raise ConfigError(f"experiment needs a name, a non-empty "
                              f"string, got {self.name!r}", "name")
        for section, keys in _SECTION_KEYS.items():
            _known_keys(getattr(self, section), keys, section)
        for key in ("kind", "param"):
            if key not in self.profile:
                raise ConfigError("missing", f"profile.{key}")
        for key in ("param", "domain_cap"):
            if key in self.profile and not _finite_number(self.profile[key]):
                raise ConfigError(f"must be a finite number, got "
                                  f"{self.profile[key]!r}", f"profile.{key}")
        try:
            profile = self.make_profile()  # the profile's own range checks
        except ProfileError as exc:
            raise ConfigError(str(exc), f"profile.{exc.field}") from exc
        g = self.grid
        for key in ("x0", "x1", "y0", "y1", "nx", "ny"):
            if key not in g:
                raise ConfigError(f"grid.{key} missing", f"grid.{key}")
        for key in ("x0", "x1", "y0", "y1"):
            if not _finite_number(g[key]):
                raise ConfigError(f"must be a finite number, got "
                                  f"{g[key]!r}", f"grid.{key}")
        counts = (("grid", g, "nx"), ("grid", g, "ny"),
                  ("epsilons", self.epsilons, "rungs"),
                  ("radii", self.radii, "count"))
        for section, d, key in counts:
            if key in d and not _whole_number(d[key]):
                raise ConfigError(f"{key} must be a whole number, got "
                                  f"{d[key]!r}", f"{section}.{key}")
        if g["nx"] < 17 or g["ny"] < 17:
            raise ConfigError("grid too coarse for any measurement",
                              "grid.nx/ny")
        grid = self.make_grid()
        if profile.kind == "paper_model":
            # the nodes' own x, as the form is assembled on them
            xs = grid.xs()
            for key, x in (("x0", xs[0]), ("x1", xs[-1])):
                if abs(x) >= profile.domain_cap:
                    raise ConfigError(
                        f"the paper_model profile needs |x| < its domain "
                        f"cap {profile.domain_cap}, got {g[key]!r}",
                        f"grid.{key}")
        if not self.balls:
            raise ConfigError("need at least one ball", "balls")
        for k, b in enumerate(self.balls):
            b.validate(f"balls[{k}]")
            try:
                grid.nearest_node(*b.center)
            except ConfigError as exc:
                raise ConfigError(
                    f"center {list(b.center)!r} lies outside the grid",
                    f"balls[{k}].center") from exc
        self._validate_required_flags()
        if not isinstance(self.compare_budgets, dict):
            raise ConfigError(f"must be an object, got "
                              f"{self.compare_budgets!r}", "compare_budgets")
        for key, budget in self.compare_budgets.items():
            if not _positive_finite(budget):
                raise ConfigError(f"a budget must be a positive finite "
                                  f"number, got {budget!r}",
                                  f"compare_budgets.{key}")
        e = self.epsilons
        if not _positive_finite(e.get("eps0", 0)) or e.get("rungs", 0) < 3:
            raise ConfigError("epsilon ladder needs finite eps0 > 0 and "
                              ">= 3 rungs", "epsilons")
        if self.radii.get("count", 0) < 3 or \
                not _positive_finite(self.radii.get("r_max", 0)):
            raise ConfigError("radii spec needs finite r_max > 0 and "
                              "count >= 3", "radii")
        if not (_whole_number(self.seed) and self.seed >= 0):
            raise ConfigError(f"must be a whole number >= 0, got "
                              f"{self.seed!r}", "seed")
        self.seed = int(self.seed)
        self.params.validate()
        self.solver.validate()
        return self

    def _validate_required_flags(self):
        if not isinstance(self.required_flags, list):
            raise ConfigError(f"must be a list of flag names, got "
                              f"{self.required_flags!r}", "required_flags")
        known = set(RUN_FLAGS + BALL_FLAGS) | {
            f"ball{k}.{flag}" for k in range(len(self.balls))
            for flag in BALL_FLAGS}
        for k, name in enumerate(self.required_flags):
            if not (isinstance(name, str) and name in known):
                raise ConfigError(
                    f"names no flag a run reports, got {name!r}; the flags "
                    f"are {', '.join(RUN_FLAGS + BALL_FLAGS)}, a ball's "
                    f"also as ball<k>.<flag>", f"required_flags[{k}]")

    # -- construction helpers ------------------------------------------------

    def make_grid(self):
        g = self.grid
        return GridSpec(g["x0"], g["x1"], g["y0"], g["y1"],
                        int(g["nx"]), int(g["ny"]))

    def make_profile(self):
        kw = {}
        if "domain_cap" in self.profile:
            kw["domain_cap"] = self.profile["domain_cap"]
        return DegeneracyProfile(kind=self.profile["kind"],
                                 param=float(self.profile["param"]), **kw)

    def epsilon_ladder(self):
        e0 = float(self.epsilons["eps0"])
        return [e0 * 2.0 ** (-k) for k in range(int(self.epsilons["rungs"]))]

    def dyadic_radii(self):
        r = float(self.radii["r_max"])
        return [r * 2.0 ** (-k) for k in range(int(self.radii["count"]))]

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        d = asdict(self)
        d["balls"] = [{"center": list(b.center), "r": b.r, "on_axis": b.on_axis}
                      for b in self.balls]
        d["solver"]["phi_bounds"] = list(self.solver.phi_bounds)
        return d

    @classmethod
    def from_dict(cls, d):
        """The validated config of a JSON document.  A key the document
        lacks keeps its field's default; name, profile, grid and balls
        have none, nor has a ball's center or r.  A key that names no
        setting is an error naming its path."""
        if not isinstance(d, dict):
            raise ConfigError(f"must be an object, got {d!r}", "config")
        _known_keys(d, _setting_names(cls), "")
        kw = dict(d)
        for name in ("name", "profile", "grid", "balls"):
            if name not in kw:
                raise ConfigError("missing", name)
        for name in ("profile", "grid", "epsilons", "radii", "params",
                     "solver"):
            if not isinstance(kw.get(name, {}), dict):
                raise ConfigError(f"must be an object, got {kw[name]!r}",
                                  name)
        balls = kw["balls"]
        if not (isinstance(balls, list)
                and all(isinstance(b, dict) for b in balls)):
            raise ConfigError(f"must be a list of objects, got {balls!r}",
                              "balls")
        ball_keys = _setting_names(BallSpec)
        for k, b in enumerate(balls):
            _known_keys(b, ball_keys, f"balls[{k}]")
            for name in ("center", "r"):
                if name not in b:
                    raise ConfigError("missing", f"balls[{k}].{name}")
        kw["balls"] = [BallSpec(**b) for b in balls]
        for name, spec in (("params", Params), ("solver", SolverSpec)):
            section = kw.get(name, {})
            _known_keys(section, _setting_names(spec), name)
            kw[name] = spec(**section)
        return cls(**kw).validate()

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}", "config") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}", "config") from exc
        return cls.from_dict(raw)

    def dump(self, path):
        write_json(path, self.to_dict())
