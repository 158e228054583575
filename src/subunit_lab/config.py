"""Declarative experiment configuration: validation and lossless round-trip.

A config is one JSON document.  Lengths are in domain units, angles none,
radii in metric units of the subunit distance.  This module is the one
home of the experiment's settings, their defaults and their checks;
SolverSpec is the one settings type of the solver, which takes it as is.

Each setting has one rule, written next to its default as a spec: a JSON
type and, for a number, its interval ("number (0, 1]", "whole [17, inf)").
One function, _check, holds every section to its table of specs: the top
level, profile, grid, epsilons, radii, each ball, params, solver, its
boundary and compare_budgets.  Code checks only what compares settings or
needs the grid or the profile: a non-empty name, the profile's own
checks, a paper_model grid inside the domain cap, a ball center on the
grid (at x = 0 when on_axis), the required_flags names, 0 < c_phi <=
C_phi, gamma != 0, lam from sigma when unset and the boundary kind.  Each
failure is a ConfigError naming the dotted field path, for the CLI's
exit-1 message.
"""

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields
from functools import cache

import numpy as np

from .errors import ConfigError, ProfileError
from .forms import DegeneracyProfile, lambda_from_sigma
from .grid import GridSpec
from .reporting import DEFAULT_BUDGET


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


# the JSON types a rule names that need no more than isinstance
_TYPES = {"bool": (bool, "true or false"), "text": (str, "a string"),
          "list": (list, "a list"), "object": (dict, "an object")}


@cache
def _rule(spec):
    """The rule of spec: a function of a value and its path that returns
    the value as its setting holds it, or raises.  spec is a JSON type:
    bool, text, list, object, pair (two finite numbers, held as a tuple),
    number (finite) or whole (a finite integral number, held as an int),
    a number's followed by its interval, as in mathematics ("number (0,
    1]", "whole [17, inf)"); "or null" admits null.  A function is its
    own rule."""
    if callable(spec):
        return spec
    null = spec.endswith(" or null")
    kind, _, interval = spec.removesuffix(" or null").partition(" ")
    hold = None
    if kind in _TYPES:
        types, what = _TYPES[kind]
        passes = lambda x: isinstance(x, types)
    elif kind == "pair":
        what, hold = "two finite numbers", tuple
        passes = lambda x: isinstance(x, (list, tuple)) and len(x) == 2 \
            and all(map(_finite_number, x))
    else:
        hold = int if kind == "whole" else None
        what = ("a whole number" if hold else "a finite number") + \
            (f" in {interval}" if interval else "")
        lo, hi = map(float, (interval or "(-inf, inf)")[1:-1].split(","))
        low = operator.le if interval.startswith("[") else operator.lt
        high = operator.le if interval.endswith("]") else operator.lt
        passes = lambda x: _finite_number(x) and low(lo, x) \
            and high(x, hi) and (hold is None or x == int(x))
    what += " or null" if null else ""

    def read(x, path):
        if x is None and null:
            return None
        if not passes(x):
            raise ConfigError(f"must be {what}, got {x!r}", path)
        return x if hold is None else hold(x)
    return read


def _check(d, table, path, required=(), every=None):
    """The settings of the object d at the dotted path ("" for the whole
    document), each as the rule of its spec in table holds it.  d names
    no key outside table (every, when given, is the spec of any other
    key), holds each key of required, and each value passes its rule;
    else a ConfigError naming the path of the first that does not."""
    if not isinstance(d, dict):
        raise ConfigError(f"must be an object, got {d!r}", path or "config")
    at = lambda key: f"{path}.{key}" if path else key
    settings = {}
    for key, value in d.items():
        spec = table.get(key, every)
        if spec is None:
            raise ConfigError(f"names no setting; the keys are "
                              f"{', '.join(table)}", at(key))
        settings[key] = _rule(spec)(value, at(key))
    for key in required:
        if key not in d:
            raise ConfigError("missing", at(key))
    return settings


def _section(table, required=None, every=None, build=None):
    """The rule of an object checked against table, which requires every
    key of table unless required names them: the object is held as
    build(**settings), or as given, so a plain section echoes as written."""
    def read(x, path):
        settings = _check(x, table, path,
                          table if required is None else required, every)
        return x if build is None else build(**settings)
    return read


def _items(spec):
    """The rule of a list whose k-th item at path passes spec at path[k]."""
    return lambda x, path: [_rule(spec)(v, f"{path}[{k}]") for k, v
                            in enumerate(_rule("list")(x, path))]


def _setting(spec, default=MISSING):
    """A settings type's field: its rule's spec and its default (a
    function makes a mutable one; none makes the setting required)."""
    kind = "default_factory" if callable(default) else "default"
    return dc_field(**{kind: default}, metadata={"spec": spec})


def _specs(cls):
    """The table of a settings type: each field's spec."""
    return {f.name: f.metadata["spec"] for f in fields(cls)}


def _hold(obj, path):
    """Check each field of a settings type at path against its rule, and
    hold it as the rule reads it."""
    vars(obj).update(_check(vars(obj), _specs(obj), path))


def _settings_of(cls):
    """The rule of an object holding the settings of cls: it is held as
    cls built from them, and a field without default is required."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return _section(_specs(cls), required, build=cls)


@dataclass
class BallSpec:
    center: tuple = _setting("pair")       # (x, y), domain coordinates
    r: float = _setting("number (0, inf)")
    # run box-sandwich checks (requires x = 0)
    on_axis: bool = _setting("bool", False)

    def __post_init__(self):
        self.r = float(self.r)


@dataclass
class Params:
    sigma: float = _setting("number (1, inf)", 2.0)
    nu: float = _setting("number (0, 1)", 0.5)
    nu0: float = _setting("number (0, 1)", 0.5)
    mu: float = _setting("number (0, 1)", 0.5)
    eta: float = _setting("number (0, 1]", 0.25)
    C: float = _setting("number (1, inf)", 2.0)
    gamma: float = _setting("number [-2, 2]", 1.0)      # and not 0
    # defaults to (5 sigma - 1)/(sigma - 1)
    lam: float = _setting("number (1, inf) or null", None)
    j_max: int = _setting("whole [1, inf)", 12)
    # pin cutoff increments to frac*r instead of the measured delta: keeps
    # ramp geometry identical across grid resolutions (refinement compares)
    cutoff_delta_frac: float = _setting("number (0, 1) or null", None)

    def __post_init__(self):
        _hold(self, "params")
        if self.gamma == 0:
            raise ConfigError("gamma must satisfy 0 < |gamma| <= 2",
                              "params.gamma")
        if self.lam is None:     # derived, and held to lam's rule too
            self.lam = lambda_from_sigma(self.sigma)
            _hold(self, "params")


# the Dirichlet data of each boundary kind: its coefficients' defaults
_BOUNDARY = {"affine": {"ax": 1.0, "by": 0.0, "c": 2.0},
             "trig": {"c": 2.0, "amp": 0.5, "kx": 1.0, "ky": 1.0}}


@dataclass
class SolverSpec:
    """Settings of the discrete solve: damped Picard (theta, fp_tol,
    fp_max_iter) over frozen linear solves by PCG, which stops at relative
    residual lin_tol or fails after lin_max_iter iterations; the Dirichlet
    data (boundary), the constant right-hand side f (rhs), whether Picard
    runs at all (quasilinear) and the declared bounds of phi.  Every
    instance is validated when built."""

    theta: float = _setting("number (0, 1]", 0.7)
    fp_tol: float = _setting("number (0, inf)", 1e-9)
    fp_max_iter: int = _setting("whole [1, inf)", 40)
    lin_tol: float = _setting("number (0, inf)", 1e-12)
    lin_max_iter: int = _setting("whole [1, inf)", 40000)
    # an object of one kind's table, checked when built
    boundary: dict = _setting("object", lambda: {"kind": "affine",
                                                **_BOUNDARY["affine"]})
    rhs: float = _setting("number", 0.0)
    quasilinear: bool = _setting("bool", True)
    phi_bounds: tuple = _setting("pair", (1.0, 3.0))   # 0 < c_phi <= C_phi

    def __post_init__(self):
        _hold(self, "solver")
        kind = self.boundary.get("kind")
        if kind not in ("affine", "trig"):
            raise ConfigError("boundary.kind must be affine or trig",
                              "solver.boundary.kind")
        _check(self.boundary, {"kind": "text", **dict.fromkeys(
            _BOUNDARY[kind], "number")}, "solver.boundary")
        if not 0.0 < self.phi_bounds[0] <= self.phi_bounds[1]:
            raise ConfigError(f"must be finite numbers with 0 < c_phi <= "
                              f"C_phi, got {self.phi_bounds!r}",
                              "solver.phi_bounds")

    def boundary_values(self, grid):
        """The Dirichlet data at every node of grid: ax x + by y + c
        (affine) or c + amp sin(pi kx x) cos(pi ky y) (trig)."""
        X, Y = grid.meshgrid()
        b = {**_BOUNDARY[self.boundary["kind"]], **self.boundary}
        if b["kind"] == "affine":
            return b["ax"] * X + b["by"] * Y + b["c"]
        return b["c"] + b["amp"] * np.sin(math.pi * b["kx"] * X) \
            * np.cos(math.pi * b["ky"] * Y)


@dataclass
class ExperimentConfig:
    name: str = _setting("text")                       # and not empty
    profile: dict = _setting(_section(
        {"kind": "text", "param": "number", "domain_cap": "number"},
        required=("kind", "param")))
    grid: dict = _setting(_section(
        {"x0": "number", "x1": "number", "y0": "number", "y1": "number",
         "nx": "whole [17, inf)", "ny": "whole [17, inf)"}))
    balls: list = _setting(_items(_settings_of(BallSpec)))   # and not empty
    epsilons: dict = _setting(_section(
        {"eps0": "number (0, inf)", "rungs": "whole [3, inf)"}),
        lambda: {"eps0": 0.1, "rungs": 4})
    radii: dict = _setting(_section(
        {"r_max": "number (0, inf)", "count": "whole [3, inf)"}),
        lambda: {"r_max": 0.4, "count": 5})
    params: Params = _setting(_settings_of(Params), Params)
    solver: SolverSpec = _setting(_settings_of(SolverSpec), SolverSpec)
    required_flags: list = _setting("list", list)
    compare_budgets: dict = _setting(_section({}, every="number (0, inf)"),
                                    lambda: {"default": DEFAULT_BUDGET})
    # validated and echoed in report.json, but read by no stage; kept so
    # that configs carrying it, and the run benchmark's --seed, which
    # writes it, still load
    seed: int = _setting("whole [0, inf)", 0)

    def validate(self):
        """The checks that compare settings with each other or need the
        grid or the profile; from_dict has held each setting to its rule."""
        if not self.name:
            raise ConfigError("experiment needs a name, a non-empty string",
                              "name")
        try:
            profile = self.make_profile()  # the profile's own range checks
        except ProfileError as exc:
            raise ConfigError(str(exc), f"profile.{exc.field}") from exc
        grid = self.make_grid()
        if profile.kind == "paper_model":
            # the nodes' own x, as the form is assembled on them
            xs = grid.xs()
            for key, x in (("x0", xs[0]), ("x1", xs[-1])):
                if abs(x) >= profile.domain_cap:
                    raise ConfigError(
                        f"the paper_model profile needs |x| < its domain "
                        f"cap {profile.domain_cap}, got {self.grid[key]!r}",
                        f"grid.{key}")
        if not self.balls:
            raise ConfigError("need at least one ball", "balls")
        for k, b in enumerate(self.balls):
            if b.on_axis and abs(b.center[0]) > 1e-12:
                raise ConfigError("on_axis ball must sit at x = 0",
                                  f"balls[{k}].center")
            try:
                grid.nearest_node(*b.center)
            except ConfigError as exc:
                raise ConfigError(
                    f"center {list(b.center)!r} lies outside the grid",
                    f"balls[{k}].center") from exc
        known = set(RUN_FLAGS + BALL_FLAGS) | {
            f"ball{k}.{flag}" for k in range(len(self.balls))
            for flag in BALL_FLAGS}
        for k, name in enumerate(self.required_flags):
            if not (isinstance(name, str) and name in known):
                raise ConfigError(
                    f"names no flag a run reports, got {name!r}; the flags "
                    f"are {', '.join(RUN_FLAGS + BALL_FLAGS)}, a ball's "
                    f"also as ball<k>.<flag>", f"required_flags[{k}]")
        return self

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
        return _settings_of(cls)(d, "").validate()

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
