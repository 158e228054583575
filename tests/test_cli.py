"""CLI: config validation, subcommands, exit codes, determinism, compare."""

import csv
import importlib
import json
import math
import os
import shutil
import site
import subprocess
import sys
import weakref
import zipfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from conftest import read_npz, svg_image, validate_report

from subunit_lab import geometry, metric, pipeline
from subunit_lab.cli import main
from subunit_lab.config import BALL_FLAGS, RUN_FLAGS, ExperimentConfig
from subunit_lab.errors import (ConfigError, DomainError, ResolutionError,
                                SchemaMismatchError)
from subunit_lab.grid import GridSpec
from subunit_lab.metric import DistanceField
from subunit_lab.pipeline import (ARTIFACT_DIRS, STAGES, write_grid_csv,
                                  write_grid_npz)
from subunit_lab.reporting import DEFAULT_BUDGET, compare, load_report
from subunit_lab.svgplot import HEATMAP_CELLS, heatmap

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "src", "subunit_lab",
                       "configs")
SMOKE = os.path.join(CONFIGS, "euclidean-smoke.json")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _write_json(path, raw):
    Path(path).write_text(json.dumps(raw))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def smoke_cfg_path():
    return os.path.abspath(SMOKE)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory, smoke_cfg_path):
    out = tmp_path_factory.mktemp("smoke")
    code = main(["run", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("name", ["euclidean-smoke", "grushin-box-256",
                                  "grushin-box"])
def test_config_roundtrip(tmp_path, name):
    cfg = ExperimentConfig.load(os.path.join(CONFIGS, f"{name}.json"))
    p = tmp_path / "echo.json"
    cfg.dump(p)
    cfg2 = ExperimentConfig.load(p)
    assert cfg.to_dict() == cfg2.to_dict()
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() \
        == cfg.to_dict()


def test_malformed_config_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                 capsys):
    raw = _read_json(smoke_cfg_path)
    raw["params"]["nu"] = 1.5
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "params.nu" in err


@pytest.mark.parametrize("field", ["eps0", "r", "center"])
def test_nan_config_exit_1(tmp_path, smoke_cfg_path, field):
    # json.load accepts the NaN literal; validation must reject it rather
    # than let the run skip the ball and pass
    raw = _read_json(smoke_cfg_path)
    if field == "eps0":
        raw["epsilons"]["eps0"] = math.nan
    elif field == "r":
        raw["balls"][0]["r"] = math.nan
    else:
        raw["balls"][0]["center"][1] = math.nan
    bad = tmp_path / "nan.json"
    _write_json(bad, raw)
    assert "NaN" in bad.read_text()
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1


# NaN and inf pass the range checks (nx >= 17, rungs and count >= 3) and
# raise inside int(); each non-integral value passes them and is truncated
@pytest.mark.parametrize("section,key,value", [
    (section, key, value)
    for section, key, non_integral in [("epsilons", "rungs", 3.5),
                                       ("radii", "count", 4.5),
                                       ("grid", "nx", 129.5),
                                       ("grid", "ny", 129.5)]
    for value in (math.nan, math.inf, non_integral)])
def test_non_integral_count_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                   capsys, section, key,
                                                   value):
    raw = _read_json(smoke_cfg_path)
    raw[section][key] = value
    bad = tmp_path / "count.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{section}.{key}" in capsys.readouterr().err


# json.load accepts NaN; each value passed the range checks and ended in a
# traceback (a range() of a float among them), a run reporting C = nan, or
# every Picard step against an unreachable tolerance.  A NaN profile
# parameter ran f = 1 with exit 0, +inf ran and skipped every ball, a
# negative one exited 4, and a string one, like a NaN or string boundary
# coefficient, rhs or a fractional seed, ended in a traceback; the string
# "false" for quasilinear ran Picard with exit 0; a string theta exited 1
# naming no field.  A name of 5 ran the whole pipeline and then failed
# the report's schema with a traceback; a budget of "x" ran with exit 0.
# A section that is not an object ended in a traceback (epsilons, radii,
# profile, grid) or exited 1 naming only the config (params, solver,
# balls and a ball that is not an object).  A key that names no setting
# ran with exit 0 (requried_flags, epsilon, grid.nz, profile.lam,
# radii.cnt, and amp on an affine boundary) or exited 1 naming only the
# config (params.nuu, solver.lin_tool, and phi_bounds that is no list).
# A dotted key is a path into the section; an empty key sets the
# top-level field.
@pytest.mark.parametrize("section,key,value", [
    ("params", "sigma", math.nan), ("params", "gamma", math.nan),
    ("params", "C", math.nan), ("params", "lam", math.nan),
    ("params", "j_max", math.nan), ("params", "j_max", 3.5),
    ("solver", "lin_tol", math.nan), ("solver", "fp_tol", math.nan),
    ("solver", "fp_max_iter", 2.5), ("solver", "lin_max_iter", 2.5),
    ("profile", "param", math.nan), ("profile", "param", math.inf),
    ("profile", "param", -1.0), ("profile", "param", "one"),
    ("solver", "boundary.ax", math.nan), ("solver", "boundary.by", "zero"),
    ("solver", "boundary.c", math.inf), ("solver", "boundary.amp", math.nan),
    ("solver", "boundary.kx", math.nan), ("solver", "boundary.ky", "one"),
    ("solver", "rhs", math.nan), ("solver", "rhs", "half"),
    ("solver", "theta", "0.7"),
    ("solver", "quasilinear", "false"),
    pytest.param("solver", "boundary", [1.0, 2.0], id="boundary-list"),
    pytest.param("solver", "phi_bounds", [3.0, 1.0], id="phi-reversed"),
    pytest.param("solver", "phi_bounds", [0.0, 3.0], id="phi-zero"),
    pytest.param("solver", "phi_bounds", [1.0, math.inf], id="phi-inf"),
    ("seed", "", 2.5), ("seed", "", math.nan), ("seed", "", "seven"),
    ("name", "", 5), ("name", "", ""),
    ("compare_budgets", "default", "x"),
    ("compare_budgets", "default", math.nan),
    ("compare_budgets", "default", -0.3),
    ("compare_budgets", "default", math.inf),
    pytest.param("compare_budgets", "", "x", id="budgets-string"),
    pytest.param("epsilons", "", [1], id="epsilons-list"),
    pytest.param("radii", "", "x", id="radii-string"),
    pytest.param("profile", "", 5, id="profile-number"),
    pytest.param("grid", "", 5, id="grid-number"),
    pytest.param("params", "", [1], id="params-list"),
    pytest.param("solver", "", 5, id="solver-number"),
    pytest.param("balls", "", "x", id="balls-string"),
    pytest.param("balls", "", ["x"], id="ball-string"),
    pytest.param("solver", "phi_bounds", 5, id="phi-number"),
    pytest.param("solver", "boundary.kind", ["affine"], id="kind-list"),
    pytest.param("requried_flags", "", [], id="unknown-top-level"),
    pytest.param("epsilon", "", {"eps0": 0.1}, id="unknown-section"),
    ("grid", "nz", 3), ("profile", "lam", 9.0), ("radii", "cnt", 4),
    ("epsilons", "eps", 0.1), ("params", "nuu", 0.5),
    ("solver", "lin_tool", 1e-12), ("solver", "boundary.amp", 0.5),
    # every other setting fed NaN or a string (each exited 1 naming it)
    *((key, "", math.nan) for key in (
        "name", "required_flags", "compare_budgets", "balls", "profile",
        "grid", "epsilons", "radii", "params", "solver")),
    *((section, "", "x") for section in (
        "profile", "grid", "epsilons", "params", "solver")),
    ("profile", "kind", math.nan),
    *(("grid", key, math.nan) for key in ("x0", "x1", "y0", "y1")),
    ("grid", "nx", "129"), ("grid", "ny", "129"),
    ("epsilons", "rungs", "3"), ("radii", "count", "4"),
    *(("params", key, math.nan) for key in (
        "nu", "nu0", "mu", "eta", "cutoff_delta_frac")),
    ("params", "lam", "9"), ("params", "j_max", "12"),
    *(("solver", key, math.nan) for key in (
        "theta", "fp_max_iter", "lin_max_iter", "boundary", "boundary.kind",
        "boundary.by", "quasilinear", "phi_bounds")),
    ("solver", "fp_tol", "1e-9"), ("solver", "fp_max_iter", "30"),
    ("solver", "lin_tol", "1e-12"), ("solver", "lin_max_iter", "400"),
    ("solver", "boundary", "affine"), ("solver", "boundary.kind", "cubic"),
    ("solver", "boundary.ax", "one"), ("solver", "boundary.c", "two"),
    ("solver", "phi_bounds", "1, 3")])
def test_nan_or_fractional_setting_exit_1_with_field_path(
        tmp_path, smoke_cfg_path, capsys, section, key, value):
    raw = _read_json(smoke_cfg_path)
    path = f"{section}.{key}" if key else section
    *parents, leaf = path.split(".")
    target = raw
    for name in parents:
        target = target[name]
    target[leaf] = value
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# amp, kx and ky are settings of trig data only (on affine data they name
# no setting), so their range check is a trig boundary's
@pytest.mark.parametrize("key", ["amp", "kx", "ky", "c"])
def test_nan_trig_boundary_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                  capsys, key):
    raw = _read_json(smoke_cfg_path)
    raw["solver"]["boundary"] = dict(TRIG, **{key: math.nan})
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert (f"solver.boundary.{key}: must be a finite number"
            in capsys.readouterr().err)


# a string coefficient of trig data ended in a traceback
@pytest.mark.parametrize("key", ["amp", "kx", "ky", "c"])
def test_string_trig_boundary_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                     capsys, key):
    raw = _read_json(smoke_cfg_path)
    raw["solver"]["boundary"] = dict(TRIG, **{key: "1.0"})
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert (f"solver.boundary.{key}: must be a finite number"
            in capsys.readouterr().err)


# a key of a ball that names no setting ran with exit 0; a ball without
# r or center, or with a center that is no list, exited 1 naming only the
# config; a center off the grid exited 1 naming the grid, after the form
# and the solve had run, and one far enough off ended in a traceback
# (round() of an infinite quotient)
@pytest.mark.parametrize("change,path", [
    pytest.param({"radius": 0.2}, "balls[0].radius", id="unknown-key"),
    pytest.param({"r": None}, "balls[0].r", id="no-r"),
    pytest.param({"center": None}, "balls[0].center", id="no-center"),
    pytest.param({"center": 5}, "balls[0].center", id="center-number"),
    pytest.param({"center": [0.0, 2.0]}, "balls[0].center", id="off-grid"),
    pytest.param({"center": [0.0, 1e308]}, "balls[0].center",
                 id="far-off-grid")])
def test_ball_exit_1_with_field_path(tmp_path, smoke_cfg_path, capsys,
                                     change, path, monkeypatch):
    raw = _read_json(smoke_cfg_path)
    ball = raw["balls"][0]
    ball.update(change)
    for key in [k for k, v in change.items() if v is None]:
        del ball[key]
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    # the config is rejected before any stage runs
    monkeypatch.setattr(pipeline, "build_form",
                        lambda cfg: pytest.fail("a stage ran"))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# a paper_model grid past the domain cap exited 4 from the form assembly
@pytest.mark.parametrize("x0,x1,path", [(-0.95, 0.95, "grid.x0"),
                                        (-0.5, 0.95, "grid.x1"),
                                        (-0.9, 0.5, "grid.x0")])
def test_paper_model_grid_past_domain_cap_exit_1(tmp_path, smoke_cfg_path,
                                                 capsys, x0, x1, path):
    raw = _read_json(smoke_cfg_path)
    raw["profile"] = {"kind": "paper_model", "param": 9.0}
    raw["grid"].update(x0=x0, x1=x1)
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# name, profile, grid and balls have no default
@pytest.mark.parametrize("field", ["name", "profile", "grid", "balls"])
def test_missing_section_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                capsys, field):
    raw = _read_json(smoke_cfg_path)
    del raw[field]
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert field in capsys.readouterr().err


# a document that is not an object ended in a traceback
def test_config_not_an_object_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("5\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config: must be an object" in capsys.readouterr().err


# a string number ended in a traceback (a comparison of a float with a
# str, or math.isfinite of a str), and a string grid.x0 passed validation;
# each key path leads from the config's root to the field
@pytest.mark.parametrize("keys,path", [
    *(pytest.param(("params", name), f"params.{name}", id=f"params.{name}")
      for name in ("sigma", "nu", "nu0", "mu", "eta", "C", "gamma",
                   "cutoff_delta_frac")),
    *(pytest.param(("grid", name), f"grid.{name}", id=f"grid.{name}")
      for name in ("x0", "x1", "y0", "y1")),
    pytest.param(("balls", 0, "center", 0), "balls[0].center", id="center-x"),
    pytest.param(("balls", 0, "center", 1), "balls[0].center", id="center-y"),
    pytest.param(("balls", 0, "r"), "balls[0].r", id="r")])
def test_string_number_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                              capsys, keys, path):
    raw = _read_json(smoke_cfg_path)
    *parents, leaf = keys
    target = raw
    for key in parents:
        target = target[key]
    target[leaf] = "0.5"
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# a required flag that names no reported flag required nothing: the run
# exited 0 whatever the flags said
@pytest.mark.parametrize("required,path", [
    (["no_such_flag"], "required_flags[0]"),
    (["harnack", "harnak"], "required_flags[1]"),
    (["ball1.harnack"], "required_flags[0]"),
    (["ball0.max_principle"], "required_flags[0]"),
    (["skipped"], "required_flags[0]"),
    ([5], "required_flags[0]"),
    ("harnack", "required_flags")])
def test_unknown_required_flag_exit_1_with_field_path(
        tmp_path, smoke_cfg_path, capsys, required, path):
    raw = _read_json(smoke_cfg_path)
    raw["required_flags"] = required
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


def test_reported_flags_are_the_requirable_ones(smoke_run):
    # RUN_FLAGS and BALL_FLAGS, which required_flags is checked against,
    # are the pass flags a run reports; the smoke run reports every one
    rep = load_report(smoke_run / "report.json")
    assert set(rep["flags"]) == set(RUN_FLAGS) | {
        f"ball0.{flag}" for flag in BALL_FLAGS}


# bool("false") is True: the string ran the ball as an on-axis one
@pytest.mark.parametrize("value", ["false", 0, math.nan])
def test_on_axis_must_be_boolean(tmp_path, smoke_cfg_path, capsys, value):
    raw = _read_json(smoke_cfg_path)
    raw["balls"][0]["on_axis"] = value
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "balls[0].on_axis" in capsys.readouterr().err


# the profile's range checks: these exited 4 (a DomainError) or, for a
# string domain_cap, ended in a traceback; an infinite domain_cap on a
# profile that ignores it ran, and JSON has no infinity to dump it as
@pytest.mark.parametrize("profile,path", [
    ({"kind": "paper_model", "param": 1.0}, "profile.param"),
    ({"kind": "paper_model", "param": 9.0, "domain_cap": 1.5},
     "profile.domain_cap"),
    ({"kind": "paper_model", "param": 9.0, "domain_cap": math.nan},
     "profile.domain_cap"),
    ({"kind": "paper_model", "param": 9.0, "domain_cap": "0.9"},
     "profile.domain_cap"),
    ({"kind": "power", "param": 1.0, "domain_cap": math.inf},
     "profile.domain_cap"),
    ({"kind": "cubic", "param": 1.0}, "profile.kind")],
    ids=["lambda-1", "cap-1.5", "cap-nan", "cap-string", "cap-inf-power",
         "kind"])
def test_invalid_profile_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                capsys, profile, path):
    raw = _read_json(smoke_cfg_path)
    raw["profile"] = profile
    bad = tmp_path / "bad.json"
    _write_json(bad, raw)
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


def test_whole_number_float_counts_run_as_ints(tmp_path, smoke_cfg_path,
                                               smoke_run):
    raw = _read_json(smoke_cfg_path)
    raw["params"]["j_max"] = 12.0
    raw["solver"]["fp_max_iter"] = 30.0
    raw["solver"]["lin_max_iter"] = 40000.0
    p = tmp_path / "floats.json"
    _write_json(p, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert ((out / "report.json").read_bytes()
            == (smoke_run / "report.json").read_bytes())


def test_max_principle_tolerance_scales_with_boundary_range(smoke_cfg_path,
                                                            monkeypatch):
    # data x + 10 spans [9.5, 10.5]: the tolerance is 1e-8 times that
    # range, 1.0, so a slack of 5e-8 fails (the whole grid's range, 10.5,
    # with its interior zeros, would pass it)
    raw = _read_json(smoke_cfg_path)
    raw["solver"]["boundary"]["c"] = 10.0
    raw["solver"]["quasilinear"] = False
    cfg = ExperimentConfig.from_dict(raw)
    monkeypatch.setattr(pipeline, "max_principle_slack", lambda u, s: 5e-8)
    *_, info = pipeline.solve_global(cfg, pipeline.build_form(cfg))
    assert info["linear_max_principle_slack"] == 5e-8
    assert info["max_principle_ok"] is False


def test_median_is_numpys_bit_for_bit(monkeypatch):
    # ties included, but not a tie of 0.0 with -0.0, where either is a
    # median: the fit's differences of logs are never -0.0
    rng = np.random.default_rng(20)
    for n in range(1, 41):
        x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
        x[rng.random(n) < 0.1] = 0.0
        x[rng.random(n) < 0.1] = x[0]
        for values in (x.tolist(), list(x), x):
            assert (geometry._median(values).hex()
                    == float(np.median(values)).hex()), (n, values)
    # the two medians of the delta-law fit on grushin-145's ball1: the
    # pairwise slopes, then the intercepts at the chosen slope
    raw = _read_json(os.path.join(os.path.dirname(SMOKE),
                                  "grushin-box-256.json"))
    raw["grid"].update(nx=145, ny=145)
    cfg = ExperimentConfig.from_dict(raw)
    form = pipeline.build_form(cfg)
    spec = cfg.balls[1]
    _, field = pipeline.metric_stage(cfg, form, spec)
    seen = []
    median = geometry._median
    monkeypatch.setattr(geometry, "_median",
                        lambda v: seen.append(v) or median(v))
    pipeline.geometry_stage(cfg, form, spec, field)
    assert len(seen) == 2 and isinstance(seen[0], list) and len(seen[0]) > 3
    for values in seen:
        assert median(values).hex() == float(np.median(values)).hex()


def test_envelope_violation_is_exact_and_reads_no_seed(smoke_cfg_path):
    # phi = 2 + tanh z approaches 3, so C_phi = 2.5 is violated by exactly
    # 3 - 2.5; no seed changes that.  The linear solve alone is enough.
    raw = _read_json(smoke_cfg_path)
    raw["solver"].update(phi_bounds=[1.0, 2.5], quasilinear=False)
    form = pipeline.build_form(ExperimentConfig.from_dict(raw))
    for seed in range(5):
        raw["seed"] = seed
        info = pipeline.solve_global(ExperimentConfig.from_dict(raw), form)[3]
        assert info["envelope_max_violation"] == 0.5


def test_missing_config_exit_1(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_smoke_run_all_flags_and_artifact_tree(smoke_run):
    rep = load_report(smoke_run / "report.json")
    assert all(rep["flags"].values())
    validate_report(rep)
    for sub in ("distances", "balls", "cutoffs", "solutions", "diagnostics",
                "plots"):
        assert (smoke_run / sub).is_dir()
    assert (smoke_run / "balls" / "ball0.csv").exists()
    assert (smoke_run / "plots" / "ball0_volumes.svg").exists()
    header = ((smoke_run / "balls" / "ball0.csv").read_text()
              .splitlines()[0].strip())
    assert header == "r,volume,doubling_ratio,delta,delta_over_r,g_of_r"


def test_schema_check_rejects_a_non_boolean_flag(smoke_run):
    rep = load_report(smoke_run / "report.json")
    rep["flags"]["max_principle"] = "true"
    with pytest.raises(jsonschema.ValidationError, match="boolean"):
        validate_report(rep)


def test_report_byte_determinism(tmp_path, smoke_cfg_path, smoke_run):
    out2 = tmp_path / "again"
    code = main(["run", "--config", smoke_cfg_path, "--out", str(out2)])
    assert code == 0
    a = (smoke_run / "report.json").read_bytes()
    b = (out2 / "report.json").read_bytes()
    assert a == b


def test_run_drops_a_ball_s_arrays_before_the_next_ball(tmp_path,
                                                       monkeypatch):
    # grushin-145 (the bench workload) measures two balls.  When ball1's
    # stages start, nothing of ball0 is alive: not its field, its
    # analytics or its cutoffs.  The volume function the analytics are
    # built from dies with the geometry stage, and the special cutoff
    # with the cutoff stage, which hands on its constant only
    raw = _read_json(os.path.join(CONFIGS, "grushin-box-256.json"))
    raw["grid"].update(nx=145, ny=145)
    cfg = ExperimentConfig.from_dict(raw)
    assert len(cfg.balls) == 2
    run_ball = pipeline.run_ball
    geometry_stage = pipeline.geometry_stage
    cutoff_stage = pipeline.cutoff_stage
    build_special_cutoff = pipeline.build_special_cutoff
    VolumeFunction = geometry.VolumeFunction
    probes, alive_at_start, specials, special_alive = [], {}, [], []
    volume_functions, volume_alive = [], []

    def probed(cfg, form, spec, ball_id, *args, **kwargs):
        alive_at_start[ball_id] = [name for name, ref in probes
                                   if ref() is not None]
        report, flags, art = run_ball(cfg, form, spec, ball_id, *args,
                                      **kwargs)
        finest, geo, cuts = art["finest"], art["geo"], art["cuts"]
        held = {"field": finest, "field.values": finest.values,
                "analytics": geo.analytics,
                "cutoffs": cuts, "sequence": cuts.seq}
        probes.extend((f"{ball_id}.{name}", weakref.ref(obj))
                      for name, obj in held.items())
        return report, flags, art

    def volume_probed(field):
        vol = VolumeFunction(field)
        volume_functions.append(weakref.ref(vol))
        return vol

    def geometry_probed(*args, **kwargs):
        result = geometry_stage(*args, **kwargs)
        volume_alive.append([ref() is not None for ref in volume_functions])
        return result

    def special_probed(*args, **kwargs):
        special = build_special_cutoff(*args, **kwargs)
        specials.append(weakref.ref(special))
        return special

    def cutoff_probed(*args, **kwargs):
        result = cutoff_stage(*args, **kwargs)
        special_alive.append(specials[-1]() is not None)
        return result

    monkeypatch.setattr(pipeline, "run_ball", probed)
    monkeypatch.setattr(geometry, "VolumeFunction", volume_probed)
    monkeypatch.setattr(pipeline, "geometry_stage", geometry_probed)
    monkeypatch.setattr(pipeline, "build_special_cutoff", special_probed)
    monkeypatch.setattr(pipeline, "cutoff_stage", cutoff_probed)
    report, failed = pipeline.run_experiment(cfg, str(tmp_path / "out"))
    assert sorted(report["balls"]) == ["ball0", "ball1"] and not failed
    assert len(probes) == 10
    assert alive_at_start == {"ball0": [], "ball1": []}
    assert len(volume_functions) == 2
    assert volume_alive == [[False], [False, False]]
    assert len(specials) == 2 and special_alive == [False, False]


def test_compare_identical_reports_empty_diff(smoke_run):
    rep = load_report(smoke_run / "report.json")
    rows, flagged = compare(rep, rep)
    assert rows
    assert not flagged
    assert all(r[3] == 0.0 for r in rows)


def test_compare_default_budget_is_the_config_default(smoke_run):
    # a report that names no budget is compared against the default that
    # a config without compare_budgets gets
    rep = load_report(smoke_run / "report.json")
    rep.pop("budgets")
    raw = _read_json(SMOKE)
    del raw["compare_budgets"]
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.compare_budgets == {"default": DEFAULT_BUDGET}
    other = json.loads(json.dumps(rep))
    constants = other["balls"]["ball0"]["constants"]
    key = next(k for k, v in sorted(constants.items())
               if isinstance(v, float) and v > 0)
    constants[key] *= 1.0 - 0.9 * DEFAULT_BUDGET
    rows, flagged = compare(rep, other)
    assert {r[4] for r in rows} == {DEFAULT_BUDGET}
    assert flagged == []
    constants[key] = rep["balls"]["ball0"]["constants"][key] \
        * (1.0 - 1.1 * DEFAULT_BUDGET)
    assert compare(rep, other)[1] == [f"ball0.{key}"]


def test_compare_schema_mismatch(smoke_run):
    rep = load_report(smoke_run / "report.json")
    other = dict(rep)
    other["schema_version"] = "999"
    with pytest.raises(SchemaMismatchError):
        compare(rep, other)


def test_compare_cli_exit_codes(tmp_path, smoke_run):
    rep_path = str(smoke_run / "report.json")
    assert main(["compare", rep_path, rep_path]) == 0


# edits of a readable report that leave a section compare reads
# malformed, with the field the error names
BAD_SECTIONS = {
    "budgets-list": (lambda rep: rep.update(budgets=[0.3]), "budgets"),
    "budget-string": (lambda rep: rep["budgets"].update(default="x"),
                      "budgets.default"),
    "balls-list": (lambda rep: rep.update(balls=[1]), "balls"),
    "ball-number": (lambda rep: rep["balls"].update(ball0=5), "balls.ball0"),
    "constants-list": (lambda rep: rep["balls"]["ball0"].update(
        constants=[1.0]), "balls.ball0.constants"),
    "solver-string": (lambda rep: rep.update(solver="x"), "solver"),
}


# each ended in a traceback: FileNotFoundError, JSONDecodeError, and an
# AttributeError or ValueError from compare reading the report
@pytest.mark.parametrize("content", [None, "{\n", "[1, 2]\n", *BAD_SECTIONS],
                         ids=["missing", "invalid-json", "list",
                              *BAD_SECTIONS])
def test_compare_bad_report_exit_1_naming_it(tmp_path, smoke_run, capsys,
                                             content):
    bad = tmp_path / "bad.json"
    good = str(smoke_run / "report.json")
    field = ""
    if content in BAD_SECTIONS:
        edit, field = BAD_SECTIONS[content]
        rep = load_report(good)
        edit(rep)
        bad.write_text(json.dumps(rep))
    elif content is not None:
        bad.write_text(content)
    for pair in ([str(bad), good], [good, str(bad)]):
        assert main(["compare", *pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(bad) in err and f" {field}" in err


def test_strict_compare_fails_a_constant_over_budget(tmp_path, smoke_run,
                                                     capsys):
    good = str(smoke_run / "report.json")
    rep = load_report(good)
    rep["balls"]["ball0"]["constants"]["sobolev_c"] *= 2.0
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(rep))
    assert main(["compare", good, str(drifted)]) == 0
    assert "1 of " in capsys.readouterr().out
    assert main(["--strict", "compare", good, str(drifted)]) == 4
    assert main(["--strict", "compare", good, good]) == 0


def test_growth_failure_exit_4(tmp_path, smoke_cfg_path, capsys):
    # exp(-a/|x|) degenerates too fast: delta(r)/r ~ r, so the growth
    # condition genuinely fails; requiring that flag must exit 4
    raw = _read_json(smoke_cfg_path)
    raw["name"] = "exponential-growth-fail"
    raw["profile"] = {"kind": "exponential", "param": 0.1}
    raw["balls"] = [{"center": [0.0, 0.0], "r": 0.2, "on_axis": False}]
    raw["required_flags"] = ["growth_increasing"]
    p = tmp_path / "exp.json"
    _write_json(p, raw)
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "growth_increasing" in capsys.readouterr().err


def test_strict_run_fails_any_false_flag(tmp_path, smoke_cfg_path, capsys):
    # the growth condition fails here (see above), but no config requires
    # the flag: only --strict makes the false flag fail the run
    raw = _read_json(smoke_cfg_path)
    raw["profile"] = {"kind": "exponential", "param": 0.1}
    raw["balls"] = [{"center": [0.0, 0.0], "r": 0.2, "on_axis": False}]
    p = tmp_path / "exp.json"
    _write_json(p, raw)
    assert main(["run", "--config", str(p), "--out",
                 str(tmp_path / "lax")]) == 0
    report = _read_json(tmp_path / "lax" / "report.json")
    assert report["flags"]["ball0.growth_increasing"] is False
    capsys.readouterr()
    assert main(["--strict", "run", "--config", str(p), "--out",
                 str(tmp_path / "strict")]) == 4
    err = capsys.readouterr().err
    assert err == "required flags failed: ball0.growth_increasing\n"


def _smoke_variant(tmp_path, smoke_cfg_path, extent, n, ball, **params):
    raw = _read_json(smoke_cfg_path)
    raw["grid"].update(x0=-extent, x1=extent, y0=-extent, y1=extent, nx=n,
                       ny=n)
    raw["balls"] = [ball]
    raw["radii"] = {"r_max": 2.0 * ball["r"], "count": 4}
    raw["params"].update(params)
    raw["solver"]["boundary"]["c"] = 2.0 * extent + 2.0   # u stays positive
    p = tmp_path / "variant.json"
    _write_json(p, raw)
    return str(p)


def test_growth_is_judged_on_the_band_radii_below_1(tmp_path, smoke_cfg_path):
    # the band of r = 0.6 reaches 1.23; the parent checked the growth
    # condition on every band radius and exited 4 ("need r < 1")
    p = _smoke_variant(tmp_path, smoke_cfg_path, 2.0, 65,
                       {"center": [0.0, 0.0], "r": 0.6, "on_axis": True})
    out = tmp_path / "o"
    assert main(["run", "--config", p, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert all(report["flags"].values()) and report["notes"] == []
    assert report["balls"]["ball0"]["geometry"]["growth_increasing"] is True
    rows = _read_csv(out / "balls" / "ball0.csv")
    assert float(rows[-1]["r"]) > 1.0 > float(rows[0]["r"])
    for row in rows:
        assert math.isnan(float(row["g_of_r"])) == (float(row["r"]) >= 1.0)


def _growth_unjudged_variant(tmp_path, smoke_cfg_path):
    # at 33^2 on [-8, 8]^2 the band of r = 3 starts above 1
    return _smoke_variant(tmp_path, smoke_cfg_path, 8.0, 33,
                          {"center": [0.0, 0.0], "r": 3.0, "on_axis": False},
                          nu=0.75, nu0=0.75, eta=0.9)


GROWTH_UNJUDGED = ("ball0: growth condition not judged: 0 band radii below "
                   "1, it needs 3")


def test_growth_not_judged_below_three_small_radii(tmp_path, smoke_cfg_path):
    p = _growth_unjudged_variant(tmp_path, smoke_cfg_path)
    out = tmp_path / "o"
    assert main(["run", "--config", p, "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["balls"]["ball0"]["geometry"]["growth_increasing"] is None
    assert "ball0.growth_increasing" not in report["flags"]
    assert report["notes"] == [GROWTH_UNJUDGED]


@pytest.mark.parametrize("command", ["balls", "cutoff"])
def test_subcommands_print_a_measured_ball_s_notes(tmp_path, smoke_cfg_path,
                                                   capsys, command):
    # the ball is measured, its growth condition is not judged: the
    # subcommand says why its g_of_r column is nan, as `run` notes it
    p = _growth_unjudged_variant(tmp_path, smoke_cfg_path)
    out = tmp_path / command
    assert main([command, "--config", p, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == GROWTH_UNJUDGED
    assert len(lines) == 2 and lines[1].startswith("ball0: ")
    if command == "balls":
        rows = _read_csv(out / "ball0.csv")
        assert all(math.isnan(float(row["g_of_r"])) for row in rows)


def test_solver_nonconvergence_exit_3(tmp_path, smoke_cfg_path, capsys):
    raw = _read_json(smoke_cfg_path)
    raw["name"] = "stiff-no-convergence"
    raw["solver"]["theta"] = 1.0
    raw["solver"]["fp_tol"] = 1e-15
    raw["solver"]["fp_max_iter"] = 2
    raw["solver"]["boundary"] = {"kind": "trig", "amp": 0.8, "kx": 3.0,
                                 "ky": 2.0, "c": 2.0}
    p = tmp_path / "stiff.json"
    _write_json(p, raw)
    errs = {}
    for command in ("run", "solve", "diagnose"):
        out = tmp_path / command
        assert main([command, "--config", str(p), "--out", str(out)]) == 3
        errs[command] = capsys.readouterr().err
    assert errs["diagnose"] == errs["run"] != ""
    assert errs["solve"] == errs["run"]
    # diagnose still measures, on the linear solution, as run does
    assert (tmp_path / "diagnose" / "diagnostics.json").exists()


def test_dist_subcommand(tmp_path, smoke_cfg_path):
    out = tmp_path / "dist"
    code = main(["dist", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    files = sorted(os.listdir(out))
    assert any(f.startswith("ball0_eps") for f in files)


def test_dist_monotonicity_violation_exit_2(tmp_path, smoke_cfg_path,
                                           monkeypatch, capsys):
    # dist is the one path that solves the whole eps ladder; a finest rung
    # that drops below the one before it must stop it with a geometry error
    eps_min = ExperimentConfig.load(smoke_cfg_path).epsilon_ladder()[-1]
    solve = metric.solve_distance

    def corrupted(form, source, epsilon):
        f = solve(form, source, epsilon)
        if epsilon != eps_min:
            return f
        values = f.values.copy()
        values[10, 10] = 0.0
        return DistanceField(grid=f.grid, source=f.source,
                             epsilon=f.epsilon, values=values)

    monkeypatch.setattr("subunit_lab.metric.solve_distance", corrupted)
    code = main(["dist", "--config", smoke_cfg_path,
                 "--out", str(tmp_path / "dist")])
    assert code == 2
    assert "distance decreased" in capsys.readouterr().err


def test_balls_subcommand(tmp_path, smoke_cfg_path):
    out = tmp_path / "balls"
    code = main(["balls", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    assert (out / "ball0.csv").exists()


def test_cutoff_subcommand(tmp_path, smoke_cfg_path):
    out = tmp_path / "cut"
    code = main(["cutoff", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    assert (out / "ball0_cutoffs.csv").exists()


def test_solve_subcommand(tmp_path, smoke_cfg_path):
    out = tmp_path / "solve"
    code = main(["solve", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    assert (out / "linear.csv").exists()
    assert (out / "quasilinear.csv").exists()


def test_subcommands_match_run(tmp_path, smoke_cfg_path, smoke_run):
    # each subcommand runs the pipeline stage it shows, so its table is
    # the one `run` writes, byte for byte
    finest = ExperimentConfig.load(smoke_cfg_path).epsilon_ladder()[-1]
    pairs = {"dist": [(f"ball0_eps{finest:g}.npz",
                       "distances/ball0_finest.npz")],
             "balls": [("ball0.csv", "balls/ball0.csv")],
             "cutoff": [("ball0_cutoffs.csv", "cutoffs/ball0.csv")],
             "solve": [("linear.csv", "solutions/linear.csv"),
                       ("quasilinear.csv", "solutions/quasilinear.csv")]}
    for command, files in pairs.items():
        out = tmp_path / command
        assert main([command, "--config", smoke_cfg_path,
                     "--out", str(out)]) == 0
        for mine, theirs in files:
            assert (out / mine).read_bytes() == \
                (smoke_run / theirs).read_bytes(), (command, mine)


def test_artifact_csv_cells_are_plain_numbers(smoke_run, tmp_path):
    for sub in ("balls", "cutoffs", "solutions"):
        paths = sorted((smoke_run / sub).glob("*.csv"))
        assert paths, sub
        for path in paths:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                for cell in row:
                    float(cell)
    # compare's diff.csv: per row a constant's key, four numbers, a verdict
    report = str(smoke_run / "report.json")
    assert main(["compare", report, report, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "diff.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for key, *numbers, ok in rows:
        assert key.startswith(("ball0.", "solver.")), key
        assert len(numbers) == 4
        for cell in numbers:
            float(cell)
        assert ok == "True"
    # each distance field is three float64 arrays, no pickled object
    grid = ExperimentConfig.load(SMOKE).make_grid()
    paths = sorted((smoke_run / "distances").iterdir())
    assert [p.suffix for p in paths] == [".npz"]
    for path in paths:
        read_npz(path, grid)


def _csv_writer_grid_csv(path, grid, values, name):
    # the former write_grid_csv: meshgrid rows through csv.writer, each
    # cell formatted as repr(float(v))
    X, Y = grid.meshgrid()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("x", "y", name))
        for row in zip(X.ravel(), Y.ravel(), values.ravel()):
            w.writerow([repr(float(v)) for v in row])


GRID = GridSpec(-1.3, -0.1, -0.7, 0.45, 41, 23)


def _grid_values(grid):
    values = np.random.default_rng(5).normal(size=grid.shape)
    values[0, :5] = [math.inf, math.nan, -0.0, 1e-300, 5e-324]
    values[-1, -3:] = [-math.inf, 0.0, -5e-324]
    return values


def _grid_field(grid):
    # a bounded march's holes: a whole column, a column's top, a lone node
    values = _grid_values(grid)
    values[3] = math.inf
    values[7, 9:] = math.inf
    values[20, 11] = math.inf
    return values


def test_write_grid_csv_matches_csv_writer_bytes(tmp_path):
    values = _grid_values(GRID)
    write_grid_csv(tmp_path / "new.csv", GRID, values, "value")
    _csv_writer_grid_csv(tmp_path / "old.csv", GRID, values, "value")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == 41 * 23 + 1
    assert b",-inf\r\n" in new and b",-0.0\r\n" in new
    # node (0, 0) is +inf, a row like any other; node (0, 1) is nan
    rows = new.split(b"\r\n")
    assert rows[1] == b"-1.3,-0.7,inf" and rows[2].endswith(b",nan")


def test_write_grid_csv_round_trips_every_value(tmp_path):
    # one row per node, each reading back as its node's value, bit for bit
    values = _grid_values(GRID)
    write_grid_csv(tmp_path / "f.csv", GRID, values, "value")
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    node = {(x, y): (i, j) for i, x in enumerate(GRID.xs().tolist())
            for j, y in enumerate(GRID.ys().tolist())}
    back = np.full(GRID.shape, 7.0)
    for x, y, v in rows[1:]:
        back[node[float(x), float(y)]] = float(v)
    assert len(rows) - 1 == values.size
    assert back.view(np.int64).tolist() == values.view(np.int64).tolist()


@pytest.mark.parametrize("shape", [(41, 22), (40, 23), (41 * 23 - 1,),
                                   (41, 24), (42, 23), (41 * 23 + 1,)],
                         ids=["short-y", "short-x", "short-flat",
                              "long-y", "long-x", "long-flat"])
def test_write_grid_csv_rejects_values_off_the_grid(tmp_path, shape):
    # too few values ran the cell generator dry (a RuntimeError from
    # StopIteration); too many were cut to the grid's node count unseen
    grid = GridSpec(-1.3, -0.1, -0.7, 0.45, 41, 23)
    with pytest.raises(DomainError, match="shape"):
        write_grid_csv(tmp_path / "bad.csv", grid, np.zeros(shape), "value")
    with pytest.raises(DomainError, match="shape"):
        write_grid_npz(tmp_path / "bad.npz", grid, np.zeros(shape))
    assert not os.listdir(tmp_path)


def test_write_grid_npz_round_trips_every_value(tmp_path):
    # the holes, nan, -inf, -0.0 and subnormals read back bit for bit;
    # a finite node in the first and last column and row keeps the whole
    # grid, and a field with one finite node is a 1 x 1 crop
    values = _grid_field(GRID)
    write_grid_npz(tmp_path / "f.npz", GRID, values)
    back, crop = read_npz(tmp_path / "f.npz", GRID)
    assert crop == GRID.shape
    assert back.view(np.int64).tolist() == values.view(np.int64).tolist()
    one = np.full(GRID.shape, math.inf)
    one[17, 5] = 0.25
    write_grid_npz(tmp_path / "one.npz", GRID, one)
    back, crop = read_npz(tmp_path / "one.npz", GRID)
    assert crop == (1, 1)
    assert back.view(np.int64).tolist() == one.view(np.int64).tolist()


def test_write_grid_npz_crops_to_the_finite_box(tmp_path):
    box = np.full(GRID.shape, math.inf)
    box[4:9, 2:20] = np.random.default_rng(3).uniform(size=(5, 18))
    box[4, 2] = box[8, 19] = math.inf
    write_grid_npz(tmp_path / "box.npz", GRID, box)
    back, crop = read_npz(tmp_path / "box.npz", GRID)
    assert crop == (5, 18)
    assert back.view(np.int64).tolist() == box.view(np.int64).tolist()
    with pytest.raises(DomainError, match="every node"):
        write_grid_npz(tmp_path / "inf.npz", GRID,
                       np.full(GRID.shape, math.inf))
    assert not (tmp_path / "inf.npz").exists()
    # a full march's field is the whole grid
    full = np.random.default_rng(4).uniform(size=GRID.shape)
    write_grid_npz(tmp_path / "full.npz", GRID, full)
    back, crop = read_npz(tmp_path / "full.npz", GRID)
    assert crop == GRID.shape
    assert back.view(np.int64).tolist() == full.view(np.int64).tolist()


def test_write_grid_npz_bytes_are_fixed(tmp_path):
    # numpy dates each zip member 1980-01-01, so two writes are equal
    values = _grid_field(GRID)
    write_grid_npz(tmp_path / "a.npz", GRID, values)
    write_grid_npz(tmp_path / "b.npz", GRID, values)
    assert (tmp_path / "a.npz").read_bytes() == \
        (tmp_path / "b.npz").read_bytes()
    with zipfile.ZipFile(tmp_path / "a.npz") as zf:
        infos = zf.infolist()
    assert sorted(i.filename for i in infos) == ["value.npy", "x.npy",
                                                 "y.npy"]
    assert all(i.date_time[0] == 1980 for i in infos)
    assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in infos)


TRIG = {"kind": "trig", "amp": 0.5, "kx": 1.0, "ky": 1.0, "c": 2.0}


# Affine data makes every solve separable, so one PCG step solves it to
# rounding; lin_tol = 1e-30 is out of reach of that step.  Trig data
# passes the separable solves (1 step each) within lin_max_iter = 2 and
# fails the first non-separable Picard solve, which needs 5.
@pytest.mark.parametrize("boundary,max_iter,tol",
                         [(None, 1, 1e-30), (TRIG, 2, None)],
                         ids=["affine", "trig"])
def test_cg_nonconvergence_exit_3(tmp_path, smoke_cfg_path, capsys,
                                  boundary, max_iter, tol):
    raw = _read_json(smoke_cfg_path)
    raw["solver"]["lin_max_iter"] = max_iter
    if boundary is not None:
        raw["solver"]["boundary"] = boundary
    if tol is not None:
        raw["solver"]["lin_tol"] = tol
    p = tmp_path / "cg1.json"
    _write_json(p, raw)
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "conjugate gradient" in capsys.readouterr().err


def test_subcommands_skip_a_ball_as_run_does(tmp_path, smoke_cfg_path,
                                             capsys):
    # ball0 is measured; ball1 is below the resolution floor, so geometry
    # skips it; ball2's nu r leaves its measured band, so cutoff skips it.
    # Each subcommand skips a ball when its own stages cannot measure it,
    # prints run's note for it and goes on to the next ball.
    raw = _read_json(smoke_cfg_path)
    raw["grid"]["nx"] = raw["grid"]["ny"] = 65
    raw["balls"] = [{"center": [0.0, 0.0], "r": 0.15, "on_axis": True},
                    {"center": [0.0, 0.0], "r": 0.02, "on_axis": False},
                    {"center": [0.4, 0.0], "r": 0.2, "on_axis": False}]
    p = tmp_path / "skips.json"
    _write_json(p, raw)
    run = tmp_path / "run"
    assert main(["run", "--config", str(p), "--out", str(run)]) == 0
    capsys.readouterr()
    rep = load_report(run / "report.json")
    assert sorted(rep["balls"]) == ["ball0"]
    notes = {n.split(":")[0]: n for n in rep["notes"] if ": skipped (" in n}
    assert sorted(notes) == ["ball1", "ball2"]
    skipped = {"balls": ["ball1"], "cutoff": ["ball1", "ball2"],
               "diagnose": ["ball1", "ball2"]}
    for command, balls in skipped.items():
        out = tmp_path / command
        assert main([command, "--config", str(p), "--out", str(out)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if ": skipped (" in line]
        assert printed == [notes[b] for b in balls], command
    for mine, theirs in (("balls/ball0.csv", "balls/ball0.csv"),
                         ("cutoff/ball0_cutoffs.csv", "cutoffs/ball0.csv")):
        assert (tmp_path / mine).read_bytes() == (run / theirs).read_bytes()
    assert not (tmp_path / "cutoff" / "ball2_cutoffs.csv").exists()
    diag = _read_json(tmp_path / "diagnose" / "diagnostics.json")
    for ball_id, entry in diag.items():
        assert entry["flags"] == {k: v for k, v in rep["flags"].items()
                                  if k.startswith(ball_id + ".")}
        assert entry["notes"] == [n for n in rep["notes"]
                                  if n.startswith(ball_id + ": ")]
    assert (diag["ball0"]["diagnostics"]
            == rep["balls"]["ball0"]["diagnostics"])


def test_console_script_is_cli_main(capsys):
    # the wiring an installed `subunit-lab` runs, checked without installing
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["subunit-lab"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{dist,balls,cutoff,solve,diagnose,run,compare}" in \
        capsys.readouterr().out


@pytest.mark.parametrize("case", ["skipped-ball", "rhs-0.5"])
def test_diagnose_matches_run(tmp_path, smoke_cfg_path, case):
    raw = _read_json(smoke_cfg_path)
    if case == "skipped-ball":
        # r = 0.2 at distance 0.1 from the edge: nu r leaves the measurable
        # radius band, so `run` skips the ball; `diagnose` must do the same
        raw["grid"]["nx"] = raw["grid"]["ny"] = 65
        raw["balls"] = [{"center": [0.4, 0.0], "r": 0.2, "on_axis": False}]
    else:
        # f != 0 reaches the diagnostics as the shift m(r) = r^2 |f| and
        # in the Caccioppoli, local bound and oscillation right-hand sides
        raw["solver"]["rhs"] = 0.5
    p = tmp_path / f"{case}.json"
    _write_json(p, raw)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
    rep = load_report(tmp_path / "r" / "report.json")
    assert rep["flags"].get("ball0.skipped", False) == (case == "skipped-ball")
    assert main(["diagnose", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 0
    diag = _read_json(tmp_path / "d" / "diagnostics.json")
    assert diag["ball0"]["flags"] == {k: v for k, v in rep["flags"].items()
                                      if k.startswith("ball0.")}
    assert diag["ball0"]["notes"] == [n for n in rep["notes"]
                                      if n.startswith("ball0: ")]
    if case == "rhs-0.5":
        assert (diag["ball0"]["diagnostics"]
                == rep["balls"]["ball0"]["diagnostics"])


def test_a_skipped_chain_is_noted_once_per_ball(tmp_path, smoke_cfg_path,
                                               monkeypatch):
    # the diagnostics stage notes a skipped oscillation chain without the
    # ball's id, and the ball chain prefixes it, as it prefixes geometry's
    def no_chain(*args, **kwargs):
        raise ResolutionError("probe")

    monkeypatch.setattr(pipeline, "_box_chain", no_chain)
    assert main(["run", "--config", smoke_cfg_path,
                 "--out", str(tmp_path / "r")]) == 0
    rep = load_report(tmp_path / "r" / "report.json")
    assert rep["notes"] == ["ball0: oscillation chain skipped (probe)"]
    assert rep["balls"]["ball0"]["diagnostics"]["chain_too_short"]
    assert main(["diagnose", "--config", smoke_cfg_path,
                 "--out", str(tmp_path / "d")]) == 0
    diag = _read_json(tmp_path / "d" / "diagnostics.json")
    assert diag["ball0"]["notes"] == rep["notes"]


def test_run_meta_records_linear_solves(smoke_run):
    # linear solve plus two Picard solves, all separable on affine data:
    # the two zero-start solves take at least one iteration each, while
    # the second Picard solve starts at the first's solution, which may
    # already meet the tolerance
    solver = _read_json(smoke_run / "run_meta.json")["solver"]
    assert solver["linear_solves"] == 3
    assert 2 <= solver["pcg_iterations"] <= 6
    assert solver["max_pcg_iterations"] <= 2


def test_run_meta_records_stage_seconds(smoke_run):
    stages = _read_json(smoke_run / "run_meta.json")["stages"]
    assert set(stages) == set(STAGES)
    assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
    assert stages["metric"] > 0.0 and stages["artifacts"] > 0.0


def test_run_meta_counts_one_fmm_solve_per_ball(smoke_run):
    # one global eps_min solve per ball, plus one per box field of its
    # oscillation chain; nodes count the frozen nodes of every field
    fmm = _read_json(smoke_run / "run_meta.json")["metric"]
    rep = load_report(smoke_run / "report.json")
    balls = list(rep["balls"].values())
    assert balls
    assert fmm["fmm_solves"] == len(balls) + sum(
        len(b["diagnostics"]["chain_nodes"]) for b in balls)
    nodes = rep["grid"]["nx"] * rep["grid"]["ny"]
    # the constant form reaches every node of the global grid
    assert len(balls) * nodes < fmm["fmm_nodes"] <= fmm["fmm_solves"] * nodes
    # each ball's global march reaches twice its volume curve's top radius
    assert len(fmm["reaches"]) == len(balls)
    for reach, b in zip(fmm["reaches"], balls):
        assert reach >= 2.0 * max(b["geometry"]["radii"])


def test_run_meta_records_artifact_bytes(smoke_run):
    # the smoke run writes into a fresh directory, so the bytes recorded
    # per subdirectory are those on disk
    written = _read_json(smoke_run / "run_meta.json")["artifact_bytes"]
    on_disk = {sub: sum(p.stat().st_size for p in (smoke_run / sub).iterdir())
               for sub in ARTIFACT_DIRS}
    on_disk["report.json"] = (smoke_run / "report.json").stat().st_size
    assert written == on_disk
    assert all(n > 0 for n in written.values())


def test_smoke_run_artifacts_scale_with_what_they_hold(smoke_run,
                                                       smoke_cfg_path):
    # the heatmap is one pixel per sampled node, and the affine solution
    # x + 2 one colour up each column of it; each distance .npz holds a
    # finite value per node its field froze
    cfg = ExperimentConfig.load(smoke_cfg_path)
    form = pipeline.build_form(cfg)
    cells = [len(range(0, n, max(1, n // HEATMAP_CELLS)))
             for n in (form.grid.ny, form.grid.nx)]
    _, pixels = svg_image(smoke_run / "plots" / "solution.svg")
    assert list(pixels.shape) == cells + [4]
    assert (pixels == pixels[:1]).all() and (pixels[..., 3] == 255).all()
    for k, spec in enumerate(cfg.balls):
        _, field = pipeline.metric_stage(cfg, form, spec)
        value, _ = read_npz(smoke_run / "distances" / f"ball{k}_finest.npz",
                            form.grid)
        assert np.count_nonzero(np.isfinite(value)) == \
            np.count_nonzero(np.isfinite(field.values))


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
# trig data under the exponential profile on 145^2: the quasilinear run
# takes the Picard path, and its PCG vectors have 143^2 > 10000 entries,
# where OpenBLAS spreads a dot product over its threads.  145^2 is the
# coarsest of 103^2, 121^2, 129^2 and 145^2 that measures the ball (the
# others skip it: r = 0.085 lies below the measured radius band), so the
# ball stages and their artifacts run on the Picard path too
PICARD_145 = {
    "name": "picard-145", "seed": 0,
    "profile": {"kind": "exponential", "param": 0.1},
    "grid": {"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5,
             "nx": 145, "ny": 145},
    "epsilons": {"eps0": 0.1, "rungs": 4},
    "radii": {"r_max": 0.4, "count": 5},
    "balls": [{"center": [0.0, 0.0], "r": 0.17, "on_axis": True}],
    "params": {"sigma": 2.0, "nu": 0.5, "nu0": 0.5, "mu": 0.5, "eta": 0.5,
               "C": 2.0, "gamma": 1.0, "j_max": 12,
               "cutoff_delta_frac": 0.3},
    "solver": {"theta": 0.7, "fp_tol": 1e-9, "fp_max_iter": 30,
               "lin_tol": 1e-12,
               "boundary": {"kind": "trig", "amp": 0.5, "kx": 1.0,
                            "ky": 1.0, "c": 2.0},
               "rhs": 0.0, "quasilinear": True, "phi_bounds": [1.0, 3.0]},
    "required_flags": ["harnack", "moser", "max_principle", "box_sandwich",
                       "quasilinear_converged"],
}
RUN_CHILD = """
import sys
from subunit_lab.config import BALL_FLAGS, RUN_FLAGS, ExperimentConfig
from subunit_lab.pipeline import run_experiment
_, failed = run_experiment(ExperimentConfig.load(sys.argv[1]), sys.argv[2])
sys.exit(1 if failed else 0)
"""

def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "run_meta.json"}


def _assert_ball0_measured(out):
    rep = load_report(out / "report.json")
    assert "ball0" in rep["balls"] and "ball0.skipped" not in rep["flags"]


def test_picard_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each child interpreter gets its own BLAS thread count
    cfg = tmp_path / "picard-145.json"
    cfg.write_text(json.dumps(PICARD_145))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-c", RUN_CHILD, str(cfg),
                              str(out)], env=env, capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        trees.append(_tree_bytes(out))
        _assert_ball0_measured(out)
    assert sorted(trees[0]) == sorted(trees[1])
    assert [f for f in trees[0] if trees[0][f] != trees[1][f]] == []


def test_pipeline_import_loads_neither_sparse_nor_integrate(
        tmp_path, smoke_cfg_path):
    # the separable preconditioner is numpy's and paper_model's
    # quadrature is quadpack.qags, so the CLI imports no scipy at all;
    # nor any schema engine, since a run does not validate its report;
    # fresh interpreters, since this one has scipy loaded
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = ("import sys, subunit_lab.pipeline; print([m for m in "
             "('scipy.sparse', 'scipy.integrate') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    child = ("import sys, subunit_lab.cli; print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith(('scipy.', 'jsonschema', "
             "'referencing'))])")
    res = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    no_schema = "import sys\nsys.modules['jsonschema'] = None\n" + RUN_CHILD
    res = subprocess.run([sys.executable, "-c", no_schema, smoke_cfg_path,
                          str(tmp_path / "no-schema-out")], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # a run off the paper_model profile needs no scipy: with
    # sys.modules["scipy"] = None every scipy import raises ImportError
    no_scipy = "import sys\nsys.modules['scipy'] = None\n" + RUN_CHILD
    res = subprocess.run([sys.executable, "-c", no_scipy, smoke_cfg_path,
                          str(tmp_path / "out")], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # nor does the paper's profile: neither evaluating f, which integrates
    # I(x), nor a whole run on it (the smoke config with its profile
    # switched measures its ball with every required flag true)
    child = ("import sys\nfrom subunit_lab.forms import DegeneracyProfile\n"
             "DegeneracyProfile('paper_model', 9.0).value(0.3)\n"
             "print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')])")
    res = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    raw = _read_json(smoke_cfg_path)
    raw["profile"] = {"kind": "paper_model", "param": 9.0}
    paper_cfg = tmp_path / "paper-smoke.json"
    paper_cfg.write_text(json.dumps(raw))
    res = subprocess.run([sys.executable, "-c", no_scipy, str(paper_cfg),
                          str(tmp_path / "paper-out")], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    flags = load_report(tmp_path / "paper-out" / "report.json")["flags"]
    assert "ball0.skipped" not in flags and all(flags.values())


LOADS_CHILD = """
import json, sys
from subunit_lab.config import ExperimentConfig
from subunit_lab.forms import assemble_form
from subunit_lab import pipeline
with open(sys.argv[1]) as fh:
    cfg = ExperimentConfig.from_dict(json.load(fh))
assemble_form(cfg.make_profile(), cfg.make_grid())
before = set(sys.modules)
pipeline.run_experiment(cfg, sys.argv[2])
print(sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("case", ["smoke", "picard-145", "paper-smoke"])
def test_run_loads_no_module_after_setup(tmp_path, smoke_cfg_path, case):
    # set-up as the run benchmark times it (package import, config,
    # profile and form), then a run that imports nothing more: numpy's
    # median would load numpy.ma, and numpy's generator numpy.random with
    # hashlib, secrets and its Cython runtime, about 6 MB resident.  The
    # child runs under -S, with site-packages on its path but no .pth
    # file run, since one may preload what a clean interpreter does not
    # (np.savez_compressed's zipfile, with shutil and pathlib)
    raw = _read_json(smoke_cfg_path)
    if case == "picard-145":
        raw = PICARD_145
    elif case == "paper-smoke":
        raw["profile"] = {"kind": "paper_model", "param": 9.0}
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(raw))
    path = os.pathsep.join(filter(None, [SRC, *site.getsitepackages(),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-S", "-c", LOADS_CHILD, str(cfg),
                          str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    _assert_ball0_measured(tmp_path / "out")


def test_solution_plot_is_the_measured_solution(tmp_path, smoke_cfg_path):
    # trig data makes the quasilinear solution differ from the linear one;
    # the heatmap draws u, the converged quasilinear solution the balls
    # are measured on
    raw = _read_json(smoke_cfg_path)
    raw["solver"]["boundary"] = TRIG
    p = tmp_path / "trig.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    cfg = ExperimentConfig.load(p)
    u, u_lin, q_result, _ = pipeline.solve_global(cfg,
                                                  pipeline.build_form(cfg))
    assert q_result.converged and u is q_result.u
    plot = out / "plots" / "solution.svg"
    assert "quasilinear solution" in plot.read_text()
    drawn = {}
    for name, values in (("u", q_result.u.values), ("u_lin", u_lin.values)):
        heatmap(tmp_path / f"{name}.svg", values)
        drawn[name] = svg_image(tmp_path / f"{name}.svg")[1]
    pixels = svg_image(plot)[1]
    assert (pixels == drawn["u"]).all()
    assert not (pixels == drawn["u_lin"]).all()


def test_python_m_runs_the_cli(tmp_path):
    # `python -m subunit_lab` is the CLI without an installed entry point
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "subunit_lab", "--help"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "{dist,balls,cutoff,solve,diagnose,run,compare}" in res.stdout
    res = subprocess.run([sys.executable, "-m", "subunit_lab", "run",
                          "--config", str(tmp_path / "missing.json"),
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 1
    assert res.stderr.startswith("config error: ")


def test_installed_entry_point_runs():
    exe = shutil.which("subunit-lab")
    if exe is None:
        pytest.skip("entry point not on PATH")
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "compare" in res.stdout
