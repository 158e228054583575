"""CLI: config validation, subcommands, exit codes, determinism, compare."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from conftest import validate_report

from subunit_lab import metric, pipeline
from subunit_lab.cli import main
from subunit_lab.config import BALL_FLAGS, RUN_FLAGS, ExperimentConfig
from subunit_lab.errors import ConfigError, DomainError, SchemaMismatchError
from subunit_lab.grid import GridSpec
from subunit_lab.metric import DistanceField
from subunit_lab.pipeline import ARTIFACT_DIRS, STAGES, write_grid_csv
from subunit_lab.reporting import DEFAULT_BUDGET, compare, load_report
from subunit_lab.svgplot import HEATMAP_CELLS

SMOKE = os.path.join(os.path.dirname(__file__), "..", "src", "subunit_lab",
                     "configs", "euclidean-smoke.json")


@pytest.fixture(scope="module")
def smoke_cfg_path():
    return os.path.abspath(SMOKE)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory, smoke_cfg_path):
    out = tmp_path_factory.mktemp("smoke")
    code = main(["run", "--config", smoke_cfg_path, "--out", str(out)])
    assert code == 0
    return out


def test_config_roundtrip(tmp_path, smoke_cfg_path):
    cfg = ExperimentConfig.load(smoke_cfg_path)
    p = tmp_path / "echo.json"
    cfg.dump(p)
    cfg2 = ExperimentConfig.load(p)
    assert cfg.to_dict() == cfg2.to_dict()


def test_malformed_config_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                 capsys):
    raw = json.load(open(smoke_cfg_path))
    raw["params"]["nu"] = 1.5
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "params.nu" in err


@pytest.mark.parametrize("field", ["eps0", "r", "center"])
def test_nan_config_exit_1(tmp_path, smoke_cfg_path, field):
    # json.load accepts the NaN literal; validation must reject it rather
    # than let the run skip the ball and pass
    raw = json.load(open(smoke_cfg_path))
    if field == "eps0":
        raw["epsilons"]["eps0"] = math.nan
    elif field == "r":
        raw["balls"][0]["r"] = math.nan
    else:
        raw["balls"][0]["center"][1] = math.nan
    bad = tmp_path / "nan.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    raw[section][key] = value
    bad = tmp_path / "count.json"
    json.dump(raw, open(bad, "w"))
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
    ("solver", "lin_tool", 1e-12), ("solver", "boundary.amp", 0.5)])
def test_nan_or_fractional_setting_exit_1_with_field_path(
        tmp_path, smoke_cfg_path, capsys, section, key, value):
    raw = json.load(open(smoke_cfg_path))
    path = f"{section}.{key}" if key else section
    *parents, leaf = path.split(".")
    target = raw
    for name in parents:
        target = target[name]
    target[leaf] = value
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# amp, kx and ky are settings of trig data only (on affine data they name
# no setting), so their range check is a trig boundary's
@pytest.mark.parametrize("key", ["amp", "kx", "ky", "c"])
def test_nan_trig_boundary_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                  capsys, key):
    raw = json.load(open(smoke_cfg_path))
    raw["solver"]["boundary"] = dict(TRIG, **{key: math.nan})
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    ball = raw["balls"][0]
    ball.update(change)
    for key in [k for k, v in change.items() if v is None]:
        del ball[key]
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    raw["profile"] = {"kind": "paper_model", "param": 9.0}
    raw["grid"].update(x0=x0, x1=x1)
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


# name, profile, grid and balls have no default
@pytest.mark.parametrize("field", ["name", "profile", "grid", "balls"])
def test_missing_section_exit_1_with_field_path(tmp_path, smoke_cfg_path,
                                                capsys, field):
    raw = json.load(open(smoke_cfg_path))
    del raw[field]
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    *parents, leaf = keys
    target = raw
    for key in parents:
        target = target[key]
    target[leaf] = "0.5"
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    raw["required_flags"] = required
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
@pytest.mark.parametrize("value", ["false", 0])
def test_on_axis_must_be_boolean(tmp_path, smoke_cfg_path, capsys, value):
    raw = json.load(open(smoke_cfg_path))
    raw["balls"][0]["on_axis"] = value
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
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
    raw = json.load(open(smoke_cfg_path))
    raw["profile"] = profile
    bad = tmp_path / "bad.json"
    json.dump(raw, open(bad, "w"))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err


def test_whole_number_float_counts_run_as_ints(tmp_path, smoke_cfg_path,
                                               smoke_run):
    raw = json.load(open(smoke_cfg_path))
    raw["params"]["j_max"] = 12.0
    raw["solver"]["fp_max_iter"] = 30.0
    raw["solver"]["lin_max_iter"] = 40000.0
    p = tmp_path / "floats.json"
    json.dump(raw, open(p, "w"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert ((out / "report.json").read_bytes()
            == (smoke_run / "report.json").read_bytes())


def test_max_principle_tolerance_scales_with_boundary_range(smoke_cfg_path,
                                                            monkeypatch):
    # data x + 10 spans [9.5, 10.5]: the tolerance is 1e-8 times that
    # range, 1.0, so a slack of 5e-8 fails (the whole grid's range, 10.5,
    # with its interior zeros, would pass it)
    raw = json.load(open(smoke_cfg_path))
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
            assert (pipeline._median(values).hex()
                    == float(np.median(values)).hex()), (n, values)
    # the two medians of the delta-law fit on grushin-145's ball1: the
    # pairwise slopes, then the intercepts at the chosen slope
    raw = json.load(open(os.path.join(os.path.dirname(SMOKE),
                                      "grushin-box-256.json")))
    raw["grid"].update(nx=145, ny=145)
    cfg = ExperimentConfig.from_dict(raw)
    form = pipeline.build_form(cfg)
    spec = cfg.balls[1]
    _, field = pipeline.metric_stage(cfg, form, spec)
    seen = []
    median = pipeline._median
    monkeypatch.setattr(pipeline, "_median",
                        lambda v: seen.append(v) or median(v))
    pipeline.geometry_stage(cfg, form, spec, field)
    assert len(seen) == 2 and isinstance(seen[0], list) and len(seen[0]) > 3
    for values in seen:
        assert median(values).hex() == float(np.median(values)).hex()


def test_envelope_violation_is_exact_and_reads_no_seed(smoke_cfg_path):
    # phi = 2 + tanh z approaches 3, so C_phi = 2.5 is violated by exactly
    # 3 - 2.5; no seed changes that.  The linear solve alone is enough.
    raw = json.load(open(smoke_cfg_path))
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
    header = open(smoke_run / "balls" / "ball0.csv").readline().strip()
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
    raw = json.load(open(SMOKE))
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


# each ended in a traceback: FileNotFoundError, JSONDecodeError and an
# AttributeError from compare's report_a.get
@pytest.mark.parametrize("content", [None, "{\n", "[1, 2]\n"],
                         ids=["missing", "invalid-json", "list"])
def test_compare_bad_report_exit_1_naming_it(tmp_path, smoke_run, capsys,
                                             content):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    good = str(smoke_run / "report.json")
    for pair in ([str(bad), good], [good, str(bad)]):
        assert main(["compare", *pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(bad) in err


def test_growth_failure_exit_4(tmp_path, smoke_cfg_path, capsys):
    # exp(-a/|x|) degenerates too fast: delta(r)/r ~ r, so the growth
    # condition genuinely fails; requiring that flag must exit 4
    raw = json.load(open(smoke_cfg_path))
    raw["name"] = "exponential-growth-fail"
    raw["profile"] = {"kind": "exponential", "param": 0.1}
    raw["balls"] = [{"center": [0.0, 0.0], "r": 0.2, "on_axis": False}]
    raw["required_flags"] = ["growth_increasing"]
    p = tmp_path / "exp.json"
    json.dump(raw, open(p, "w"))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "growth_increasing" in capsys.readouterr().err


def test_solver_nonconvergence_exit_3(tmp_path, smoke_cfg_path, capsys):
    raw = json.load(open(smoke_cfg_path))
    raw["name"] = "stiff-no-convergence"
    raw["solver"]["theta"] = 1.0
    raw["solver"]["fp_tol"] = 1e-15
    raw["solver"]["fp_max_iter"] = 2
    raw["solver"]["boundary"] = {"kind": "trig", "amp": 0.8, "kx": 3.0,
                                 "ky": 2.0, "c": 2.0}
    p = tmp_path / "stiff.json"
    json.dump(raw, open(p, "w"))
    errs = {}
    for command in ("run", "solve", "diagnose"):
        out = tmp_path / command
        assert main([command, "--config", str(p), "--out", str(out)]) == 3
        errs[command] = capsys.readouterr().err
    assert errs["diagnose"] == errs["run"] != ""
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
    pairs = {"dist": [(f"ball0_eps{finest:g}.csv",
                       "distances/ball0_finest.csv")],
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


def test_artifact_csv_cells_are_plain_numbers(smoke_run):
    for sub in ("balls", "cutoffs", "distances", "solutions"):
        paths = sorted((smoke_run / sub).glob("*.csv"))
        assert paths, sub
        for path in paths:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                for cell in row:
                    float(cell)


def _csv_writer_grid_csv(path, grid, values, name):
    # the former write_grid_csv: meshgrid rows through csv.writer, each
    # cell formatted as repr(float(v)), here without the +inf rows
    X, Y = grid.meshgrid()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("x", "y", name))
        for row in zip(X.ravel(), Y.ravel(), values.ravel()):
            if row[2] != math.inf:
                w.writerow([repr(float(v)) for v in row])


def _grid_field(grid):
    values = np.random.default_rng(5).normal(size=grid.shape)
    values[0, :5] = [math.inf, math.nan, -0.0, 1e-300, 5e-324]
    values[-1, -3:] = [-math.inf, 0.0, -5e-324]
    # a bounded march's holes: a whole column, a column's top, a lone node
    values[3] = math.inf
    values[7, 9:] = math.inf
    values[20, 11] = math.inf
    return values


def test_write_grid_csv_matches_csv_writer_bytes(tmp_path):
    grid = GridSpec(-1.3, -0.1, -0.7, 0.45, 41, 23)
    values = _grid_field(grid)
    write_grid_csv(tmp_path / "new.csv", grid, values, "value")
    _csv_writer_grid_csv(tmp_path / "old.csv", grid, values, "value")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    inf_nodes = 1 + 23 + (23 - 9) + 1
    assert new.count(b"\r\n") == 41 * 23 - inf_nodes + 1
    assert b",inf\r\n" not in new and b",-inf\r\n" in new
    # node (0, 0) is +inf, so the first row is node (0, 1)
    assert new.split(b"\r\n")[1].startswith(b"-1.3,")
    assert new.split(b"\r\n")[1].endswith(b",nan") and b",-0.0\r\n" in new


def test_write_grid_csv_round_trips_every_value(tmp_path):
    # every row reads back as its node's value, bit for bit, and every
    # node without a row is +inf
    grid = GridSpec(-1.3, -0.1, -0.7, 0.45, 41, 23)
    values = _grid_field(grid)
    write_grid_csv(tmp_path / "f.csv", grid, values, "value")
    with open(tmp_path / "f.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    node = {(x, y): (i, j) for i, x in enumerate(grid.xs().tolist())
            for j, y in enumerate(grid.ys().tolist())}
    back = np.full(grid.shape, math.inf)
    for x, y, v in rows[1:]:
        back[node[float(x), float(y)]] = float(v)
    assert len(rows) - 1 == np.count_nonzero(values != math.inf)
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
    raw = json.load(open(smoke_cfg_path))
    raw["solver"]["lin_max_iter"] = max_iter
    if boundary is not None:
        raw["solver"]["boundary"] = boundary
    if tol is not None:
        raw["solver"]["lin_tol"] = tol
    p = tmp_path / "cg1.json"
    json.dump(raw, open(p, "w"))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "conjugate gradient" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["skipped-ball", "rhs-0.5"])
def test_diagnose_matches_run(tmp_path, smoke_cfg_path, case):
    raw = json.load(open(smoke_cfg_path))
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
    json.dump(raw, open(p, "w"))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
    rep = load_report(tmp_path / "r" / "report.json")
    assert rep["flags"].get("ball0.skipped", False) == (case == "skipped-ball")
    assert main(["diagnose", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 0
    diag = json.load(open(tmp_path / "d" / "diagnostics.json"))
    assert diag["ball0"]["flags"] == {k: v for k, v in rep["flags"].items()
                                      if k.startswith("ball0.")}
    assert diag["ball0"]["notes"] == [n for n in rep["notes"]
                                      if n.startswith("ball0: ")]
    if case == "rhs-0.5":
        assert (diag["ball0"]["diagnostics"]
                == rep["balls"]["ball0"]["diagnostics"])


def test_run_meta_records_linear_solves(smoke_run):
    # linear solve plus two Picard solves, all separable on affine data:
    # the two zero-start solves take at least one iteration each, while
    # the second Picard solve starts at the first's solution, which may
    # already meet the tolerance
    solver = json.load(open(smoke_run / "run_meta.json"))["solver"]
    assert solver["linear_solves"] == 3
    assert 2 <= solver["pcg_iterations"] <= 6
    assert solver["max_pcg_iterations"] <= 2


def test_run_meta_records_stage_seconds(smoke_run):
    stages = json.load(open(smoke_run / "run_meta.json"))["stages"]
    assert set(stages) == set(STAGES)
    assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
    assert stages["metric"] > 0.0 and stages["artifacts"] > 0.0


def test_run_meta_counts_one_fmm_solve_per_ball(smoke_run):
    # one global eps_min solve per ball, plus one per box field of its
    # oscillation chain; nodes count the frozen nodes of every field
    fmm = json.load(open(smoke_run / "run_meta.json"))["metric"]
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
    written = json.load(open(smoke_run / "run_meta.json"))["artifact_bytes"]
    on_disk = {sub: sum(p.stat().st_size for p in (smoke_run / sub).iterdir())
               for sub in ARTIFACT_DIRS}
    on_disk["report.json"] = (smoke_run / "report.json").stat().st_size
    assert written == on_disk
    assert all(n > 0 for n in written.values())


def test_smoke_run_artifacts_scale_with_what_they_hold(smoke_run,
                                                       smoke_cfg_path):
    # the affine solution x + 2 has one colour up each sampled column of
    # its heatmap, and each distance CSV has one row per node its field
    # froze
    cfg = ExperimentConfig.load(smoke_cfg_path)
    form = pipeline.build_form(cfg)
    nx = form.grid.nx
    columns = len(range(0, nx, max(1, nx // HEATMAP_CELLS)))
    svg = (smoke_run / "plots" / "solution.svg").read_bytes()
    assert 0 < svg.count(b"<rect x=") <= 2 * columns
    for k, spec in enumerate(cfg.balls):
        _, field = pipeline.metric_stage(cfg, form, spec)
        path = smoke_run / "distances" / f"ball{k}_finest.csv"
        rows = path.read_bytes().count(b"\r\n") - 1
        assert rows == np.count_nonzero(np.isfinite(field.values))


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
# trig data under the exponential profile on 103^2: the quasilinear run
# takes the Picard path, and its PCG vectors have 101^2 > 10000 entries,
# where OpenBLAS spreads a dot product over its threads
PICARD_103 = {
    "name": "picard-103", "seed": 0,
    "profile": {"kind": "exponential", "param": 0.1},
    "grid": {"x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5,
             "nx": 103, "ny": 103},
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

ISLAND_CHILD = """
import sys
sys.modules["scipy"] = None
import numpy as np
from subunit_lab.errors import SingularSystemError
from subunit_lab.grid import GridSpec
from subunit_lab.solver import assemble_linear
g = GridSpec(-0.5, 0.5, -0.5, 0.5, 33, 33)
q = np.ones(g.shape)
q[10:15, 10:15] = 0.0
try:
    assemble_linear(q, q, g)
except SingularSystemError as exc:
    print(exc.island_nodes)
"""


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "run_meta.json"}


def test_picard_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each child interpreter gets its own BLAS thread count
    cfg = tmp_path / "picard-103.json"
    cfg.write_text(json.dumps(PICARD_103))
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
    assert sorted(trees[0]) == sorted(trees[1])
    assert [f for f in trees[0] if trees[0][f] != trees[1][f]] == []


def test_pipeline_import_loads_neither_sparse_nor_integrate(
        tmp_path, smoke_cfg_path):
    # the connectivity audit is a flood fill, the separable
    # preconditioner is numpy's and paper_model's quadrature is
    # quadpack.qags, so the CLI imports no scipy at all; nor any schema
    # engine, since a run does not validate its report; fresh
    # interpreters, since this one has scipy loaded
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
    raw = json.load(open(smoke_cfg_path))
    raw["profile"] = {"kind": "paper_model", "param": 9.0}
    paper_cfg = tmp_path / "paper-smoke.json"
    paper_cfg.write_text(json.dumps(raw))
    res = subprocess.run([sys.executable, "-c", no_scipy, str(paper_cfg),
                          str(tmp_path / "paper-out")], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    flags = load_report(tmp_path / "paper-out" / "report.json")["flags"]
    assert "ball0.skipped" not in flags and all(flags.values())
    # nor does the connectivity audit find an island: a closed 5 x 5
    # block is reported node by node
    res = subprocess.run([sys.executable, "-c", ISLAND_CHILD], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == str([(i, j) for i in range(10, 15)
                                      for j in range(10, 15)])


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


@pytest.mark.parametrize("case", ["smoke", "picard-103", "paper-smoke"])
def test_run_loads_no_module_after_setup(tmp_path, smoke_cfg_path, case):
    # set-up as the run benchmark times it (package import, config,
    # profile and form), then a run that imports nothing more: numpy's
    # median would load numpy.ma, and numpy's generator numpy.random with
    # hashlib, secrets and its Cython runtime, about 6 MB resident
    raw = json.load(open(smoke_cfg_path))
    if case == "picard-103":
        raw = PICARD_103
    elif case == "paper-smoke":
        raw["profile"] = {"kind": "paper_model", "param": 9.0}
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(raw))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", LOADS_CHILD, str(cfg),
                          str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_installed_entry_point_runs():
    exe = shutil.which("subunit-lab")
    if exe is None:
        pytest.skip("entry point not on PATH")
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "compare" in res.stdout
