"""Shared fixtures.  Distance fields are expensive (fast marching), so the
standard grids/fields are session-scoped and reused across test modules.
Every report.json the session writes is checked against the packaged
schema when the session ends."""

import importlib.resources as resources
import json

import jsonschema
import numpy as np
import pytest

from subunit_lab.forms import DegeneracyProfile, assemble_form
from subunit_lab.grid import GridSpec
from subunit_lab.metric import solve_distance

EPS_FINE = 1e-3


def validate_report(report):
    """Raise jsonschema.ValidationError unless report fits the packaged
    schemas/report.schema.json.  jsonschema.validate first checks the
    schema itself against its metaschema (SchemaError)."""
    ref = resources.files("subunit_lab").joinpath("schemas/report.schema.json")
    jsonschema.validate(report, json.loads(ref.read_text()))


@pytest.fixture(scope="session", autouse=True)
def every_report_fits_the_schema(tmp_path_factory):
    """After the last test, validate every report.json under the session's
    base temp directory: each test run writes its reports there, child
    interpreters' included, whatever branch the run took."""
    yield
    for path in sorted(tmp_path_factory.getbasetemp().rglob("report.json")):
        with open(path) as fh:
            report = json.load(fh)
        try:
            validate_report(report)
        except jsonschema.ValidationError as exc:
            pytest.fail(f"{path}: {exc.message}")


@pytest.fixture(scope="session")
def euclid_profile():
    return DegeneracyProfile("constant", 1.0)


@pytest.fixture(scope="session")
def grushin_profile():
    return DegeneracyProfile("power", 1.0)


@pytest.fixture(scope="session")
def paper_profile():
    return DegeneracyProfile("paper_model", 9.0)


@pytest.fixture(scope="session")
def grid129():
    return GridSpec(-0.5, 0.5, -0.5, 0.5, 129, 129)


@pytest.fixture(scope="session")
def grid257():
    return GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)


@pytest.fixture(scope="session")
def euclid_form(grid257, euclid_profile):
    return assemble_form(euclid_profile, grid257)


@pytest.fixture(scope="session")
def grushin_form(grid257, grushin_profile):
    return assemble_form(grushin_profile, grid257)


@pytest.fixture(scope="session")
def paper_form(grid257, paper_profile):
    return assemble_form(paper_profile, grid257)


@pytest.fixture(scope="session")
def euclid_field(euclid_form):
    """Euclidean distance field from the center of the 257^2 grid."""
    return solve_distance(euclid_form, (128, 128), EPS_FINE)


@pytest.fixture(scope="session")
def grushin_field_origin(grushin_form):
    """Grushin field from the origin (on the degenerate axis)."""
    return solve_distance(grushin_form, (128, 128), EPS_FINE)


@pytest.fixture(scope="session")
def grushin_field_off_axis(grushin_form):
    """Grushin field from (0.2, 0), away from the degenerate axis."""
    g = grushin_form.grid
    return solve_distance(grushin_form, g.nearest_node(0.2, 0.0), EPS_FINE)


@pytest.fixture(scope="session")
def paper_field_origin(paper_form):
    return solve_distance(paper_form, (128, 128), EPS_FINE)
