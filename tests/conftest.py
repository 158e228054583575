"""Shared fixtures.  Distance fields are expensive (fast marching), so the
standard grids/fields are session-scoped and reused across test modules.
Every report.json the session writes is checked against the packaged
schema when the session ends.  svg_image reads the raster of a heatmap or
nesting diagram back, and read_npz a distance field's .npz."""

import base64
import importlib.resources as resources
import json
import math
import struct
import xml.etree.ElementTree as ET
import zlib

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


def read_png(data):
    """The (h, w, 4) pixels, row 0 on top, of a PNG as svgplot writes
    one, read strictly: the signature, then IHDR, one IDAT and IEND, each
    with its CRC; 8-bit RGBA, no interlace; the IDAT inflates to
    h * (1 + 4 w) bytes and every row's filter byte is 0."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        n, = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + n]
        crc, = struct.unpack(">I", data[pos + 8 + n:pos + 12 + n])
        assert zlib.crc32(kind + body) == crc, kind
        chunks.append((kind, body))
        pos += 12 + n
    assert pos == len(data)
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    w, h, depth, colour, *methods = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, colour, methods) == (8, 6, [0, 0, 0])
    raw = zlib.decompress(chunks[1][1])
    assert len(raw) == h * (1 + 4 * w)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + 4 * w)
    assert not rows[:, 0].any()
    return rows[:, 1:].reshape(h, w, 4)


def svg_image(path):
    """The one <image> of an SVG: its box (x, y, width, height) and the
    pixels of the PNG its href embeds, which it shows unsmoothed."""
    ns = "{http://www.w3.org/2000/svg}"
    images = list(ET.parse(path).getroot().iter(f"{ns}image"))
    assert len(images) == 1
    el = images[0]
    assert el.get("preserveAspectRatio") == "none"
    assert el.get("image-rendering") == "pixelated"
    prefix = "data:image/png;base64,"
    assert el.get("href").startswith(prefix)
    png = base64.b64decode(el.get("href")[len(prefix):], validate=True)
    box = tuple(float(el.get(k)) for k in ("x", "y", "width", "height"))
    return box, read_png(png)


def read_npz(path, grid):
    """The whole-grid field a distance .npz holds, its crop with +inf
    around it, and the crop's shape.  The file must hold exactly x, y and
    value, no pickled object, with x and y the grid's axes on the crop bit
    for bit."""
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["value", "x", "y"]
        x, y, value = npz["x"], npz["y"], npz["value"]
    assert x.dtype == y.dtype == value.dtype == np.float64
    assert value.shape == (x.size, y.size)
    i = int(np.flatnonzero(grid.xs() == x[0])[0])
    j = int(np.flatnonzero(grid.ys() == y[0])[0])
    assert x.tobytes() == grid.xs()[i:i + x.size].tobytes()
    assert y.tobytes() == grid.ys()[j:j + y.size].tobytes()
    full = np.full(grid.shape, math.inf)
    full[i:i + x.size, j:j + y.size] = value
    return full, value.shape


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
