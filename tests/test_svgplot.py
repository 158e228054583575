"""SVG writers: the grid heatmap and the cutoff nesting diagram, which
embed one PNG pixel per sampled cell, show every sampled cell as the
per-cell rect loops they replaced painted it."""

import math
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from functools import cache

import numpy as np
import pytest
from conftest import svg_image

from subunit_lab.grid import GridSpec
from subunit_lab.svgplot import (H, MARGIN, PALETTE, W, heatmap, line_chart,
                                 nesting_diagram)

SVG_NS = "http://www.w3.org/2000/svg"


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _reference_heatmap(path, values, title=""):
    # the former heatmap: one f-string per rect and int() per channel,
    # 160 cells a side before subsampling
    cells = 160
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    if not finite.any():
        raise ValueError("nothing to plot")
    lo, hi = float(v[finite].min()), float(v[finite].max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = v.shape
    sx = max(1, nx // cells)
    sy = max(1, ny // cells)
    vv = v[::sx, ::sy]
    ff = finite[::sx, ::sy]
    mx, my = vv.shape
    cw = (W - 2 * MARGIN) / mx
    ch = (H - 2 * MARGIN) / my
    parts = _svg_header(title)
    for i in range(mx):
        for j in range(my):
            if not ff[i, j]:
                continue
            t = (vv[i, j] - lo) / span
            rch = int(255 * t)
            bch = int(255 * (1 - t))
            x = MARGIN + i * cw
            y = H - MARGIN - (j + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{ch + 0.5:.2f}" fill="rgb({rch},80,{bch})"/>')
    parts.append(f'<text x="{MARGIN}" y="{H - 20}" font-family="sans-serif" '
                 f'font-size="10">range [{lo:.4g}, {hi:.4g}]</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _reference_nesting_diagram(path, supports, grid, title="cutoff supports"):
    # the former nesting_diagram: a test and an f-string per sampled node
    parts = _svg_header(title)
    nx, ny = grid.shape
    cw = (W - 2 * MARGIN) / nx
    ch = (H - 2 * MARGIN) / ny
    for k, m in enumerate(supports):
        color = PALETTE[k % len(PALETTE)]
        step = max(1, nx // 120)
        for i in range(0, nx, step):
            for j in range(0, ny, step):
                if m[i, j]:
                    x = MARGIN + i * cw
                    y = H - MARGIN - (j + 1) * ch
                    parts.append(
                        f'<rect x="{x:.2f}" y="{y:.2f}" '
                        f'width="{cw * step:.2f}" height="{ch * step:.2f}" '
                        f'fill="{color}" fill-opacity="0.18"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _paints(path, px, py):
    """The (fill, fill-opacity) of every rect over each probe point
    (px[a], py[b]), in drawing order: what a renderer stacks there."""
    stacks = [[[] for _ in py] for _ in px]
    for el in ET.parse(path).getroot().iter(f"{{{SVG_NS}}}rect"):
        x, y = float(el.get("x", 0)), float(el.get("y", 0))
        w, h = float(el.get("width")), float(el.get("height"))
        paint = (el.get("fill"), el.get("fill-opacity", "1"))
        for a in range(bisect_left(px, x), bisect_right(px, x + w)):
            for b in range(bisect_left(py, y), bisect_right(py, y + h)):
                stacks[a][b].append(paint)
    return stacks


def _heatmap_probes(shape):
    # the centre of every sampled cell, x and y each ascending
    mx, my = (len(range(0, n, max(1, n // 160))) for n in shape)
    cw, ch = (W - 2 * MARGIN) / mx, (H - 2 * MARGIN) / my
    return ([MARGIN + (i + 0.5) * cw for i in range(mx)],
            sorted(H - MARGIN - (j + 0.5) * ch for j in range(my)))


def _nesting_probes(nx, ny):
    # the centre of every sampled node's step x step cell
    step = max(1, nx // 120)
    cw, ch = (W - 2 * MARGIN) / nx, (H - 2 * MARGIN) / ny
    return ([MARGIN + (i + step / 2) * cw for i in range(0, nx, step)],
            sorted(H - MARGIN - (j + 1 - step / 2) * ch
                   for j in range(0, ny, step)))


def _field(nx, ny, seed):
    values = np.random.default_rng(seed).normal(size=(nx, ny))
    # blank nodes on every third row and column show after subsampling
    values[0, 0] = math.nan
    values[6, 0:9:3] = [math.inf, -math.inf, math.nan]
    values[-1, -1] = -math.inf
    values[3, ny // 3] = 0.0
    return values


@cache
def _composite(stack):
    """The colour a tuple of (fill, fill-opacity) paints shows, each
    painted over the ones before it."""
    rgb = (0.0, 0.0, 0.0)
    for fill, opacity in stack:
        if fill == "white":
            colour = (255, 255, 255)
        elif fill.startswith("#"):
            colour = tuple(bytes.fromhex(fill[1:]))
        else:
            colour = tuple(int(c) for c in fill[4:-1].split(","))
        a = float(opacity)
        rgb = tuple(c * (1 - a) + f * a for c, f in zip(rgb, colour))
    return rgb


def _assert_same_picture(new, old, probes, tol):
    """The pixel of new's image under each probe point shows what old's
    rects stack there: blank (all zero) where old paints the background
    alone, else opaque and within tol of the stack's colour in each
    channel.  new draws no rect but the background, and each of old's
    rects has its corner on a corner of new's pixel grid.  Returns old's
    stacks and new's pixels."""
    stacks = _paints(old, *probes)
    background = [("white", "1")]
    assert _paints(new, *probes) == [[background] * len(probes[1])
                                     for _ in probes[0]]
    (x, y, width, height), pixels = svg_image(new)
    h, w, _ = pixels.shape
    pw, ph = width / w, height / h
    cols = ((np.array(probes[0]) - x) / pw).astype(int)
    rows = ((np.array(probes[1]) - y) / ph).astype(int)
    shown = pixels[rows][:, cols].transpose(1, 0, 2)
    painted = np.array([[p != background for p in col] for col in stacks])
    expected = np.array([[_composite(tuple(p)) for p in col]
                         for col in stacks])
    assert (shown[..., 3] == np.where(painted, 255, 0)).all()
    assert not shown[~painted].any()
    assert np.abs(shown[painted][:, :3] - expected[painted]).max() <= tol
    rects = [el for el in ET.parse(old).getroot().iter(f"{{{SVG_NS}}}rect")
             if el.get("x") is not None]
    for key, lo, pitch, n in (("x", x, pw, w), ("y", y, ph, h)):
        at = np.array([float(el.get(key)) for el in rects])
        k = np.round((at - lo) / pitch)
        assert ((0 <= k) & (k < n)).all()
        assert np.abs(lo + k * pitch - at).max() < 0.011
    return stacks, pixels


@pytest.mark.parametrize("nx,ny,blanks", [(145, 145, 5), (513, 513, 4),
                                          (41, 23, 5)],
                         ids=["145", "513-step3", "41x23"])
def test_heatmap_matches_reference_rendering(tmp_path, nx, ny, blanks):
    values = _field(nx, ny, nx + ny)
    heatmap(tmp_path / "new.svg", values, title="u")
    _reference_heatmap(tmp_path / "old.svg", values, title="u")
    probes = _heatmap_probes(values.shape)
    paints, pixels = _assert_same_picture(
        tmp_path / "new.svg", tmp_path / "old.svg", probes, 0)
    # one pixel per sampled cell; a blank cell shows the background
    # alone, a filled one one rect on it
    assert pixels.shape[:2] == (len(probes[1]), len(probes[0]))
    assert sum(len(p) == 1 for col in paints for p in col) == blanks
    assert all(len(p) <= 2 for col in paints for p in col)
    assert np.count_nonzero(pixels[..., 3] == 0) == blanks


def test_heatmap_constant_field_matches_reference_rendering(tmp_path):
    # lo == hi: every channel reads t = 0
    values = np.full((41, 23), 2.5)
    values[7, 7] = math.nan
    heatmap(tmp_path / "new.svg", values)
    _reference_heatmap(tmp_path / "old.svg", values)
    _, pixels = _assert_same_picture(tmp_path / "new.svg",
                                     tmp_path / "old.svg",
                                     _heatmap_probes(values.shape), 0)
    painted = pixels[..., 3] == 255
    assert np.count_nonzero(~painted) == 1
    assert (pixels[painted] == (0, 80, 255, 255)).all()
    assert b"range [2.5, 2.5]" in (tmp_path / "new.svg").read_bytes()


@pytest.mark.parametrize("nx,ny", [(145, 145), (513, 301)],
                         ids=["145", "513x301-step3"])
def test_heatmap_x_only_field_is_one_colour_per_column(tmp_path, nx, ny):
    grid = GridSpec(-1.0, 1.0, -0.5, 1.5, nx, ny)
    X, _ = grid.meshgrid()
    values = 3.0 * X + 2.0
    heatmap(tmp_path / "new.svg", values)
    _reference_heatmap(tmp_path / "old.svg", values)
    _, pixels = _assert_same_picture(tmp_path / "new.svg",
                                     tmp_path / "old.svg",
                                     _heatmap_probes(values.shape), 0)
    assert pixels.shape[1] == len(range(0, nx, max(1, nx // 160)))
    assert (pixels == pixels[:1]).all()


def test_heatmap_without_finite_values_raises(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        heatmap(tmp_path / "none.svg", np.full((5, 4), math.nan))


@pytest.mark.parametrize("nx,ny,whole", [(145, 145, True),
                                         (257, 257, True),
                                         (257, 131, False)],
                         ids=["145", "257-step2", "257x131-step2-blank"])
def test_nesting_diagram_matches_reference_rendering(tmp_path, nx, ny, whole):
    grid = GridSpec(-1.0, 1.0, -0.5, 1.5, nx, ny)
    X, Y = grid.meshgrid()
    r = np.hypot(X - 0.1, Y - 0.4)
    supports = [np.ones(grid.shape, dtype=bool)] if whole else []
    supports += [r < rad for rad in (0.9, 0.5, 0.2)]
    # an empty support, and one with a hole across some columns
    supports += [np.zeros(grid.shape, dtype=bool),
                 (r < 0.7) & (np.abs(Y - 0.4) > 0.1)]
    nesting_diagram(tmp_path / "new.svg", supports, grid, title="B cutoffs")
    _reference_nesting_diagram(tmp_path / "old.svg", supports, grid,
                               title="B cutoffs")
    probes = _nesting_probes(nx, ny)
    paints, pixels = _assert_same_picture(
        tmp_path / "new.svg", tmp_path / "old.svg", probes, 1)
    assert pixels.shape[:2] == (len(probes[1]), len(probes[0]))
    blank = pixels[..., 3] == 0
    if whole:
        # every sampled node is under the background and the whole-grid
        # support
        assert all(p[:2] == [("white", "1"), (PALETTE[0], "0.18")]
                   for col in paints for p in col)
        assert not blank.any()
    else:
        assert 0 < np.count_nonzero(blank) < blank.size


# an oscillation chart's axes: log r, linear omega.  The range was taken
# from the points > 0 on both axes while the polyline kept omega <= 0, so
# such points were drawn below the plot box; an all-zero omega raised
# "nothing to plot"
@pytest.mark.parametrize("ys", [[0.3, 0.1, 0.0, -0.01], [0.0] * 4],
                         ids=["through-zero", "all-zero"])
def test_line_chart_draws_every_point_inside_the_box(tmp_path, ys):
    xs = [0.4, 0.2, 0.1, 0.05]
    # x <= 0 has no place on a log axis, nor has a NaN anywhere
    line_chart(tmp_path / "osc.svg", [("omega", xs + [0.0, 0.3],
                                       ys + [0.2, math.nan])],
               xlog=True, ylog=False)
    root = ET.parse(tmp_path / "osc.svg").getroot()
    circles = root.findall(f"{{{SVG_NS}}}circle")
    assert len(circles) == len(xs)
    for c in circles:
        assert MARGIN <= float(c.get("cx")) <= W - MARGIN
        assert MARGIN <= float(c.get("cy")) <= H - MARGIN
    line = root.find(f"{{{SVG_NS}}}polyline").get("points").split()
    assert len(line) == len(xs)
