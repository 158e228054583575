"""SVG writers: the grid heatmap and the cutoff nesting diagram, which
draw one rect per run of equal colour up a column, paint every sampled
cell as the per-cell loops they replaced did."""

import math
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from subunit_lab.grid import GridSpec
from subunit_lab.svgplot import H, MARGIN, PALETTE, W, heatmap, nesting_diagram

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


def _nesting_probes(n):
    # the centre of every sampled node's step x step cell
    step = max(1, n // 120)
    cw, ch = (W - 2 * MARGIN) / n, (H - 2 * MARGIN) / n
    return ([MARGIN + (i + step / 2) * cw for i in range(0, n, step)],
            sorted(H - MARGIN - (j + 1 - step / 2) * ch
                   for j in range(0, n, step)))


def _colour_runs(values):
    # one per maximal run of sampled cells of one colour up a column
    cells = 160
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    lo, hi = float(v[finite].min()), float(v[finite].max())
    span = hi - lo if hi > lo else 1.0
    sx, sy = (max(1, n // cells) for n in v.shape)
    runs = 0
    for column in v[::sx, ::sy]:
        prev = None
        for x in column.tolist():
            colour = None
            if math.isfinite(x):
                t = (x - lo) / span
                colour = (int(255 * t), int(255 * (1 - t)))
                runs += colour != prev
            prev = colour
    return runs


def _field(nx, ny, seed):
    values = np.random.default_rng(seed).normal(size=(nx, ny))
    # blank nodes on every third row and column show after subsampling
    values[0, 0] = math.nan
    values[6, 0:9:3] = [math.inf, -math.inf, math.nan]
    values[-1, -1] = -math.inf
    values[3, ny // 3] = 0.0
    return values


def _assert_same_rendering(new, old, probes):
    paints = _paints(new, *probes)
    assert paints == _paints(old, *probes)
    return paints


def _rects(path):
    return path.read_bytes().count(b"<rect x=")


@pytest.mark.parametrize("nx,ny,blanks", [(145, 145, 5), (513, 513, 4),
                                          (41, 23, 5)],
                         ids=["145", "513-step3", "41x23"])
def test_heatmap_matches_reference_rendering(tmp_path, nx, ny, blanks):
    values = _field(nx, ny, nx + ny)
    heatmap(tmp_path / "new.svg", values, title="u")
    _reference_heatmap(tmp_path / "old.svg", values, title="u")
    paints = _assert_same_rendering(tmp_path / "new.svg", tmp_path / "old.svg",
                                    _heatmap_probes(values.shape))
    # a blank cell shows the background alone, a filled one one rect on it
    assert sum(len(p) == 1 for col in paints for p in col) == blanks
    assert all(len(p) <= 2 for col in paints for p in col)
    assert _rects(tmp_path / "new.svg") == _colour_runs(values)
    assert _rects(tmp_path / "new.svg") < _rects(tmp_path / "old.svg")


def test_heatmap_constant_field_matches_reference_rendering(tmp_path):
    # lo == hi: every channel reads t = 0; the blank node splits its column
    values = np.full((41, 23), 2.5)
    values[7, 7] = math.nan
    heatmap(tmp_path / "new.svg", values)
    _reference_heatmap(tmp_path / "old.svg", values)
    _assert_same_rendering(tmp_path / "new.svg", tmp_path / "old.svg",
                           _heatmap_probes(values.shape))
    new = (tmp_path / "new.svg").read_bytes()
    assert new.count(b'fill="rgb(0,80,255)"') == 41 + 1 == _rects(
        tmp_path / "new.svg")
    assert b"range [2.5, 2.5]" in new


@pytest.mark.parametrize("nx,ny", [(145, 145), (513, 301)],
                         ids=["145", "513x301-step3"])
def test_heatmap_x_only_field_draws_one_rect_per_column(tmp_path, nx, ny):
    grid = GridSpec(-1.0, 1.0, -0.5, 1.5, nx, ny)
    X, _ = grid.meshgrid()
    values = 3.0 * X + 2.0
    heatmap(tmp_path / "new.svg", values)
    _reference_heatmap(tmp_path / "old.svg", values)
    _assert_same_rendering(tmp_path / "new.svg", tmp_path / "old.svg",
                           _heatmap_probes(values.shape))
    assert _rects(tmp_path / "new.svg") == len(range(0, nx, max(1, nx // 160)))


def test_heatmap_without_finite_values_raises(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        heatmap(tmp_path / "none.svg", np.full((5, 4), math.nan))


@pytest.mark.parametrize("n", [145, 257], ids=["145", "257-step2"])
def test_nesting_diagram_matches_reference_rendering(tmp_path, n):
    grid = GridSpec(-1.0, 1.0, -0.5, 1.5, n, n)
    X, Y = grid.meshgrid()
    r = np.hypot(X - 0.1, Y - 0.4)
    supports = [np.ones(grid.shape, dtype=bool)]
    supports += [r < rad for rad in (0.9, 0.5, 0.2)]
    # an empty support, and one with a hole: two runs up some columns
    supports += [np.zeros(grid.shape, dtype=bool),
                 (r < 0.7) & (np.abs(Y - 0.4) > 0.1)]
    nesting_diagram(tmp_path / "new.svg", supports, grid, title="B cutoffs")
    _reference_nesting_diagram(tmp_path / "old.svg", supports, grid,
                               title="B cutoffs")
    paints = _assert_same_rendering(tmp_path / "new.svg",
                                    tmp_path / "old.svg", _nesting_probes(n))
    # every sampled node is under the background and the whole-grid support
    assert all(p[:2] == [("white", "1"), (PALETTE[0], "0.18")]
               for col in paints for p in col)
    new = (tmp_path / "new.svg").read_bytes()
    columns = len(range(0, n, max(1, n // 120)))
    assert new.count(f'fill="{PALETTE[0]}"'.encode()) == columns
    assert new.count(f'fill="{PALETTE[4]}"'.encode()) == 0
    assert _rects(tmp_path / "new.svg") < _rects(tmp_path / "old.svg") // 10
