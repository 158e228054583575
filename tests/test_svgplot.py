"""SVG writers: the grid heatmap and the cutoff nesting diagram keep the
bytes of the per-cell loops they replaced."""

import math

import numpy as np
import pytest

from subunit_lab.grid import GridSpec
from subunit_lab.svgplot import H, MARGIN, PALETTE, W, heatmap, nesting_diagram


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


def _field(nx, ny, seed):
    values = np.random.default_rng(seed).normal(size=(nx, ny))
    # blank nodes on every third row and column show after subsampling
    values[0, 0] = math.nan
    values[6, 0:9:3] = [math.inf, -math.inf, math.nan]
    values[-1, -1] = -math.inf
    values[3, ny // 3] = 0.0
    return values


@pytest.mark.parametrize("nx,ny,rects", [(145, 145, 145 * 145 - 5),
                                         (513, 513, 171 * 171 - 4),
                                         (41, 23, 41 * 23 - 5)],
                         ids=["145", "513-step3", "41x23"])
def test_heatmap_matches_reference_bytes(tmp_path, nx, ny, rects):
    values = _field(nx, ny, nx + ny)
    heatmap(tmp_path / "new.svg", values, title="u")
    _reference_heatmap(tmp_path / "old.svg", values, title="u")
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "old.svg").read_bytes()
    assert new.count(b"<rect x=") == rects


def test_heatmap_constant_field_matches_reference_bytes(tmp_path):
    # lo == hi: every channel reads t = 0
    values = np.full((41, 23), 2.5)
    values[7, 7] = math.nan
    heatmap(tmp_path / "new.svg", values)
    _reference_heatmap(tmp_path / "old.svg", values)
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "old.svg").read_bytes()
    assert new.count(b'fill="rgb(0,80,255)"') == 41 * 23 - 1
    assert b"range [2.5, 2.5]" in new


def test_heatmap_without_finite_values_raises(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        heatmap(tmp_path / "none.svg", np.full((5, 4), math.nan))


@pytest.mark.parametrize("n", [145, 257], ids=["145", "257-step2"])
def test_nesting_diagram_matches_reference_bytes(tmp_path, n):
    grid = GridSpec(-1.0, 1.0, -0.5, 1.5, n, n)
    X, Y = grid.meshgrid()
    r = np.hypot(X - 0.1, Y - 0.4)
    supports = [np.ones(grid.shape, dtype=bool)]
    supports += [r < rad for rad in (0.9, 0.5, 0.2)]
    supports += [np.zeros(grid.shape, dtype=bool), r < 0.05]
    nesting_diagram(tmp_path / "new.svg", supports, grid, title="B cutoffs")
    _reference_nesting_diagram(tmp_path / "old.svg", supports, grid,
                               title="B cutoffs")
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "old.svg").read_bytes()
    sampled = len(range(0, n, max(1, n // 120))) ** 2
    assert new.count(f'fill="{PALETTE[0]}"'.encode()) == sampled
    assert new.count(f'fill="{PALETTE[4]}"'.encode()) == 0
