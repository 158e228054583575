"""Minimal self-contained SVG output: line charts, log-log charts, heatmaps.

No plotting dependency; every figure is a standalone .svg written directly.
Deterministic output for identical data, with no timestamps: coordinates
and sizes are formatted with .2f (axis ticks .1f), tick labels with .3g
and a heatmap's range label with .4g.
"""

import math

import numpy as np

W, H = 640, 440
MARGIN = 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# cells a side of a heatmap before it is subsampled
HEATMAP_CELLS = 160


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _cell_attrs(cols, rows, cw, ch, width, pitch, pad):
    """The rect's x attribute for each column index in cols, its y and
    width attributes for each row index in rows, and its height attribute
    for a run of n rows, n = 0 .. len(rows): column i starts at
    MARGIN + i * cw, row j, counted up from the bottom, has its top at
    H - MARGIN - (j + 1) * ch, and n rows are n * pitch + pad high."""
    xs = [f'<rect x="{MARGIN + i * cw:.2f}" ' for i in cols]
    ys = [f'y="{H - MARGIN - (j + 1) * ch:.2f}" width="{width:.2f}" '
          for j in rows]
    heights = [f'height="{n * pitch + pad:.2f}" ' for n in range(len(ys) + 1)]
    return xs, ys, heights


def _runs(codes):
    """Each column's runs of equal code in a 2-D array, column by column
    and bottom-up (row 0 first): (column, top row, length) lists.  A
    negative code marks a blank cell, which no run holds."""
    first = np.ones(codes.shape, dtype=bool)
    first[:, 1:] = codes[:, 1:] != codes[:, :-1]
    last = np.ones(codes.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    filled = codes >= 0
    cols, bottoms = np.nonzero(first & filled)
    tops = np.nonzero(last & filled)[1]
    return cols.tolist(), tops.tolist(), (tops - bottoms + 1).tolist()


def _write(path, parts):
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


class _Canvas:
    def __init__(self, title, xlabel, ylabel):
        self.parts = _header(title) + [
            f'<text x="{W/2:.0f}" y="{H-8:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>',
            f'<text x="14" y="{H/2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {H/2:.0f})">{ylabel}</text>',
        ]

    def axes(self, xlo, xhi, ylo, yhi, xlog=False, ylog=False):
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi
        self.xlog, self.ylog = xlog, ylog
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{W-2*MARGIN}" '
            f'height="{H-2*MARGIN}" fill="none" stroke="#444"/>')
        for t in _ticks(xlo, xhi):
            px = self.px(t if not xlog else 10 ** t)
            self.parts.append(
                f'<line x1="{px:.1f}" y1="{H-MARGIN}" x2="{px:.1f}" '
                f'y2="{H-MARGIN+4}" stroke="#444"/>')
            label = f"{10**t:.3g}" if xlog else f"{t:.3g}"
            self.parts.append(
                f'<text x="{px:.1f}" y="{H-MARGIN+18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{label}</text>')
        for t in _ticks(ylo, yhi):
            py = self.py(t if not ylog else 10 ** t)
            self.parts.append(
                f'<line x1="{MARGIN-4}" y1="{py:.1f}" x2="{MARGIN}" '
                f'y2="{py:.1f}" stroke="#444"/>')
            label = f"{10**t:.3g}" if ylog else f"{t:.3g}"
            self.parts.append(
                f'<text x="{MARGIN-6}" y="{py+3:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{label}</text>')

    def px(self, x):
        v = math.log10(x) if self.xlog else x
        return MARGIN + (v - self.xlo) / (self.xhi - self.xlo) * (W - 2 * MARGIN)

    def py(self, y):
        v = math.log10(y) if self.ylog else y
        return H - MARGIN - (v - self.ylo) / (self.yhi - self.ylo) * (H - 2 * MARGIN)

    def polyline(self, xs, ys, color, label=None, idx=0):
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}"
                       for x, y in zip(xs, ys))
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            self.parts.append(f'<circle cx="{self.px(x):.2f}" '
                              f'cy="{self.py(y):.2f}" r="2.5" fill="{color}"/>')
        if label:
            y0 = MARGIN + 14 + 14 * idx
            self.parts.append(
                f'<line x1="{W-MARGIN-110}" y1="{y0-4}" x2="{W-MARGIN-90}" '
                f'y2="{y0-4}" stroke="{color}" stroke-width="2"/>')
            self.parts.append(
                f'<text x="{W-MARGIN-85}" y="{y0}" font-family="sans-serif" '
                f'font-size="11">{label}</text>')


def _finite_positive(series, log):
    vals = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if np.isfinite(x) and np.isfinite(y) and (not log or (x > 0 and y > 0)):
                vals.append((x, y))
    return vals


def line_chart(path, series, title="", xlabel="", ylabel="",
               xlog=False, ylog=False):
    """series: list of (label, xs, ys).  Writes a standalone SVG."""
    pts = _finite_positive(series, xlog or ylog)
    if not pts:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    tx = (lambda v: math.log10(v)) if xlog else (lambda v: v)
    ty = (lambda v: math.log10(v)) if ylog else (lambda v: v)
    xlo, xhi = min(map(tx, xs)), max(map(tx, xs))
    ylo, yhi = min(map(ty, ys)), max(map(ty, ys))
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    padx, pady = 0.05 * (xhi - xlo), 0.08 * (yhi - ylo)
    c = _Canvas(title, xlabel, ylabel)
    c.axes(xlo - padx, xhi + padx, ylo - pady, yhi + pady, xlog, ylog)
    for k, (label, sx, sy) in enumerate(series):
        keep = [(x, y) for x, y in zip(sx, sy)
                if np.isfinite(x) and np.isfinite(y)
                and (not xlog or x > 0) and (not ylog or y > 0)]
        if keep:
            c.polyline([p[0] for p in keep], [p[1] for p in keep],
                       PALETTE[k % len(PALETTE)], label, k)
    _write(path, c.parts)


def heatmap(path, values, title=""):
    """Coarse rect-based heatmap of a grid function: every
    max(1, n // HEATMAP_CELLS)-th node along an axis of n nodes is a cell
    and non-finite cells stay blank.  Each column's runs of cells of one
    colour are one rect each, drawn column by column and bottom-up, so a
    rect paints every cell it spans, with the 0.5 overlap of each cell
    onto the one to its right and the one below, as one rect per cell
    drawn in that order would."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    if not finite.any():
        raise ValueError("nothing to plot")
    lo, hi = float(v[finite].min()), float(v[finite].max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = v.shape
    sx = max(1, nx // HEATMAP_CELLS)
    sy = max(1, ny // HEATMAP_CELLS)
    vv = v[::sx, ::sy]
    ff = finite[::sx, ::sy]
    mx, my = vv.shape
    cw = (W - 2 * MARGIN) / mx
    ch = (H - 2 * MARGIN) / my
    xs, ys, heights = _cell_attrs(range(mx), range(my), cw, ch, cw + 0.5,
                                  ch, 0.5)
    t = (np.where(ff, vv, lo) - lo) / span
    # 0 <= t <= 1, so each channel is a byte and 256 red + blue names a colour
    codes = np.where(ff, 256 * (255 * t).astype(int)
                     + (255 * (1 - t)).astype(int), -1)
    cols, tops, lengths = _runs(codes)
    colours, which = np.unique(codes[cols, tops], return_inverse=True)
    fills = [f'fill="rgb({c >> 8},80,{c & 255})"/>' for c in colours.tolist()]
    parts = _header(title)
    parts += [f"{xs[i]}{ys[j]}{heights[n]}{fills[k]}"
              for i, j, n, k in zip(cols, tops, lengths, which.tolist())]
    parts.append(f'<text x="{MARGIN}" y="{H - 20}" font-family="sans-serif" '
                 f'font-size="10">range [{lo:.4g}, {hi:.4g}]</text>')
    _write(path, parts)


def nesting_diagram(path, supports, grid, title="cutoff supports"):
    """Nested support outlines E_1 > E_2 > ... as stacked translucent fills,
    sampled every max(1, nx // 120)-th node: each column's runs of sampled
    nodes in a support are one rect each, so every sampled node is under
    one fill per support that holds it."""
    parts = _header(title)
    nx, ny = grid.shape
    cw = (W - 2 * MARGIN) / nx
    ch = (H - 2 * MARGIN) / ny
    step = max(1, nx // 120)
    xs, ys, heights = _cell_attrs(range(0, nx, step), range(0, ny, step),
                                  cw, ch, cw * step, ch * step, 0.0)
    for k, m in enumerate(supports):
        fill = f'fill="{PALETTE[k % len(PALETTE)]}" fill-opacity="0.18"/>'
        cols, tops, lengths = _runs(np.where(m[::step, ::step], 0, -1))
        parts += [f"{xs[i]}{ys[j]}{heights[n]}{fill}"
                  for i, j, n in zip(cols, tops, lengths)]
    _write(path, parts)
