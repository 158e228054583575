"""Minimal self-contained SVG output: line charts, log-log charts, heatmaps.

No plotting dependency; every figure is a standalone .svg written directly.
Line charts are vector.  The heatmap and the nesting diagram are raster:
one unsmoothed <image>, an embedded PNG of one pixel per sampled cell.
Deterministic output for identical data and a given zlib build, with no
timestamps: coordinates and sizes are formatted with .2f (axis ticks .1f),
tick labels with .3g and a heatmap's range label with .4g.
"""

import binascii
import math
import struct
import zlib

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


def _chunk(kind, data):
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data)))


def _image(x, y, width, height, cells):
    """An unsmoothed <image> over the box with top-left corner (x, y): an
    RGBA PNG, 8 bits a channel, filter 0 on every row, one IDAT, whose
    pixel in column i and row j, counted up from the bottom, is the uint8
    RGBA cells[i, j]."""
    mx, my, _ = cells.shape
    raw = np.zeros((my, 1 + 4 * mx), dtype=np.uint8)
    raw[:, 1:] = cells[:, ::-1].transpose(1, 0, 2).reshape(my, 4 * mx)
    png = (b"\x89PNG\r\n\x1a\n"
           + _chunk(b"IHDR", struct.pack(">IIBBBBB", mx, my, 8, 6, 0, 0, 0))
           + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 9))
           + _chunk(b"IEND", b""))
    href = binascii.b2a_base64(png, newline=False).decode("ascii")
    return (f'<image x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" '
            f'height="{height:.2f}" preserveAspectRatio="none" '
            f'image-rendering="pixelated" '
            f'href="data:image/png;base64,{href}"/>')


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


def line_chart(path, series, title="", xlabel="", ylabel="",
               xlog=False, ylog=False):
    """series: list of (label, xs, ys).  Writes a standalone SVG of the
    points each axis can draw (finite, and > 0 on a log axis), over the
    range of those points."""
    drawn = [(label, [(x, y) for x, y in zip(xs, ys)
                      if np.isfinite(x) and np.isfinite(y)
                      and (not xlog or x > 0) and (not ylog or y > 0)])
             for label, xs, ys in series]
    pts = [p for _, kept in drawn for p in kept]
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
    for k, (label, kept) in enumerate(drawn):
        if kept:
            c.polyline([p[0] for p in kept], [p[1] for p in kept],
                       PALETTE[k % len(PALETTE)], label, k)
    _write(path, c.parts)


def heatmap(path, values, title=""):
    """Coarse raster heatmap of a grid function: every
    max(1, n // HEATMAP_CELLS)-th node along an axis of n nodes is a cell
    of the plot box, coloured rgb(int(255 t), 80, int(255 (1 - t))) for t
    the value scaled to [0, 1]; non-finite cells stay blank."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    if not finite.any():
        raise ValueError("nothing to plot")
    lo, hi = float(v[finite].min()), float(v[finite].max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = v.shape
    sx = max(1, nx // HEATMAP_CELLS)
    sy = max(1, ny // HEATMAP_CELLS)
    ff = finite[::sx, ::sy]
    t = (np.where(ff, v[::sx, ::sy], lo) - lo) / span
    # 0 <= t <= 1, so the byte cast truncates each channel as int() does
    cells = np.dstack([255 * t, np.full(t.shape, 80.0), 255 * (1 - t),
                       np.full(t.shape, 255.0)]).astype(np.uint8)
    cells[~ff] = 0
    parts = _header(title)
    parts.append(_image(MARGIN, MARGIN, W - 2 * MARGIN, H - 2 * MARGIN,
                        cells))
    parts.append(f'<text x="{MARGIN}" y="{H - 20}" font-family="sans-serif" '
                 f'font-size="10">range [{lo:.4g}, {hi:.4g}]</text>')
    _write(path, parts)


def nesting_diagram(path, supports, grid, title="cutoff supports"):
    """Nested supports E_1 > E_2 > ... as stacked translucent fills,
    sampled every step = max(1, nx // 120)-th node: node (i, j) is a
    step x step-node cell at x = MARGIN + i * cw, top at
    H - MARGIN - (j + 1) * ch, coloured by the fills (opacity 0.18) of the
    supports that hold it over white in order; blank outside them all."""
    nx, ny = grid.shape
    cw, ch = (W - 2 * MARGIN) / nx, (H - 2 * MARGIN) / ny
    step = max(1, nx // 120)
    # the set of supports that hold each sampled node, one bit a support
    held = sum(m[::step, ::step].astype(np.int64) << k
               for k, m in enumerate(supports))
    colours = np.zeros((held.max() + 1, 4), dtype=np.uint8)
    for bits in range(1, len(colours)):
        rgb = [255.0] * 3
        for k in range(bits.bit_length()):
            if bits >> k & 1:
                fill = bytes.fromhex(PALETTE[k % len(PALETTE)][1:])
                rgb = [c + 0.18 * (f - c) for c, f in zip(rgb, fill)]
        colours[bits] = [round(c) for c in rgb] + [255]
    my = held.shape[1]
    parts = _header(title)
    parts.append(_image(MARGIN, H - MARGIN - ((my - 1) * step + 1) * ch,
                        held.shape[0] * step * cw, my * step * ch,
                        colours[held]))
    _write(path, parts)
