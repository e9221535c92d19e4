"""Tiny native SVG line plots — no plotting dependency.

One axes panel, multiple series, linear scales. Enough to eyeball a
spectrum or a pulse; anything fancier belongs in the user's own tools,
fed from the CSV files written next to the figure.  Each series' pixel
coordinates are written as "%.2f" by one numtext.f2_text call.
"""

import math

import numpy as np

from .numtext import f2_text

__all__ = ["line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 80, 24, 48, 64


def _ticks(lo, hi, target=6):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out or [lo, hi]


def _fmt(v):
    return f"{v:.4g}"


def _span(values):
    """(min, max) of the values, widened to unit width when they coincide;
    (0, 1) when there are none."""
    lo, hi = (float(np.min(values)), float(np.max(values))) if len(values) else (0.0, 1.0)
    return lo, (lo + 1.0 if hi == lo else hi)


def _polyline_chunks(xs, ys, finite):
    """The "x,y x,y ..." pixel text of each run of consecutive finite
    samples, every coordinate as "%.2f", from one f2_text call."""
    points = finite.nonzero()[0]
    pairs = np.empty((len(points), 2))
    pairs[:, 0], pairs[:, 1] = xs[points], ys[points]
    # a newline leads each run's first point, a space every other point
    lead = np.empty((len(points), 2), np.uint32)
    lead[:, 0], lead[:, 1] = ord(" "), ord(",")
    lead[:1, 0] = ord("\n")
    lead[1:, 0][points[1:] - points[:-1] > 1] = ord("\n")
    return f2_text(pairs, lead).split("\n")[1:]


def line_plot(path, x, series, title="", xlabel="", ylabel=""):
    """Write an SVG with the given series.

    series: list of (label, y-array) pairs drawn in order; NaN samples
    break the polyline.  x is shared.
    """
    x = np.asarray(x, dtype=float)
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    finite = np.concatenate([np.empty(0)] + [y[np.isfinite(y)] for _, y in ys])
    ylo, yhi = _span(finite)
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = _span(x)

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="28" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]
    # axes frame and ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" y2="{_H - _MB + 5}" '
            'stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" y2="{py(t):.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
    )

    x_px = px(x)
    for i, (label, y) in enumerate(ys):
        color = _PALETTE[i % len(_PALETTE)]
        for chunk in _polyline_chunks(x_px, py(y), np.isfinite(y)):
            if " " not in chunk:
                cx, cy = chunk.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{chunk}" fill="none" stroke="{color}" '
                    'stroke-width="1.6"/>'
                )
        lx, ly = _W - _MR - 170, _MT + 16 + 18 * i
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" stroke="{color}" '
            'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
