"""Tiny native SVG line plots — no plotting dependency.

One axes panel, multiple series, linear scales. Enough to eyeball a
spectrum or a pulse; anything fancier belongs in the user's own tools,
fed from the CSV files written next to the figure.  Each series' pixel
coordinates are written as "%.2f" by one numtext.f2_text call.
"""

import math
import sys

import numpy as np

from .numtext import f2_text

__all__ = ["line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 80, 24, 48, 64


def _ticks(lo, hi, target=6):
    """About target round ticks over the finite lo <= hi; lo and hi themselves
    where the step would not exceed a unit in the last place of either end,
    which is where adding it could fail to move a tick."""
    raw = (hi - lo) / target
    if raw == math.inf:  # the span itself overflows
        raw = hi / target - lo / target
    if not raw > math.ulp(max(abs(lo), abs(hi))):
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    # a tick past the largest float is inf, which must end the loop
    top = min(hi + 1e-12 * step, sys.float_info.max)
    while t <= top:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out or [lo, hi]


def _fmt(v):
    return f"{v:.4g}"


def _scaled_span(values, pad=0.0):
    """(e, lo, hi): the span of the finite values in units of 2**e, widened
    to unit width where they coincide and by pad of its width on each side;
    (0, 1) when there are none.

    e is the binary exponent of the larger end, so the scaled ends are of
    order one: the pixel map reads (v - lo) / (hi - lo) in these units,
    where no difference overflows and no width underflows.  Scaling by a
    power of two is exact, so away from the ends of the float range the map
    is the same bit for bit as in the values' own units.
    """
    values = values[np.isfinite(values)]
    lo, hi = (float(values.min()), float(values.max())) if len(values) else (0.0, 1.0)
    hi = lo + 1.0 if hi == lo else hi
    e = math.frexp(max(abs(lo), abs(hi)))[1]
    lo, hi = math.ldexp(lo, -e), math.ldexp(hi, -e)
    # a unit is below the resolution of ends past 2**53: widen in scaled units
    hi = lo + 1.0 if hi == lo else hi
    width = pad * (hi - lo)
    return e, lo - width, hi + width


def _unscaled(v, e):
    """v 2**e, clamped to the finite floats."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(sys.float_info.max, v)


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

    series: list of (label, y-array) pairs drawn in order; a sample whose
    x or y is NaN or infinite breaks the polyline.  x is shared.  Any finite
    values map to finite pixels, up to the ends of the float range.
    """
    x = np.asarray(x, dtype=float)
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    ex, xlo, xhi = _scaled_span(x)
    ey, ylo, yhi = _scaled_span(np.concatenate([np.empty(0)] + [y for _, y in ys]), 0.05)

    def px(v):
        return _ML + (np.ldexp(v, -ex) - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (np.ldexp(v, -ey) - ylo) / (yhi - ylo) * (_H - _MT - _MB)

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
    xticks = _ticks(_unscaled(xlo, ex), _unscaled(xhi, ex))
    for t, p in zip(xticks, px(np.array(xticks))):
        parts.append(
            f'<line x1="{p:.1f}" y1="{_H - _MB}" x2="{p:.1f}" y2="{_H - _MB + 5}" '
            'stroke="#333"/>'
        )
        parts.append(
            f'<text x="{p:.1f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    yticks = _ticks(_unscaled(ylo, ey), _unscaled(yhi, ey))
    for t, p in zip(yticks, py(np.array(yticks))):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{p:.1f}" x2="{_ML}" y2="{p:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{p:.1f}" text-anchor="end" dominant-baseline="middle" '
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

    x_px, x_finite = px(x), np.isfinite(x)
    for i, (label, y) in enumerate(ys):
        color = _PALETTE[i % len(_PALETTE)]
        for chunk in _polyline_chunks(x_px, py(y), x_finite & np.isfinite(y)):
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
