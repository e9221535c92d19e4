"""Byte oracles for the CSV and SVG writers.

write_csv formats a block of rows at a time and line_plot formats each
series' pixel coordinates as whole arrays.  The references here are the
straightforward writers they replace, one cell or one point at a time;
every comparison is on the bytes written.
"""
import math

import numpy as np
import pytest

import slowsound.scenarios
from slowsound import output
from slowsound.cli import main
from slowsound.output import format_number, write_csv
from slowsound.svg import _H, _MB, _ML, _MR, _MT, _PALETTE, _W, line_plot


def reference_csv(columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(format_number(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written(path):
    with open(path, "rb") as fh:
        return fh.read()


SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -2.5e17, 1 / 3]
TEXTS = ["plain", "a,b", 'say "hi"', "two\nlines", 'both, "and"\nmore', ""]


def mixed_rows(n):
    rows = []
    for i in range(n):
        special = SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)]
        rows.append(
            (
                special,
                np.float64(special) * (i + 1),
                np.float32(i / 7.0),
                i * 10**9 if i % 2 else np.int64(-i),
                bool(i % 3) if i % 2 else np.bool_(i % 3 == 0),
                TEXTS[i % len(TEXTS)],
                # an int in an otherwise-float column, in the second block only
                10**13 if i == output._BLOCK_ROWS + 5 else i * 0.1,
            )
        )
    return rows


COLUMNS = ["py_float", "np_float64", "np_float32", "integer", "flag", "label", "mostly_float"]


def test_csv_matches_cell_by_cell_oracle_across_blocks(tmp_path):
    rows = mixed_rows(2 * output._BLOCK_ROWS + 37)
    path = tmp_path / "t.csv"
    write_csv(path, COLUMNS, rows)
    expected = reference_csv(COLUMNS, rows)
    assert written(path) == expected
    cells = {format_number(v) for row in rows for v in row}
    for cell in ("nan", "-inf", "-0", "1e-300", "10000000000000", "true", "false", '"a,b"'):
        assert cell in cells


def test_csv_float_columns_take_the_same_bytes_as_the_oracle(tmp_path):
    # columns entirely of Python floats or np.float64, the case written
    # without format_number
    values = np.concatenate([np.array(SPECIAL_FLOATS), np.linspace(-3.0, 7.0, 1500) ** 7])
    rows = list(zip(values.tolist(), values, -values))
    path = tmp_path / "f.csv"
    write_csv(path, ["a", "b", "c"], rows)
    assert written(path) == reference_csv(["a", "b", "c"], rows)


def test_csv_accepts_any_iterable_of_rows(tmp_path):
    rows = mixed_rows(output._BLOCK_ROWS + 3)
    path = tmp_path / "g.csv"
    write_csv(path, COLUMNS, (row for row in rows))
    assert written(path) == reference_csv(COLUMNS, rows)
    write_csv(path, ["x", "y"], np.arange(12.0).reshape(6, 2))
    assert written(path) == reference_csv(["x", "y"], np.arange(12.0).reshape(6, 2))


def test_csv_without_rows_is_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(path, ["a", "b"], [])
    assert written(path) == b"a,b\n"


def test_csv_width_mismatch_in_second_block_raises(tmp_path):
    rows = [(1.0, 2.0)] * (output._BLOCK_ROWS + 10) + [(1.0,)] + [(3.0, 4.0)] * 5
    with pytest.raises(ValueError, match="row of width 1 does not match 2 columns"):
        write_csv(tmp_path / "w.csv", ["a", "b"], rows)


# -- SVG polylines -----------------------------------------------------------


def reference_marks(x, series):
    """The polyline and circle elements, drawn one point at a time."""
    x = np.asarray(x, dtype=float)
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    finite = np.concatenate([y[np.isfinite(y)] for _, y in ys if np.any(np.isfinite(y))])
    ylo, yhi = (float(np.min(finite)), float(np.max(finite))) if len(finite) else (0.0, 1.0)
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(np.min(x)), float(np.max(x))
    if xhi == xlo:
        xhi = xlo + 1.0

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    marks = []
    for i, (_, y) in enumerate(ys):
        color = _PALETTE[i % len(_PALETTE)]
        points = []
        chunks = []
        for xi, yi in zip(x, y):
            if math.isfinite(yi):
                points.append(f"{px(xi):.2f},{py(yi):.2f}")
            elif points:
                chunks.append(points)
                points = []
        if points:
            chunks.append(points)
        for chunk in chunks:
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                marks.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                marks.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" stroke="{color}" '
                    'stroke-width="1.6"/>'
                )
    return marks


def drawn_marks(path):
    lines = written(path).decode().splitlines()
    return [line for line in lines if line.startswith(("<polyline", '<circle cx="'))]


def test_polylines_match_point_by_point_oracle(tmp_path):
    x = np.linspace(-40.0, 25.0, 301)
    smooth = np.sin(x / 3.0) * np.exp(-x / 50.0)
    leading = smooth.copy()
    leading[:17] = np.nan
    trailing = 2.0 * smooth
    trailing[-40:] = np.inf
    interior = smooth - 0.5
    interior[100:130] = np.nan
    interior[200] = -np.inf
    isolated = np.full_like(x, np.nan)
    isolated[50] = 0.25
    isolated[52:60] = np.linspace(0.0, 1.0, 8)
    isolated[-1] = -1.0
    series = [
        ("leading", leading),
        ("trailing", trailing),
        ("interior", interior),
        ("isolated", isolated),
        ("clean", smooth),
        ("list", list(smooth[::-1])),
        ("seventh colour", smooth + 1.0),
    ]
    path = tmp_path / "p.svg"
    line_plot(path, x, series, title="t", xlabel="x", ylabel="y")
    marks = drawn_marks(path)
    assert marks == reference_marks(x, series)
    assert sum(m.startswith("<circle") for m in marks) == 2


def test_all_non_finite_series_draw_nothing(tmp_path):
    path = tmp_path / "n.svg"
    line_plot(path, np.arange(3.0), [("a", np.full(3, np.nan)), ("b", [np.inf, -np.inf, np.nan])])
    text = written(path).decode()
    assert drawn_marks(path) == []
    # the y axis falls back to [0, 1], padded by 5%
    assert ">0.2</text>" in text and ">1</text>" in text
    line_plot(path, np.arange(3.0), [])
    assert drawn_marks(path) == []
    # an empty x takes the same (0, 1) fallback
    line_plot(path, [], [])
    assert drawn_marks(path) == []
    line_plot(path, [], [("a", [])])
    assert drawn_marks(path) == []


# -- whole scenarios -----------------------------------------------------------

SWEEPS = ("susceptibility", "dispersion", "groupvel", "pulse")


# REFERENCE, then stronger controls whose detuning grids run to 6 001 and
# 24 001 points
@pytest.mark.parametrize("control", [None, "20", "80"])
@pytest.mark.parametrize("scenario", SWEEPS)
def test_scenario_tables_match_oracle(tmp_path, monkeypatch, scenario, control):
    tables = []

    def checked_write_csv(path, columns, rows):
        rows = list(rows)
        write_csv(path, columns, rows)
        assert written(path) == reference_csv(columns, rows), path
        tables.append(len(rows))

    monkeypatch.setattr(slowsound.scenarios, "write_csv", checked_write_csv)
    extra = ["--set", f"control_rabi_gamma0={control}"] if control else []
    assert main([scenario, *extra, "--out", str(tmp_path / "out")]) == 0
    assert tables and max(tables) > output._BLOCK_ROWS
