"""Byte oracles for the CSV, JSON and SVG writers.

write_csv writes its float cells, and line_plot its pixel coordinates,
with the numpy text kernels of slowsound.numtext: an all-float table a
block of cells at a time, a mixed table's float columns in one call, a
series' finite points in one call.  The references here are the
straightforward writers they replace, one cell or one point at a time
through format_number and "%.2f"; every comparison is on the bytes
written, both on crafted tables and series, extreme values included, and
on whole scenarios' files.  write_json writes its text in one recursive
pass; its oracle is the json module's encoder behind json.dumps(indent=2,
sort_keys=True), after a walk that turns numpy values into Python ones.
"""
import json
import math
import os
import re

import numpy as np
import pytest

from slowsound import output
from slowsound.cli import SCENARIO_NAMES, main
from slowsound.output import OutputSink, format_number, write_csv, write_json
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
                # an int in an otherwise-float column, past the first block's rows
                10**13 if i == BLOCK_ROWS + 5 else i * 0.1,
            )
        )
    return rows


COLUMNS = ["py_float", "np_float64", "np_float32", "integer", "flag", "label", "mostly_float"]
# rows of one write_csv block at this width
BLOCK_ROWS = output._BLOCK_CELLS // len(COLUMNS)


def test_csv_matches_cell_by_cell_oracle_across_blocks(tmp_path):
    rows = mixed_rows(2 * BLOCK_ROWS + 37)
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


def test_csv_float_array_takes_the_same_bytes_as_the_oracle(tmp_path):
    # a 2-D float64 array is written with %.12g in every column, its cells
    # unchecked; other arrays take the per-column route
    values = np.concatenate([np.array(SPECIAL_FLOATS), np.linspace(-3.0, 7.0, 1500) ** 7])
    table = np.column_stack((values, -values, values[::-1]))
    path = tmp_path / "a.csv"
    write_csv(path, ["a", "b", "c"], table)
    assert written(path) == reference_csv(["a", "b", "c"], table)
    for other in (table.astype(np.float32), np.arange(-6, 6).reshape(4, 3) * 10**13):
        write_csv(path, ["a", "b", "c"], other)
        assert written(path) == reference_csv(["a", "b", "c"], other)
    # a row wider than one block
    wide = np.linspace(-1.0, 1.0, 3 * (output._BLOCK_CELLS + 1)).reshape(3, -1)
    names = [f"c{j}" for j in range(wide.shape[1])]
    write_csv(path, names, wide)
    assert written(path) == reference_csv(names, wide)
    with pytest.raises(ValueError, match="row of width 3 does not match 2 columns"):
        write_csv(tmp_path / "w.csv", ["a", "b"], table)


def test_csv_accepts_any_iterable_of_rows(tmp_path):
    rows = mixed_rows(BLOCK_ROWS + 3)
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
    rows = [(1.0, 2.0)] * (output._BLOCK_CELLS // 2 + 10) + [(1.0,)] + [(3.0, 4.0)] * 5
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
    xlo, xhi = float(np.min(x[np.isfinite(x)])), float(np.max(x[np.isfinite(x)]))
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
            if math.isfinite(xi) and math.isfinite(yi):
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


EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.797e308, -1.797e308]


def test_writers_warn_on_no_extreme_value(tmp_path):
    # filterwarnings = error fails the test on any warning; log10(0) and the
    # Veltkamp split's overflow near 1e308 would be the text kernels' own
    table = np.column_stack([EXTREMES, EXTREMES[::-1]])
    path = tmp_path / "x.csv"
    for rows in (table, table.tolist(), [(v, i) for i, v in enumerate(EXTREMES)]):
        write_csv(path, ["a", "b"], rows)
        assert written(path) == reference_csv(["a", "b"], rows)
    # line_plot draws only the points whose x and y are both finite
    svg = tmp_path / "x.svg"
    for x, y in (
        ([0.0, -0.0, 5e-324, 1.797e308, 1.0, 2.0], [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1.0]),
        ([0.0, math.nan, 1.0, math.inf], [1.0, 2.0, -0.0, 3.0]),
    ):
        line_plot(svg, x, [("y", y)])
        assert drawn_marks(svg) == reference_marks(x, [("y", y)])
    # its map reads every span in units of a power of two, so a rising pair
    # lands on the same pixels whether its span underflows, overflows or not
    rising = ['<polyline points="80.00,418.36 776.00,65.64" fill="none" stroke="#1f77b4" '
              'stroke-width="1.6"/>']
    for ends in ([0.0, 5e-324], [-1.797e308, 1.797e308], [1.0, 2.0]):
        for x, y in ((ends, ends), ([0.0, 1.0], ends), (ends, [0.0, 1.0])):
            line_plot(svg, x, [("y", y)])
            assert drawn_marks(svg) == rising, (x, y)
            assert finite_coordinates(svg)
    # ends a unit apart in their last place, or equal past 2**53, get ticks
    # and pixels too
    for y in ([1e300, math.nextafter(1e300, math.inf)], [1e300, 1e300], [1.797e308] * 2):
        line_plot(svg, [0.0, 1.0], [("y", y)])
        assert len(drawn_marks(svg)) == 1 and finite_coordinates(svg)


def finite_coordinates(path):
    text = written(path).decode()
    values = re.findall(r' (?:x|y|x1|x2|y1|y2|cx|cy|points)="([^"]*)"', text)
    return all(math.isfinite(float(v)) for value in values for v in re.split("[ ,]", value))


def _python_values(value):
    if isinstance(value, dict):
        return {str(k): _python_values(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_python_values(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_python_values(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def reference_json(payload):
    return (json.dumps(_python_values(payload), indent=2, sort_keys=True) + "\n").encode()


JSON_PAYLOAD = {
    "floats": SPECIAL_FLOATS + [np.float64(2.5), np.float32(0.1), np.float64(np.nan)],
    "ints": [0, -7, 2 ** 70, np.int64(-3), np.uint8(200)],
    "flags": [True, False, np.bool_(True), None],
    "texts": TEXTS + ["caf\u00e9 \u2713", "tab\there", "back\\slash", "\u0001"],
    "arrays": {"one": np.linspace(-1.0, 1.0, 5), "two": np.arange(6).reshape(2, 3), "none": np.array([])},
    "nested": {"empty_dict": {}, "empty_list": [], "tuple": (1, (2.0, "three")), "deep": [[{"z": [{}]}]]},
    "complex": [1.5 - 2j, np.complex128(complex(0.0, -0.0)), complex(math.inf, 1.0)],
    3: "int key",
    2.5: "float key",
    "": "empty key",
}


def test_json_matches_the_json_module_byte_for_byte(tmp_path):
    path = tmp_path / "payload.json"
    for payload in (JSON_PAYLOAD, {}, [], "alone", 1.25, None, math.nan):
        write_json(path, payload)
        assert written(path) == reference_json(payload), payload


def test_json_writes_nan_inside_a_complex_as_null(tmp_path):
    path = tmp_path / "payload.json"
    write_json(path, {"z": complex(math.nan, 1.0)})
    assert json.loads(written(path)) == {"z": {"im": 1.0, "re": None}}


def test_json_refuses_what_it_cannot_write(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "payload.json", {"value": object()})


# -- whole scenarios -----------------------------------------------------------

# spectrum's table mixes float, int and bool columns, whose float columns
# take one g12_text call; the others are all-float tables
SWEEPS = ("spectrum", "susceptibility", "dispersion", "groupvel", "pulse")


# REFERENCE, then stronger controls; the default detuning grids run from
# 379 points at REFERENCE to 735 at control 100, and spectrum's coupling-ratio
# sweep has 201 points.  Blocks of 256 cells put block seams in every
# all-float table.
@pytest.mark.parametrize("control", [None, "20", "80", "100"])
@pytest.mark.parametrize("scenario", SWEEPS)
def test_scenario_tables_match_oracle(tmp_path, monkeypatch, scenario, control):
    tables = []

    def checked_write_csv(path, columns, rows):
        # a 2-D array goes to the writer as it is, and the oracle reads its rows
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        write_csv(path, columns, rows)
        assert written(path) == reference_csv(columns, rows), path
        tables.append(len(rows) * len(columns))

    monkeypatch.setattr(output, "write_csv", checked_write_csv)
    monkeypatch.setattr(output, "_BLOCK_CELLS", 256)
    extra = ["--set", f"control_rabi_gamma0={control}"] if control else []
    assert main([scenario, *extra, "--out", str(tmp_path / "out")]) == 0
    assert tables and max(tables) > output._BLOCK_CELLS


def test_scenario_svg_matches_point_by_point_oracle(tmp_path, monkeypatch):
    plots = []

    def recorded_line_plot(path, x, series, **labels):
        line_plot(path, x, series, **labels)
        plots.append((path, x, series))

    monkeypatch.setattr(output, "line_plot", recorded_line_plot)
    assert main(["pulse", "--format", "svg", "--out", str(tmp_path / "out")]) == 0
    [(path, x, series)] = plots
    assert len(x) == 4096 and len(series) == 2
    assert drawn_marks(path) == reference_marks(x, series)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_scenario_json_matches_the_json_module(tmp_path, monkeypatch, scenario):
    # the manifest is checked too, with the stamp its writer made
    payloads = []

    def checked_write_json(path, payload):
        write_json(path, payload)
        assert written(path) == reference_json(payload), path
        payloads.append(path)

    monkeypatch.setattr(output, "write_json", checked_write_json)
    main([scenario, "--format", "json", "--out", str(tmp_path / "out")])
    assert len(payloads) >= 2


def test_sink_makes_its_directory_once(tmp_path, monkeypatch):
    made = []
    makedirs = os.makedirs

    def counted_makedirs(*args, **kwargs):
        made.append(args[0])
        return makedirs(*args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counted_makedirs)
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out)]) == 0
    assert made == [str(out)] and len(os.listdir(out)) == 4


# -- the sink's table layout -------------------------------------------------

def received_tables(monkeypatch):
    """The (columns, rows) each write_csv call receives, the file written as usual."""
    received = []

    def recorded_write_csv(path, columns, rows):
        write_csv(path, columns, rows)
        received.append((columns, rows))

    monkeypatch.setattr(output, "write_csv", recorded_write_csv)
    return received


def test_sink_hands_an_all_float_table_over_as_one_array(tmp_path, monkeypatch):
    received = received_tables(monkeypatch)
    x = np.concatenate([np.array(SPECIAL_FLOATS), np.linspace(-3.0, 7.0, 300)])
    with OutputSink(str(tmp_path), ("csv",)) as sink:
        sink.csv("f.csv", [("x", x), ("cube", x ** 3), ("strided", np.array([x, -x])[1])])
    [(columns, rows)] = received
    assert columns == ["x", "cube", "strided"]
    assert type(rows) is np.ndarray and rows.dtype == np.float64 and rows.shape == (len(x), 3)
    expected = reference_csv(columns, zip(x.tolist(), (x ** 3).tolist(), (-x).tolist()))
    assert written(tmp_path / "f.csv") == expected


@pytest.mark.parametrize("other", [
    np.arange(-5, 5) * 10 ** 13,
    np.arange(10) % 3 == 0,
    TEXTS + ["x,y", "last"] + TEXTS[:2],
    np.arange(10, dtype=np.float32) / 7.0,
    [0.5 * i for i in range(10)],
], ids=["int", "bool", "str", "float32", "list_of_floats"])
def test_sink_hands_any_other_table_over_as_rows_of_python_values(tmp_path, monkeypatch, other):
    received = received_tables(monkeypatch)
    x = np.linspace(0.0, 1.0, 10)
    with OutputSink(str(tmp_path), ("csv",)) as sink:
        sink.csv("m.csv", [("x", x), ("other", other)])
    [(columns, rows)] = received
    python_other = other.tolist() if isinstance(other, np.ndarray) else other
    assert columns == ["x", "other"]
    assert rows == list(zip(x.tolist(), python_other))
    assert {type(cell) for row in rows for cell in row} <= {float, int, bool, str}
    # the bytes write_csv wrote when the table came as these rows
    write_csv(tmp_path / "direct.csv", columns, zip(x.tolist(), python_other))
    assert written(tmp_path / "m.csv") == written(tmp_path / "direct.csv")
    assert written(tmp_path / "m.csv") == reference_csv(columns, rows)


@pytest.mark.parametrize("short", [np.zeros(4), ["a"] * 4], ids=["float", "str"])
def test_sink_refuses_columns_of_unequal_length_before_making_anything(
    tmp_path, monkeypatch, short
):
    received = received_tables(monkeypatch)
    made = []
    makedirs = os.makedirs

    def counted_makedirs(*args, **kwargs):
        made.append(args[0])
        return makedirs(*args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counted_makedirs)
    out = tmp_path / "new" / "out"
    with pytest.raises(ValueError):
        with OutputSink(str(out), ("csv",)) as sink:
            sink.csv("u.csv", [("x", np.zeros(5)), ("short", short)])
    assert sink.written == [] and made == [] and received == []
    assert os.listdir(tmp_path) == []
