"""Deterministic file output: CSV tables, JSON reports, run manifests.

CSV cells are written by format_number: floats as %.12g (NaN of either
sign as "nan", infinities as "inf"/"-inf", negative zero as "-0"), bools
as "true"/"false", integers in full, and strings with newlines turned
into spaces and, when they hold a comma or a double quote, wrapped in
double quotes with inner quotes doubled.  Each column's % spec is picked
once per table: a column whose cells are all Python or numpy float64
floats is printed with %.12g directly, any other column as %s of its
format_number strings, so the bytes are the same either way.  A table
handed over as a 2-D float64 array takes %.12g in every column without
looking at its cells.  The rows are then formatted a block at a time, by
one % operation per block.  Scenarios hand OutputSink.csv (column name,
values) pairs, which csv_layout alone lays out for write_csv.  Reruns of
the same configuration produce byte-identical tables.  A JSON file is
written in one recursive pass, in the bytes json.dumps(indent=2,
sort_keys=True) writes once numpy values are Python ones, with NaN as
null.  The manifest carries the
fully resolved parameter set and the list of written files; its
generated_at stamp is the only line expected to differ between
identical reruns.
"""

import dataclasses
import datetime
import itertools
import json
import math
import os

import numpy as np

from .params import ConfigError
from .svg import line_plot

__all__ = ["OutputSink", "csv_layout", "format_number", "write_csv", "write_json", "write_manifest"]

# Rows formatted per % operation of write_csv.  Blocks of 32 to 1024 rows
# format equally fast, but the block's strings add to peak memory: about
# 1 MB on a 2001-row table at 512 rows, about 0.3 MB at 128.
_BLOCK_ROWS = 128
_FLOAT_TYPES = frozenset({float, np.float64})


def format_number(value):
    if isinstance(value, str):
        cleaned = value.replace("\n", " ")
        if "," in cleaned or '"' in cleaned:
            return '"' + cleaned.replace('"', '""') + '"'
        return cleaned
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _table_cells(rows, width):
    """The table's cells in row order, and the % spec of each column.

    A 2-D float64 array is all "%.12g" ("%.12g" % v is the routine behind
    f"{v:.12g}" and prints NaN as "nan").  Otherwise each column takes
    "%.12g" when its cells are all Python or numpy float64 floats, and
    "%s" over its format_number strings when they are not.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        if rows.shape[1] != width:
            raise ValueError(f"row of width {rows.shape[1]} does not match {width} columns")
        return rows.ravel().tolist(), ["%.12g"] * width
    rows = list(rows)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of width {len(row)} does not match {width} columns")
    cells = list(itertools.chain.from_iterable(rows))
    specs = []
    for j in range(width):
        column = cells[j::width]
        if set(map(type, column)) <= _FLOAT_TYPES:
            specs.append("%.12g")
        else:
            specs.append("%s")
            cells[j::width] = list(map(format_number, column))
    return cells, specs


def write_csv(path, columns, rows):
    """rows: iterable of sequences matching columns, or a 2-D float64
    array of them; LF newlines."""
    width = len(columns)
    cells, specs = _table_cells(rows, width)
    row_format = ",".join(specs) + "\n"
    block = _BLOCK_ROWS * width or 1
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(cells), block):
            chunk = tuple(cells[start : start + block])
            fh.write((row_format * (len(chunk) // width)) % chunk)


def csv_layout(table):
    """write_csv's column names and rows for table, (column name, values) pairs:
    one 2-D float64 array when every column is a 1-D float64 array, else rows
    of the columns' Python values.  Columns of unequal length raise ValueError.
    """
    columns, values = zip(*table)
    if all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.float64 for v in values):
        return list(columns), np.column_stack(values)
    cells = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
    return list(columns), list(zip(*cells, strict=True))


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_text(value, depth):
    """value as JSON text, nested depth levels deep, in the bytes of
    json.dumps(..., indent=2, sort_keys=True): keys sorted after str(),
    strings ASCII-escaped, floats by float.__repr__ with NaN as null and
    +-inf as +-Infinity, numpy scalars and arrays as Python ones, and a
    complex number as {"im", "re"}."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return "null"
        if v in (math.inf, -math.inf):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    if isinstance(value, complex):
        value = {"im": value.imag, "re": value.real}
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted({str(k): v for k, v in value.items()}.items())
        body = ("," + inner).join(_ESCAPE(k) + ": " + _json_text(v, depth + 1) for k, v in items)
        return "{" + inner + body + "\n" + "  " * depth + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ("," + inner).join(_json_text(v, depth + 1) for v in value)
        return "[" + inner + body + "\n" + "  " * depth + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, payload):
    text = _json_text(payload, 0)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def write_manifest(path, params, scenario, outputs, formats):
    """The run's manifest: its parameters, written files and, as notes, formats."""
    from slowsound import __version__

    payload = {
        "scenario": scenario,
        "parameters": dataclasses.asdict(params),
        "package": "slowsound",
        "version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "notes": {"formats": list(formats)},
    }
    write_json(path, payload)


class OutputSink:
    """Writes a scenario's files in the selected formats and tracks them.

    formats is a subset of ("csv", "json", "svg"); csv(), json() and
    svg() write their file only when their format is selected; csv() and
    svg() take (name, values) pairs, and csv() lays its table out before
    it registers the file.  The directory is made when path() registers
    the first file, so a run that fails before that leaves none.  Use as a context manager: files
    registered through path() are removed if the block raises, and kept on
    success; so are the directories path() made, once empty, while a
    directory that was there before the run is never removed.  An OSError
    in the block (the directory or a file cannot be made or written) is
    raised again as ConfigError("cannot write outputs").
    """

    def __init__(self, outdir, formats):
        self.outdir = outdir
        self.formats = tuple(formats)
        self.written = []
        self.made = []  # directories made by path(), deepest first

    def path(self, name):
        if not self.written:
            head = os.path.normpath(self.outdir)
            while head and not os.path.lexists(head):
                self.made.append(head)
                head = os.path.dirname(head)
            os.makedirs(self.outdir, exist_ok=True)
        full = os.path.join(self.outdir, name)
        self.written.append(full)
        return full

    def csv(self, name, table):
        if "csv" in self.formats:
            columns, rows = csv_layout(table)
            write_csv(self.path(name), columns, rows)

    def json(self, name, payload):
        if "json" in self.formats:
            write_json(self.path(name), payload)

    def svg(self, name, x, series, **labels):
        if "svg" in self.formats:
            line_plot(self.path(name), x, series, **labels)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            removals = [(os.remove, f) for f in self.written] + [(os.rmdir, d) for d in self.made]
            for remove, target in removals:
                try:
                    remove(target)
                except OSError:
                    pass
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write outputs: {exc}") from exc
        return False
