"""Golden numeric check: every scenario at REFERENCE against a snapshot.

Each scenario runs through the command line into a temporary directory, in
each delta mode, and its output files are reduced to a digest:

* JSON summaries in full, except validate's, which is reduced to its exact
  (check, status) pairs and the pass/fail/report counts (its measured
  strings print numbers that roundoff may move);
* for each CSV, the row count and every numeric column sampled at no more
  than 50 evenly spaced rows.

The track-mode snapshot is `golden/reference.json`, and its exit codes are
fixed here (validate exits 4, every other scenario 0).  The fixed-mode
snapshot (`--delta-mode fixed`) is `golden/fixed.json`, and it records each
scenario's exit code with its digest: pulse exits 2 there (the pinned
two-photon detuning leaves no transparency window) and writes nothing.

Numbers must match the snapshot to a relative 1e-9, with an absolute floor
of 1e-12 for roundoff residuals; strings, booleans and counts must match
exactly.  A number that moves further is a change of results, to be
explained, not re-snapshotted silently.  After such a change is understood
and recorded, regenerate both snapshots with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from slowsound.cli import main

GOLDEN = Path(__file__).with_name("golden")
# delta mode -> (snapshot, extra command-line arguments)
MODES = {
    "track": (GOLDEN / "reference.json", []),
    "fixed": (GOLDEN / "fixed.json", ["--delta-mode", "fixed"]),
}
TRACK_EXIT_CODES = {"validate": 4}
SCENARIOS = (
    "spectrum",
    "decay",
    "couplings",
    "susceptibility",
    "dispersion",
    "groupvel",
    "eigenstates",
    "pulse",
    "validate",
)
RTOL = 1e-9
ATOL = 1e-12
MAX_ROWS = 50


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_digest(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    picks = np.linspace(0, len(rows) - 1, min(len(rows), MAX_ROWS)).round().astype(int)
    picks = sorted(set(picks))
    columns = {}
    for j, name in enumerate(header):
        values = [_parse_float(row[j]) for row in rows]
        if rows and all(v is not None for v in values):
            columns[name] = [None if math.isnan(values[i]) else values[i] for i in picks]
    return {"rows": len(rows), "sampled_rows": [int(i) for i in picks], "columns": columns}


def digest(scenario, outdir, mode="track"):
    """Run one scenario at REFERENCE in a delta mode and reduce its outputs
    to the digest; in fixed mode the digest holds the exit code too."""
    code = main([scenario, *MODES[mode][1], "--out", str(outdir), "--format", "csv,json"])
    result = {"json": {}, "csv": {}}
    if mode == "track":
        assert code == TRACK_EXIT_CODES.get(scenario, 0), (scenario, code)
    else:
        result["exit_code"] = code
    # a refused run leaves no output directory
    paths = sorted(Path(outdir).iterdir()) if Path(outdir).exists() else []
    for path in paths:
        if path.name == "manifest.json":
            continue
        if path.suffix == ".csv":
            result["csv"][path.name] = _csv_digest(path)
        elif path.suffix == ".json":
            with open(path) as fh:
                payload = json.load(fh)
            if scenario == "validate":
                payload = {
                    "checks": [[row["check"], row["status"]] for row in payload["rows"]],
                    "n_pass": payload["n_pass"],
                    "n_fail": payload["n_fail"],
                    "n_report": payload["n_report"],
                }
            result["json"][path.name] = payload
    return result


def _mismatches(expected, actual, where):
    """Yield a line for every place where actual departs from expected."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            yield f"{where}: keys {sorted(expected)} != {sorted(actual)}"
            return
        for key in expected:
            yield from _mismatches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{where}: length {len(expected)} != {len(actual)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _mismatches(e, a, f"{where}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(
        actual, bool
    ):
        if not abs(actual - expected) <= max(RTOL * abs(expected), ATOL):
            yield f"{where}: {actual!r} != {expected!r}"
    elif expected != actual or type(expected) is not type(actual):
        yield f"{where}: {actual!r} != {expected!r}"


def _load_snapshot(mode):
    with open(MODES[mode][0]) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_matches_golden_snapshot(tmp_path, scenario):
    expected = _load_snapshot("track")[scenario]
    actual = digest(scenario, tmp_path / scenario)
    problems = list(_mismatches(expected, actual, scenario))
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fixed_mode_scenario_matches_golden_snapshot(tmp_path, scenario):
    expected = _load_snapshot("fixed")[scenario]
    actual = digest(scenario, tmp_path / scenario, mode="fixed")
    problems = list(_mismatches(expected, actual, scenario))
    assert not problems, "\n".join(problems[:20])


def _write_snapshot(workdir, mode):
    snapshot = {name: digest(name, Path(workdir) / mode / name, mode) for name in SCENARIOS}
    path = MODES[mode][0]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for mode in MODES:
            print(f"wrote {_write_snapshot(workdir, mode)}")
