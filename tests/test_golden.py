"""Golden numeric check: every scenario at REFERENCE against a snapshot.

Each scenario runs through the command line into a temporary directory and
its output files are reduced to a digest:

* JSON summaries in full, except validate's, which is reduced to its exact
  (check, status) pairs and the pass/fail/report counts (its measured
  strings print numbers that roundoff may move);
* for each CSV, the row count and every numeric column sampled at no more
  than 50 evenly spaced rows.

Numbers must match the snapshot to a relative 1e-9, with an absolute floor
of 1e-12 for roundoff residuals; strings, booleans and counts must match
exactly.  A number that moves further is a change of results, to be
explained, not re-snapshotted silently.  After such a change is understood
and recorded, regenerate the snapshot with

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

SNAPSHOT = Path(__file__).with_name("golden") / "reference.json"
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


def digest(scenario, outdir):
    """Run one scenario at REFERENCE and reduce its outputs to the digest."""
    code = main([scenario, "--out", str(outdir), "--format", "csv,json"])
    assert code == (4 if scenario == "validate" else 0), (scenario, code)
    result = {"json": {}, "csv": {}}
    for path in sorted(Path(outdir).iterdir()):
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


def _load_snapshot():
    with open(SNAPSHOT) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_matches_golden_snapshot(tmp_path, scenario):
    expected = _load_snapshot()[scenario]
    actual = digest(scenario, tmp_path / scenario)
    problems = list(_mismatches(expected, actual, scenario))
    assert not problems, "\n".join(problems[:20])


def _write_snapshot(workdir):
    snapshot = {name: digest(name, Path(workdir) / name) for name in SCENARIOS}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    with open(SNAPSHOT, "w", newline="\n") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        _write_snapshot(workdir)
    print(f"wrote {SNAPSHOT}")
