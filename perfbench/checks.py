"""Correctness gates on the files a successful run wrote.

Every gate compares numbers, not bytes, and reuses a tolerance that the
program or its acceptance suite already states:

* validate at REFERENCE: exit 4 with 21 pass / 3 fail / 3 report, and the
  FAIL rows are the three deliberate ones (README, ROADMAP);
* decay: closed and integral rates agree within 1e-3 (criterion 3; every
  workload runs the default closed coupling mode); the cascade norm stays within (0.98, 1.005) (criterion 4);
* decay: the first-line FWHM is within 5% of gamma_0 + gamma_1;
* susceptibility: every im_chi* column is >= 0 (passivity);
* pulse: relative_delay_error < 0.1 (criterion 8);
* groupvel at REFERENCE (closed route): minimum v_g/c_s within
  [0.03, 0.12] (criterion 7);
* eigenstates: every state n < nu is within 1e-3 (absolute) of the ladder
  energy with overlap > 0.999, the tolerance test_gpe's
  test_well_ladder_from_descent states for the descent's default
  120 000-step budget, which the scenario runs.  The n = 2 box state is not
  checked.

Every successful run is also checked for the files its manifest lists.

A row's status is True (pass), False (fail) or None (reported only).  The
one reported-only row is criterion 9a's relative ladder gap below 1e-3: the
suite states it for a 240 000-step descent, twice the scenario's budget,
and at that budget the n = 1 state misses it below nu ~ 1.184 at the
reference mass ratio (relative gap 1.23e-3 at nu = 1.18).  Printing it
keeps that known shortfall in view without counting it as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os

DELIBERATE_VALIDATE_FAILS = {
    "exponential_tail_at_k12",
    "extremum_location_agreement",
    "interband_dominance",
}


def _load(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _column_minima(outdir, name, prefix):
    """Minimum of each CSV column whose header starts with prefix.

    Read row by row, so checking adds nothing to the peak memory.  A nan
    in a column makes its minimum nan.
    """
    with open(os.path.join(outdir, name), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        picked = [i for i, col in enumerate(header) if col.startswith(prefix)]
        minima = {i: math.inf for i in picked}
        for row in reader:
            for i in picked:
                value = float(row[i])
                # Once a minimum is nan, no comparison can replace it.
                if math.isnan(value) or value < minima[i]:
                    minima[i] = value
    return [minima[i] for i in picked]


def _manifest(outdir, reference):
    listed = _load(outdir, "manifest.json")["outputs"]
    missing = [n for n in listed if not os.path.exists(os.path.join(outdir, n))]
    return [("manifest_outputs_exist", not missing, f"missing {missing}" if missing else "")]


def _validate(outdir, reference):
    if not reference:
        return []
    summary = _load(outdir, "validate.json")
    counts = (summary["n_pass"], summary["n_fail"], summary["n_report"])
    fails = {r["check"] for r in summary["rows"] if r["status"] == "FAIL"}
    return [
        ("validate_counts_21_3_3", counts == (21, 3, 3), f"got {counts}"),
        ("validate_fail_rows", fails == DELIBERATE_VALIDATE_FAILS, f"got {sorted(fails)}"),
    ]


def _decay(outdir, reference):
    summary = _load(outdir, "decay.json")
    diff = summary["route_relative_difference"]
    worst = max(diff["gamma_0"], diff["gamma_1"])
    out = [("decay_route_agreement_1e-3", worst < 1e-3, f"worst {worst:.3e}")]
    lo, hi = summary["cascade"]["norm_min"], summary["cascade"]["norm_max"]
    out.append(("cascade_norm_0.98_1.005", lo > 0.98 and hi < 1.005, f"[{lo:.6f}, {hi:.6f}]"))
    ratio = summary["first_line"]["fwhm_over_sum"]
    out.append(("first_line_fwhm_5pct", abs(ratio - 1.0) <= 0.05, f"fwhm/sum {ratio:.6f}"))
    return out


def _susceptibility(outdir, reference):
    minima = _column_minima(outdir, "susceptibility.csv", "im_chi")
    # nan fails the comparison, so a nan absorption counts as a violation.
    ok = all(m >= 0.0 for m in minima)
    return [("passivity_im_chi_nonnegative", ok, f"column minima {minima}")]


def _pulse(outdir, reference):
    err = _load(outdir, "pulse.json")["relative_delay_error"]
    ok = err is not None and err < 0.1
    return [("pulse_delay_error_0.1", ok, f"relative_delay_error {err}")]


def _groupvel(outdir, reference):
    if not reference:
        return []
    vmin = _load(outdir, "groupvel.json")["min_vg_over_cs"]
    return [("groupvel_min_0.03_0.12", 0.03 <= vmin <= 0.12, f"min v_g/c_s {vmin:.5f}")]


def _eigenstates(outdir, reference):
    summary = _load(outdir, "eigenstates.json")
    out = []
    for state in summary["states"]:
        n = state["n"]
        if not n < summary["nu"]:
            continue
        gap = abs(state["energy"] - state["energy_ladder"])
        overlap = state["overlap_with_analytic"]
        ok = gap < 1e-3 and overlap is not None and overlap > 0.999
        out.append((f"eigenstate_{n}_ladder_default_budget", ok,
                    f"gap {gap:.3e}, overlap {overlap}"))
        rel = state.get("energy_relative_error")
        met = rel is not None and rel < 1e-3 and overlap is not None and overlap >= 0.99
        out.append((f"eigenstate_{n}_ladder_9a", None,
                    f"relative gap {rel}, overlap {overlap}: "
                    f"{'meets' if met else 'misses'} 9a, stated for 240 000 steps"))
    return out


_BY_SCENARIO = {
    "validate": _validate,
    "decay": _decay,
    "susceptibility": _susceptibility,
    "pulse": _pulse,
    "groupvel": _groupvel,
    "eigenstates": _eigenstates,
}


def check_outputs(argv, outdir):
    """Run every gate that applies to this run; returns (name, status, detail) rows.

    A run is at REFERENCE when its argv names the scenario and nothing else.
    A gate that cannot read what it needs fails with the reason as detail.
    """
    reference = len(argv) == 1
    rows = []
    for gate in (_manifest, _BY_SCENARIO.get(argv[0])):
        if gate is None:
            continue
        try:
            rows += gate(outdir, reference)
        except (OSError, KeyError, ValueError, TypeError, StopIteration) as exc:
            rows.append((f"{argv[0]}_outputs_readable", False, f"{type(exc).__name__}: {exc}"))
    return rows
