"""End-to-end checks of the command-line entry point and its exit codes."""
import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import slowsound
from slowsound.cli import main
from slowsound.coupling import g0_closed, g1_closed, g_quadrature
from slowsound.numerics import NumericsError
from slowsound.params import REFERENCE
from slowsound.qutrit import qutrit_window_in_coupling_ratio


def test_cli_import_leaves_numpy_unloaded():
    # --threads sets the BLAS thread variables inside main(); that only
    # works if importing the entry point (and the package) loads no numpy
    src = os.path.dirname(os.path.dirname(slowsound.__file__))
    probe = "import sys, slowsound.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def run(tmp_path, *argv):
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    return code, out


def test_spectrum_writes_all_formats(tmp_path, capsys):
    code, out = run(tmp_path, "spectrum")
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "spectrum.csv", "spectrum.json", "spectrum.svg"]
    assert "wrote 4 files" in capsys.readouterr().out


def test_format_subset_respected(tmp_path):
    from slowsound.scenarios import SCENARIOS

    for scenario in SCENARIOS:
        code, out = run(tmp_path / scenario, scenario, "--format", "json")
        assert code == (4 if scenario == "validate" else 0), scenario
        assert sorted(os.listdir(out)) == sorted(["manifest.json", f"{scenario}.json"])


def test_unknown_scenario_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--out", str(tmp_path / "x")])
    assert info.value.code == 2


def test_removed_coupling_mode_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--coupling-mode", "closed", "--out", str(tmp_path / "x")])
    assert info.value.code == 2


def test_bad_override_value(tmp_path, capsys):
    code, out = run(tmp_path, "spectrum", "--set", "mass_ratio=banana")
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key(tmp_path, capsys):
    # the coupling route is not configurable: the chain runs the printed g0/g1
    for override in ("flux_capacitor=1", "coupling_mode=closed"):
        code, out = run(tmp_path, "spectrum", "--set", override)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown config key" in err
        assert not out.exists()


def test_bad_format_listing(tmp_path, capsys):
    code, out = run(tmp_path, "spectrum", "--format", "yaml")
    assert code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(
        ["spectrum", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_unwritable_out_is_config_error(tmp_path, capsys, below):
    # an --out that is, or lies under, a regular file cannot be made
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code = main(["spectrum", "--out", str(taken / below)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write outputs: ")
    assert "Traceback" not in err
    assert taken.read_text() == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == ["taken"]


def test_domain_violation_maps_to_config_error(tmp_path, capsys):
    # decay needs the three-level ladder; pushing nu below the window is
    # a configuration-class failure, and nothing may be left on disk
    code, out = run(tmp_path, "decay", "--set", "coupling_ratio=0.5")
    assert code == 2
    assert "qutrit window" in capsys.readouterr().err
    assert not os.path.isdir(out) or os.listdir(out) == []


def test_numerics_failure_cleans_partial_outputs(tmp_path, monkeypatch, capsys):
    from slowsound import scenarios

    def exploding(params, sink):
        path = sink.path("partial.csv")
        with open(path, "w") as fh:
            fh.write("half a table\n")
        raise NumericsError("synthetic blow-up")

    monkeypatch.setitem(scenarios.SCENARIOS, "spectrum", exploding)
    code, out = run(tmp_path, "spectrum")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "partial.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "mass_ratio, coupling_ratio, family_ratio, side",
    [("1.0", "2.0", "1.1", "below"), ("2.0", "1.2", "1.85", "above")],
)
def test_susceptibility_refusal_names_the_comparison_curve(
    tmp_path, capsys, mass_ratio, coupling_ratio, family_ratio, side
):
    # the configured point is inside the window; only susceptibility's fixed
    # comparison family leaves it, and the refusal says which of its curves
    lo, hi = qutrit_window_in_coupling_ratio(float(mass_ratio))
    assert lo <= float(coupling_ratio) < hi
    assert not lo <= float(family_ratio) < hi
    sets = ["--set", f"mass_ratio={mass_ratio}", "--set", f"coupling_ratio={coupling_ratio}"]
    code, _ = run(tmp_path, "susceptibility", *sets)
    assert code == 2
    err = capsys.readouterr().err
    assert f"comparison curve at coupling_ratio={family_ratio}: nu=" in err
    assert f"lies {side} the qutrit window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["groupvel", "--set", "density_xi=inf"],
        ["pulse", "--set", "density_xi=inf"],
        ["spectrum", "--set", "coupling_ratio=inf"],
        ["spectrum", "--set", "mass_ratio=inf"],
        ["pulse", "--set", "control_rabi_gamma0=inf"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[-1]}",
)
def test_infinite_parameter_is_config_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["density_xi=1e200", "impurity_number=1e300"])
def test_arithmetic_failure_is_numerical_failure(tmp_path, capsys, override):
    # ZeroDivisionError / OverflowError inside the physics at extreme finite inputs
    code, out = run(tmp_path, "groupvel", "--set", override)
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists() or os.listdir(out) == []


def test_threads_flag_overrides_the_environment(tmp_path, monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "4")
    code, _ = run(tmp_path, "spectrum", "--threads", "1", "--format", "json")
    assert code == 0
    assert [os.environ[name] for name in names] == ["1"] * 4


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_config_error(tmp_path, monkeypatch, capsys, threads):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "4")
    code, out = run(tmp_path, "spectrum", "--threads", threads)
    assert code == 2
    assert capsys.readouterr().err == "config error: --threads must be >= 1\n"
    assert [os.environ[name] for name in names] == ["4"] * 4
    assert not out.exists()


def test_validate_reports_and_exits_four(tmp_path, capsys):
    code, out = run(tmp_path, "validate", "--format", "json")
    captured = capsys.readouterr().out
    # the battery carries three known-defect rows; they must be reported
    # as failures, never silently massaged into passes
    assert code == 4
    assert "21 pass, 3 fail, 3 report" in captured
    assert captured.count("FAIL") == 3
    assert (out / "manifest.json").exists()


def test_validate_in_fixed_mode_reports_the_pulse_refusal(tmp_path):
    # with the two-photon detuning fixed, REFERENCE has no transparency
    # window: the pulse step's refusal is a FAIL row naming the reason, and
    # the battery still writes every row and exits 4
    code, out = run(tmp_path, "validate", "--delta-mode", "fixed")
    assert code == 4
    with open(out / "validate.json") as fh:
        rows = {row["check"]: row for row in json.load(fh)["rows"]}
    assert len(rows) == 27
    assert (out / "validate.csv").exists()
    pulse = rows["pulse_delay_consistency"]
    assert pulse["status"] == "FAIL"
    assert pulse["measured"].startswith("refused: cannot propagate through opaque medium")


def test_validate_tail_row_prints_both_lines_tails(tmp_path):
    # each figure of the row is |g(12)| over the curve's peak; a direct
    # evaluation takes the peak on a denser and wider grid than validate's
    code, out = run(tmp_path, "validate", "--format", "json")
    assert code == 4
    with open(out / "validate.json") as fh:
        row = {r["check"]: r for r in json.load(fh)["rows"]}["exponential_tail_at_k12"]
    assert row["status"] == "FAIL"
    printed = re.fullmatch(
        r"\S+ \(lower line (\S+), upper (\S+), quadrature lower (\S+) upper (\S+)\)",
        row["measured"],
    )
    assert printed, row["measured"]
    ks = np.append(np.arange(0.05, 8.0, 1e-4), 12.0)
    curves = (
        g0_closed(ks, REFERENCE),
        g1_closed(ks, REFERENCE),
        g_quadrature(0, 1, ks, REFERENCE),
        g_quadrature(1, 2, ks, REFERENCE),
    )
    for text, curve in zip(printed.groups(), curves):
        curve = np.abs(curve)
        direct = curve[-1] / np.max(curve[:-1])
        # "%.3e" prints four significant figures
        half_digit = 0.5 * 10.0 ** (math.floor(math.log10(direct)) - 3)
        assert abs(float(text) - direct) <= half_digit * (1 + 1e-9), (text, direct)


def test_couplings_writes_each_curve_once(tmp_path):
    code, out = run(tmp_path, "couplings", "--format", "csv,json")
    assert code == 0
    with open(out / "couplings.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {name: [float(row[j]) for row in rows] for j, name in enumerate(header)}
    for i, a in enumerate(header):
        for b in header[i + 1 :]:
            assert columns[a] != columns[b], (a, b)

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    with open(out / "couplings.json") as fh:
        names = list(keys(json.load(fh)))
    assert "interband_source" not in names
    assert not [name for name in names if name.endswith("_mode")]


@pytest.mark.parametrize(
    "scenario", ["spectrum", "eigenstates", "susceptibility", "dispersion", "groupvel", "pulse"]
)
def test_reruns_byte_identical_except_timestamp(tmp_path, scenario):
    _, first = run(tmp_path / "a", scenario)
    _, second = run(tmp_path / "b", scenario)
    for name in sorted(os.listdir(first)):
        with open(first / name, "rb") as fh:
            left = fh.read()
        with open(second / name, "rb") as fh:
            right = fh.read()
        if name == "manifest.json":
            keep = lambda line: b"generated_at" not in line
            assert [l for l in left.splitlines() if keep(l)] == [
                l for l in right.splitlines() if keep(l)
            ]
        else:
            assert left == right, name


def test_override_changes_physics_output(tmp_path):
    _, base = run(tmp_path / "a", "spectrum")
    _, bent = run(tmp_path / "b", "spectrum", "--set", "mass_ratio=1.5")
    with open(base / "spectrum.json") as fh:
        left = json.load(fh)
    with open(bent / "spectrum.json") as fh:
        right = json.load(fh)
    assert left != right
    assert right["configured"]["qutrit"] is True


def test_manifest_contents(tmp_path):
    _, out = run(tmp_path, "spectrum")
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["scenario"] == "spectrum"
    assert manifest["package"] == "slowsound"
    assert manifest["version"] == slowsound.__version__
    assert manifest["parameters"]["mass_ratio"] == 1.56
    assert manifest["notes"]["formats"] == ["csv", "json", "svg"]
    on_disk = sorted(n for n in os.listdir(out) if n != "manifest.json")
    assert manifest["outputs"] == on_disk


@pytest.mark.parametrize("delta_mode", ["track", "fixed"])
def test_groupvel_below_threshold_says_why(tmp_path, delta_mode):
    # with no transparency window the quoted minimum falls back to zero
    # detuning, where v_g is flagged: the JSON must say so, not just null
    summaries = []
    for name, extra in (("ref", []), ("low", ["--set", "control_rabi_gamma0=0.1"])):
        code, out = run(tmp_path / name, "groupvel", "--format", "json",
                        "--delta-mode", delta_mode, *extra)
        assert code == 0
        with open(out / "groupvel.json") as fh:
            summaries.append(json.load(fh))
    ref, low = summaries
    assert sorted(low) == sorted(ref)
    assert low["min_vg_over_cs"] is None
    assert low["vg_um_per_s_computed"] is None
    assert "no induced transparency" in low["minimum_domain"]
    assert "zero detuning is flagged" in low["minimum_domain"]
