"""End-to-end checks of the command-line entry point and its exit codes."""
import json
import os

import pytest

import slowsound
from slowsound.cli import main
from slowsound.numerics import NumericsError


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
    code, out = run(tmp_path, "spectrum", "--format", "json")
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "spectrum.json"]


def test_unknown_scenario_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--out", str(tmp_path / "x")])
    assert info.value.code == 2


def test_bad_override_value(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", "--set", "mass_ratio=banana")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", "--set", "flux_capacitor=1")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_format_listing(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", "--format", "yaml")
    assert code == 2
    assert "--format" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(
        ["spectrum", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_domain_violation_maps_to_config_error(tmp_path, capsys):
    # decay needs the three-level ladder; pushing nu below the window is
    # a configuration-class failure, and nothing may be left on disk
    code, out = run(tmp_path, "decay", "--set", "coupling_ratio=0.5")
    assert code == 2
    assert "qutrit window" in capsys.readouterr().err
    assert not os.path.isdir(out) or os.listdir(out) == []


def test_numerics_failure_cleans_partial_outputs(tmp_path, monkeypatch, capsys):
    from slowsound import scenarios

    def exploding(params, sink, formats):
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


def test_validate_reports_and_exits_four(tmp_path, capsys):
    code, out = run(tmp_path, "validate", "--format", "json")
    captured = capsys.readouterr().out
    # the battery carries three known-defect rows; they must be reported
    # as failures, never silently massaged into passes
    assert code == 4
    assert "21 pass, 3 fail, 3 report" in captured
    assert captured.count("FAIL") == 3
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("scenario", ["spectrum", "eigenstates"])
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
