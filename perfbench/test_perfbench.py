"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import slowsound.cli  # noqa: E402
import slowsound.numerics  # noqa: E402

BAD_OPS = [
    Op(("dispersion",)),
    Op(("spectrum", "--set", "no_such_key=1")),  # config error, exit 2
    Op(("no_such_scenario",)),  # argparse usage error, exit 2
]


def _job(ops, tmp_path):
    return {
        "ops": [[list(op.argv), op.expected] for op in ops],
        "repeat_s": 0.0,
        "outdir": str(tmp_path / "out"),
    }


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.drive_sweep(7) != workloads.drive_sweep(8)
    assert workloads.bound_states(7) != workloads.bound_states(8)
    assert workloads.reference_chain(7) == workloads.reference_chain(8)


def test_drive_sweep_draws_inside_the_qutrit_window():
    ops = workloads.drive_sweep(3)
    assert len(ops) == len(workloads.DRIVE_SCENARIOS) * workloads.DRIVE_RUNS_PER_SCENARIO
    for op in ops:
        sets = dict(a.split("=", 1) for a in op.argv if "=" in a)
        lo, hi = workloads.coupling_window(float(sets["mass_ratio"]))
        assert lo <= float(sets["coupling_ratio"]) < hi
        assert 0.1 <= float(sets["control_rabi_gamma0"]) <= 100.0


def test_drive_grid_has_one_point_per_cell_and_per_fine_stratum():
    rows, cols = workloads.DRIVE_GRID
    n = rows * cols
    points = workloads._grid(workloads.random.Random(5), rows, cols)
    assert sorted((int(x * rows), int(y * cols)) for x, y in points) == [
        (i, j) for i in range(rows) for j in range(cols)
    ]
    assert sorted(int(x * n) for x, _ in points) == list(range(n))
    assert sorted(int(y * n) for _, y in points) == list(range(n))


def test_usual_time_reads_the_usual_speed_past_fast_spells():
    assert worker.usual_time([0.7]) == 0.7
    assert worker.usual_time([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    # Half the executions met a spell 1.8 times as fast.
    assert worker.usual_time([0.055] * 4 + [0.099] * 4) == 0.099


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, unit, *_ in tracing.PER_LAYER
    }
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_every_metric_is_printed_with_a_unit(monkeypatch, capsys):
    monkeypatch.setattr(run, "generate", lambda name, seed: BAD_OPS)
    for trace, table in ((0, run.END_TO_END), (1, {n: u for n, u, *_ in tracing.PER_LAYER})):
        argv = ["--workload", "drive_sweep", "--seed", "0", "--seconds", "0.1",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        out = capsys.readouterr().out
        result = _last_json(out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == table
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        for name, unit in table.items():
            assert f"{name} = " in out and unit in out


def test_known_bad_argv_counts_as_failed_and_does_not_crash(tmp_path):
    result = worker.run_job(_job(BAD_OPS, tmp_path), slowsound.cli)
    summary = run.summarize(BAD_OPS, result)
    assert summary["attempted"] == 3
    assert [(i, code) for i, code, _ in summary["failures"]] == [(1, 2), (2, 2)]
    assert "no_such_key" in summary["failures"][0][2]
    assert all(ok for _, _, ok, _ in summary["check_rows"])
    assert os.listdir(tmp_path / "out") == []


def test_light_runs_repeat_within_the_budget(tmp_path):
    ops = [Op(("spectrum",)), Op(("spectrum", "--set", "no_such_key=1"))]
    job = {**_job(ops, tmp_path), "repeat_s": 0.2}
    calls = []

    class Cli:
        @staticmethod
        def main(argv):
            calls.append(argv[0])
            return slowsound.cli.main(argv)

    result = worker.run_job(job, Cli)
    assert len(calls) > 2
    assert result["wall"] == sum(elapsed for _, _, elapsed, _ in result["records"])
    assert [code for _, code, _, _ in result["records"]] == [0, 2]


def test_nan_in_a_column_fails_passivity(tmp_path):
    with open(tmp_path / "susceptibility.csv", "w") as fh:
        fh.write("detuning,im_chi\n0,1\n1,nan\n2,2\n")
    (row,) = checks._susceptibility(str(tmp_path), True)
    assert row[1] is False


def test_criterion_9a_is_reported_not_gated(tmp_path):
    nu = 1.18
    ladder = [-((nu - n) ** 2) / (2.0 * 1.56) for n in range(2)]
    states = [
        {"n": 0, "energy": ladder[0], "energy_ladder": ladder[0],
         "energy_relative_error": 0.0, "overlap_with_analytic": 1.0},
        {"n": 1, "energy": ladder[1] * (1 - 1.23e-3), "energy_ladder": ladder[1],
         "energy_relative_error": 1.23e-3, "overlap_with_analytic": 0.9996},
    ]
    with open(tmp_path / "eigenstates.json", "w") as fh:
        json.dump({"nu": nu, "states": states}, fh)
    rows = {name: status for name, status, _ in checks._eigenstates(str(tmp_path), False)}
    assert rows == {
        "eigenstate_0_ladder_default_budget": True,
        "eigenstate_0_ladder_9a": None,
        "eigenstate_1_ladder_default_budget": True,
        "eigenstate_1_ladder_9a": None,
    }


def test_traced_self_times_sum_to_at_most_the_traced_wall(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = [Op(("dispersion",)), Op(("pulse",))]
        result = worker.run_job(_job(ops, tmp_path), slowsound.cli, tracer)
    finally:
        tracer.uninstall()
    wall = result["wall"]
    stats = tracing.Stats(tracer, wall)
    assert sum(stats.self_time.values()) <= wall
    assert all(t >= 0.0 for t in stats.self_time.values())
    assert stats.calls["cli.main"] == 2
    assert stats.calls["scenarios.pulse"] == 1
    assert stats.calls["numerics.fft"] > 0
    metrics = stats.metrics()
    assert set(metrics) == {n for n, *_ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS) <= wall


def test_missing_function_is_reported_absent_and_wrappers_are_undone():
    original = slowsound.numerics.fft
    tracer = tracing.Tracer()
    tracer.install(named=tracing.NAMED + ("numerics.no_such_function",))
    try:
        assert slowsound.numerics.fft is not original
    finally:
        tracer.uninstall()
    assert tracer.absent == ["numerics.no_such_function"]
    assert slowsound.numerics.fft is original
    stats = tracing.Stats(tracer, 1.0)
    assert stats.calls["numerics.no_such_function"] == 0
