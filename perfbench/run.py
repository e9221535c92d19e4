"""Outside-in benchmark of the slowsound chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's command lines from the seed and runs them in one fresh worker
process through `slowsound.cli.main(argv)`, with BLAS/OpenMP pinned to one
thread and outputs in a scratch directory that is removed afterwards.  It
checks the outputs of every successful run (checks.py) and prints a report
whose last line is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of a separate traced pass with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from worker import MIN_OP_S, usual_time
from workloads import WARMUP, WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_IMPORT = "import slowsound.cli, slowsound.scenarios"
SETUP_REPEATS = 4  # before the workload, and again after it
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

# name -> unit; the order in which they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha(root=ROOT):
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker_env():
    """Environment for child interpreters: one BLAS/OpenMP thread, src first."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, repeats=SETUP_REPEATS, warm=False):
    """Wall times of fresh interpreters importing the CLI and scenarios.

    With warm, one untimed import first fills the bytecode cache, which
    users also have, unless the environment forbids writing it
    (PYTHONDONTWRITEBYTECODE); then every sample includes compiling the
    sources.  No timeout: waiting with one makes subprocess poll in steps
    of up to 50 ms.
    """
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    if warm:
        subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_workers(ops, seconds, traces, env, label):
    """Run the operations in one fresh worker per entry of traces, side by side.

    Each worker traces when its entry is true.  A lone worker spends
    `seconds` on repeating operations (worker.run_job); workers side by
    side run each operation once.  Returns the workers' result dicts in order.
    """
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH)
    procs, results = [], []
    try:
        for n, trace in enumerate(traces):
            job = {
                "ops": [[list(op.argv), op.expected] for op in ops],
                "warmup": [[list(op.argv), op.expected] for op in WARMUP],
                "repeat_s": seconds if len(traces) == 1 else 0.0,
                "trace": bool(trace),
                "outdir": os.path.join(tmp, f"out{n}"),
                "result": os.path.join(tmp, f"result{n}.json"),
                "spans": os.path.join(SCRATCH, f"spans-{label}.jsonl"),
            }
            job_path = os.path.join(tmp, f"job{n}.json")
            with open(job_path, "w") as fh:
                json.dump(job, fh)
            results.append(job["result"])
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), job_path]
            procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL))
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        for proc in procs:
            try:
                code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired as exc:
                raise BenchmarkError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
            if code != 0:
                raise BenchmarkError(f"worker exited with code {code}")
        loaded = []
        for path in results:
            with open(path) as fh:
                loaded.append(json.load(fh))
        return loaded
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def tail_latency(samples):
    """(label, value): the highest percentile with TAIL_MIN_BEYOND runs beyond it.

    With too few runs for any percentile the slowest run is reported.
    """
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return "max", max(samples)


def summarize(ops, result):
    """End-to-end figures of an untraced worker result (all but setup_s)."""
    failures = [(i, code, msg) for i, code, _, msg in result["records"]
                if code != ops[i].expected]
    ok = [elapsed for i, code, elapsed, _ in result["records"] if code == ops[i].expected]
    if not ok:
        raise BenchmarkError("no run succeeded, so no latency can be reported")
    tail_label, tail = tail_latency(ok)
    return {
        "metrics": {
            "wall_s": result["wall"],
            "ok_per_s": len(ok) / result["wall"],
            "op_p50_s": statistics.median(ok),
            "op_tail_s": tail,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "tail_label": tail_label,
        "attempted": len(result["records"]),
        "failures": failures,
        "check_rows": result["checks"],
    }


def _shape(message):
    return re.sub(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?", "#", message)


def print_failures(ops, failures, check_rows):
    failed_checks = [row for row in check_rows if row[2] is False]
    gated = sum(1 for row in check_rows if row[2] is not None)
    print(f"fail_frac {len(failures) / len(ops):.4f} ({len(failures)} of {len(ops)} runs); "
          f"check_fail {len(failed_checks)} of {gated} checks")
    groups = {}
    for i, code, message in failures:
        key = (ops[i].scenario, code, _shape(message))
        groups[key] = groups.get(key, 0) + 1
    for (scenario, code, shape), count in sorted(groups.items(), key=lambda kv: -kv[1]):
        print(f"  {count:4d} x exit {code} {scenario}: {shape}")
    for i, code, message in failures:
        print(f"  failed run {i} ({ops[i].scenario}) exit {code}: {message}")
    for i, name, _, detail in failed_checks:
        print(f"  failed check {name} on run {i} ({ops[i].scenario}): {detail}")
    for i, name, status, detail in check_rows:
        if status is None:
            print(f"  reported, not gated: {name} on run {i} ({ops[i].scenario}): {detail}")


def print_trace(workload, trace):
    metrics = trace["metrics"]
    units = {name: (unit, moves) for name, unit, _, moves, _ in tracing.PER_LAYER}
    for name, value in metrics.items():
        unit, moves = units[name]
        print(f"{name} = {value:.6g} {unit}  [moves {moves}]")
    print(f"spans recorded: {trace['spans']}; absent: {', '.join(trace['absent']) or 'none'}")
    print("largest self times: " + ", ".join(f"{n} {t:.3f} s" for n, t in trace["top_self"]))
    share, never = tracing.PREDICTIONS[workload]
    verdict = "confirmed" if metrics[share] >= 0.5 else "refuted"
    print(f"prediction: {share} >= 0.5 on {workload}: {verdict} ({metrics[share]:.3f})")
    for name in never:
        calls = trace["calls"].get(name, 0)
        print(f"prediction: no calls to {name} on {workload}: "
              + ("confirmed" if calls == 0 else f"refuted ({calls} calls)"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "slowsound", "cli.py")):
        print(f"no slowsound source under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    ops = generate(args.workload, args.seed)
    env = worker_env()
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} runs per pass; "
          f"git {git_sha()}; nproc {nproc()}; "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    try:
        if args.trace:
            # The untraced pass runs beside the traced one, on another CPU when
            # there is one, so that the overhead costs no extra run time.
            result, untraced = run_workers(ops, args.seconds, (True, False), env, label)
            metrics = result["trace"]["metrics"]
            metrics["trace.overhead_s"] = result["wall"] - untraced["wall"]
            print_trace(args.workload, result["trace"])
            summary = summarize(ops, result)
        else:
            # Set-up samples before and after the workload, so that they do
            # not all fall into one spell of the machine's speed.
            setup_samples = measure_setup(env, warm=True)
            (result,) = run_workers(ops, args.seconds, (False,), env, label)
            setup_samples += measure_setup(env)
            summary = summarize(ops, result)
            metrics = {"setup_s": usual_time(setup_samples), **summary["metrics"]}
            print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_samples))
            print(f"latencies: upper quartile of each run's executions; runs repeat until they "
                  f"have taken {MIN_OP_S:g} s, within {args.seconds:g} s of repetitions; "
                  f"op_tail_s is the {summary['tail_label']} of "
                  f"{summary['attempted'] - len(summary['failures'])} successful runs")
            for name, unit in END_TO_END.items():
                print(f"{name} = {metrics[name]:.6g} {unit}")
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"python {result['environment']['python']}, numpy {result['environment']['numpy']}")
    print_failures(ops, summary["failures"], summary["check_rows"])
    check_fail = sum(1 for row in summary["check_rows"] if row[2] is False)
    units = {n: u for n, u, _, _, _ in tracing.PER_LAYER} if args.trace else END_TO_END
    print(json.dumps({
        "correct": check_fail == 0,
        "attempted": summary["attempted"],
        "failed": len(summary["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
