"""Run one workload in this (fresh) process and write the raw results.

    PYTHONPATH=src python3 perfbench/worker.py JOB.json

The job file names the operations, the untimed warm-up runs, the time to
spend on repetitions, whether to trace, the scratch output directory and
where to write the result.  Each operation is one
call of `slowsound.cli.main(argv)`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

# An operation repeats until its executions add up to this many seconds.
MIN_OP_S = 1.0


def usual_time(samples):
    """The upper quartile of repeated timings of one deterministic task.

    On a shared 2-vCPU machine the speed switches between a usual state and
    spells up to 1.8 times as fast, lasting seconds to tens of seconds.  Over
    executions spread across a run, the upper quartile reads the usual state
    unless fast spells cover three quarters of the run; the median reads
    whichever state covered half of it, and the fastest execution whichever
    spell the run happened to meet.  (Over 25 windows of 10 s on such a machine, the
    upper quartile of a light scenario's executions spread 6% between
    windows, the median 9-17%, the fastest 40-49%.)  A single timing is
    returned as it is.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def run_op(cli, argv, outdir):
    """One command-line run; returns (exit code, seconds, first stderr line)."""
    err = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", outdir])
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped error fails the run, not the benchmark
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    elapsed = perf_counter() - start
    lines = err.getvalue().strip().splitlines()
    return code, elapsed, lines[0] if lines else ""


def run_job(job, cli, tracer=None):
    """Run the job's operations; returns the result dict (without environment).

    Every operation runs once, in order.  Operations whose executions add up
    to less than MIN_OP_S are then run again, one round at a time, until
    none is left or the repetitions have taken job["repeat_s"] seconds: one
    such round follows each operation that took MIN_OP_S or longer, and the
    remaining rounds follow the last operation.  So reference_chain's light
    scenarios repeat until they have taken 1 s each, their executions spread
    between the long runs, drive_sweep's 200 runs go two or three times, and
    the long runs (couplings, validate, eigenstates) once.

    An operation's latency is the upper quartile of its executions
    (usual_time), and wall is the sum of those latencies, which leaves the
    harness's own work between runs out.

    Each run's outputs are checked (first execution only) and deleted right
    after the run: files removed that soon are never written back to disk,
    which keeps disk traffic out of the timings.
    """
    from checks import check_outputs

    ops = [(tuple(argv), expected) for argv, expected in job["ops"]]
    first, times, checks = [], [], []
    repeat_s = 0.0

    def execute(k):
        if tracer is not None:
            tracer.run_id = k
        outdir = os.path.join(job["outdir"], f"run{k}-{len(times[k])}")
        code, elapsed, message = run_op(cli, ops[k][0], outdir)
        if not times[k] and code == ops[k][1]:
            checks.extend([k, *row] for row in check_outputs(ops[k][0], outdir))
        shutil.rmtree(outdir, ignore_errors=True)
        times[k].append(elapsed)
        return code, elapsed, message

    def owing():
        return [k for k in range(len(times)) if sum(times[k]) < MIN_OP_S]

    def repeat_round():
        nonlocal repeat_s
        for k in owing():
            if repeat_s >= job["repeat_s"]:
                return
            repeat_s += execute(k)[1]

    for k in range(len(ops)):
        times.append([])
        code, elapsed, message = execute(k)
        first.append((code, message))
        if elapsed >= MIN_OP_S:
            repeat_round()
    while owing() and repeat_s < job["repeat_s"]:
        repeat_round()
    latency = [usual_time(t) for t in times]
    records = [[k, code, elapsed, message] for k, ((code, message), elapsed)
               in enumerate(zip(first, latency))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": records, "wall": sum(latency), "checks": checks,
            "peak_rss_mb": peak_rss_mb}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import numpy

    import slowsound.cli
    # cli.main imports the scenarios lazily; importing them here keeps that
    # set-up cost (measured as setup_s) out of the first run's latency.
    import slowsound.scenarios  # noqa: F401

    for i, (argv, _) in enumerate(job["warmup"]):
        run_op(slowsound.cli, argv, os.path.join(job["outdir"], f"warmup{i}"))
    shutil.rmtree(job["outdir"], ignore_errors=True)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_job(job, slowsound.cli, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(job["spans"])
        stats = tracing.Stats(tracer, result["wall"])
        result["trace"] = {
            "metrics": stats.metrics(),
            "absent": tracer.absent,
            "calls": dict(stats.calls),
            "top_self": sorted(stats.self_time.items(), key=lambda kv: -kv[1])[:12],
            "spans": len(tracer.spans),
        }
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
