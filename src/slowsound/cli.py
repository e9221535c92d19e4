"""Command-line entry point.

    slowsound <scenario> [--config file] [--out dir] [--format csv,json,svg]
              [--set key=value ...] [--delta-mode track|fixed]

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-suite failure (the validate scenario reported FAIL rows).
main() maps them in one try with one except clause per exit code: a
ConfigError (a bad key or value, an --out that cannot be written, a
parameter outside the qutrit window, an opaque medium) is a configuration
error, and a NumericsError, an ArithmeticError or any other ValueError a
numerical failure.  Outputs for a given configuration are byte-identical
across reruns except for the manifest's generated_at stamp.  On error,
partially written outputs are removed.

Every run uses one BLAS/OpenMP thread, whatever the environment says: a
second thread changes the eigensolve's last digits.  main() sets the
thread variables to 1 before its heavy imports load numpy; where numpy is
already loaded (a caller's process), the pools are fixed and main() leaves
os.environ alone.
"""

from __future__ import annotations

import argparse
import os
import sys

# the scenario catalogue: scenarios.SCENARIOS runs each name by its scenario_<name>
SCENARIO_NAMES = (
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

_FORMATS = ("csv", "json", "svg")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slowsound",
        description="Slow sound in a dark-soliton gas: spectra, decay, "
        "driven response, and pulse propagation scenarios.",
    )
    parser.add_argument("scenario", choices=SCENARIO_NAMES, help="named run to execute")
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="output directory (default: out/<scenario>)",
    )
    parser.add_argument(
        "--format", metavar="LIST", default="csv,json,svg",
        help="comma-separated subset of csv,json,svg (default: all)",
    )
    parser.add_argument(
        "--set", metavar="KEY=VALUE", action="append", default=[],
        help="override a single config key (repeatable, highest precedence)",
    )
    parser.add_argument(
        "--delta-mode", choices=("track", "fixed"), default=None,
        help="two-photon detuning convention",
    )
    return parser


# built once: building the parser costs several times what parsing does
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if "numpy" not in sys.modules:
        # the thread pools read these once, when numpy first loads below
        os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))

    from slowsound.numerics import NumericsError
    from slowsound.output import OutputSink, write_manifest
    from slowsound.params import ConfigError, apply_overrides, params_from_mapping, read_config
    from slowsound.scenarios import SCENARIOS

    outdir = args.out if args.out is not None else os.path.join("out", args.scenario)
    try:
        formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
        if not formats or any(f not in _FORMATS for f in formats):
            raise ConfigError(
                f"--format must list a subset of {','.join(_FORMATS)}, got {args.format!r}"
            )
        mapping = {} if args.config is None else read_config(args.config)
        if args.delta_mode is not None:
            mapping["delta_mode"] = args.delta_mode
        mapping = apply_overrides(mapping, args.set)
        params = params_from_mapping(mapping)
        with OutputSink(outdir, formats) as sink:
            summary = SCENARIOS[args.scenario](params, sink)
            produced = list(sink.written)
            write_manifest(sink.path("manifest.json"), params, args.scenario, produced, formats)
    except ConfigError as exc:
        # Domain violations (parameters outside the qutrit window, opaque
        # medium) are configuration-class problems.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError, ValueError) as exc:
        # overflow or division by zero inside the physics at extreme
        # inputs; a ValueError past the configuration is an internal fault
        detail = exc if isinstance(exc, NumericsError) else f"{type(exc).__name__}: {exc}"
        print(f"numerical failure: {detail}", file=sys.stderr)
        return 3

    if args.scenario == "validate":
        for row in summary["rows"]:
            print(f"{row['status']:6s} {row['check']}: {row['measured']} "
                  f"[target: {row['target']}]")
        print(
            f"validate: {summary['n_pass']} pass, {summary['n_fail']} fail, "
            f"{summary['n_report']} report ({len(produced) + 1} files in {outdir})"
        )
        if summary["n_fail"]:
            return 4
    else:
        print(f"{args.scenario}: wrote {len(produced) + 1} files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
