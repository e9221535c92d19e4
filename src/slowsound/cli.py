"""Command-line entry point.

    slowsound <scenario> [--config file] [--out dir] [--format csv,json,svg]
              [--set key=value ...] [--delta-mode track|fixed] [--threads N]

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation-suite failure (the validate scenario reported FAIL rows).
main() maps them in one try with one except clause per exit code: any
ValueError (ConfigError, an --out that cannot be written, a parameter
outside the qutrit window) is a configuration error, and a NumericsError
or ArithmeticError a numerical failure.  Outputs for a given configuration
are byte-identical across reruns except for the manifest's generated_at
stamp.  On error, partially written outputs are removed.

Heavy imports happen inside main() so that --threads can pin the BLAS
thread pools before numpy first loads; the physics itself is
single-threaded and deterministic either way.
"""

from __future__ import annotations

import argparse
import os
import sys

_SCENARIO_NAMES = (
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slowsound",
        description="Slow sound in a dark-soliton gas: spectra, decay, "
        "driven response, and pulse propagation scenarios.",
    )
    parser.add_argument("scenario", choices=_SCENARIO_NAMES, help="named run to execute")
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
    parser.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="cap the numeric thread pools (results are identical regardless)",
    )
    return parser


# built once: building the parser costs several times what parsing does
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.threads is not None and args.threads >= 1:
        # the thread pools read these once, when numpy first loads below
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(args.threads)

    from slowsound.numerics import NumericsError
    from slowsound.output import OutputSink, write_manifest
    from slowsound.params import ConfigError, apply_overrides, params_from_mapping, read_config
    from slowsound.scenarios import SCENARIOS

    outdir = args.out if args.out is not None else os.path.join("out", args.scenario)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be >= 1")
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
            write_manifest(
                sink.path("manifest.json"), params, args.scenario, produced,
                extra={"formats": list(formats)},
            )
    except ValueError as exc:
        # Domain violations (parameters outside the qutrit window, opaque
        # medium, bad state indices) are configuration-class problems.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        # overflow or division by zero inside the physics at extreme inputs
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
