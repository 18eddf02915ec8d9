"""Command-line entry point.

Usage:  verify <scenario>... [flags]

Scenarios: ex1a ex1b ex2 ex3 properties (or "all").  A flat key=value
config file supplies defaults for any ScenarioConfig field and for
out_path; command-line flags override the file.  Exit codes: 0 all
checks passed, 1 a check failed, 2 configuration error, 3 runtime
evaluation error, 4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import sys

from .jets import EvaluationError
from .reports import emit_report, emit_profile_tables
from .scenarios import (
    SCENARIO_NAMES,
    config_from_mapping,
    run_scenario,
    validate_config,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_EVALUATION_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Certify the counterexample constructions and their "
        "maximum-principle / convex-hull margins.",
    )
    parser.add_argument("scenarios", nargs="+", metavar="scenario",
                        help=f"one or more of {', '.join(SCENARIO_NAMES)}, or 'all'")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--n", type=int, help="source dimension (default 1)")
    parser.add_argument("--N", type=int, help="target dimension (default 2)")
    parser.add_argument("--grid", type=int, dest="grid_points",
                        help="grid points per axis (default 2001)")
    parser.add_argument("--safety", type=float, help="relative speed-bound margin (default 0.05)")
    parser.add_argument("--tol-scale", type=float, dest="residual_tol_scale",
                        help="residual tolerance as a multiple of M^3 (default 1e-8)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    parser.add_argument("--out", dest="out_path", help="write the report here instead of stdout")
    parser.add_argument("--emit-profiles", metavar="DIR",
                        help="also write (t, value) CSV tables of the profiles used")
    parser.add_argument("--seed", type=int, help="seed for the randomized property checks")
    parser.add_argument("--no-timings", action="store_true",
                        help="omit the timings section (byte-stable output)")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            if key.strip() == "scenario":
                raise ValueError(f"{path}:{lineno}: key 'scenario' is not allowed; "
                                 "name the scenarios on the command line")
            values[key.strip()] = raw.strip()
    return values


def _internal_error(exc: Exception) -> int:
    print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # every name is checked, also next to "all", which then replaces them
    unknown = [s for s in args.scenarios if s != "all" and s not in SCENARIO_NAMES]
    if unknown:
        print(f"error: unknown scenario name(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    names = list(SCENARIO_NAMES) if "all" in args.scenarios else list(args.scenarios)

    base: dict = {}
    if args.config:
        try:
            base.update(_read_config_file(args.config))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    for key in ("n", "N", "grid_points", "safety", "residual_tol_scale",
                "format", "out_path", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    # where the report goes is not part of the configuration it echoes
    out_path = base.pop("out_path", None)

    # every configuration is valid before any scenario runs
    configs = []
    for name in names:
        try:
            cfg = config_from_mapping({"scenario": name, **base})
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        errors = validate_config(cfg)
        if errors:
            for err in errors:
                print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        configs.append(cfg)

    reports = []
    for cfg in configs:
        try:
            reports.append(run_scenario(cfg))
        except EvaluationError as exc:
            print(f"error: scenario {cfg.scenario} aborted: {exc}", file=sys.stderr)
            return EXIT_EVALUATION_ERROR
        except Exception as exc:
            return _internal_error(exc)

    try:
        payload = emit_report(reports, fmt=configs[0].format, with_timings=not args.no_timings)
    except Exception as exc:
        return _internal_error(exc)
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_EVALUATION_ERROR
    else:
        sys.stdout.write(payload.decode())

    if args.emit_profiles:
        try:
            emit_profile_tables(args.emit_profiles, names, configs[0].grid_points)
        except OSError as exc:
            print(f"error: cannot write profile tables: {exc}", file=sys.stderr)
            return EXIT_EVALUATION_ERROR
        except Exception as exc:
            return _internal_error(exc)

    if all(r.overall_pass for r in reports):
        return EXIT_OK
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
