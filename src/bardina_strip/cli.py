"""Command-line runner: ``run``, ``verify`` and ``compare-nse``.

Exit codes: 0 success (all checks passed for ``verify``), 2 configuration
errors, 3 blow-up, 1 everything else.  Runs are single-process and
deterministic; rerunning a config byte-reproduces its outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .runio import load_config, write_snapshot, write_timeseries
from .solver import BlowUpError, run
from .verification import SUITE_NAMES, compare_nse, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bardina-strip",
        description="Filtered stream-function model on a periodic strip")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configuration to t_end")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--override-gamma", action="store_true",
                       help="allow weight exponents beyond 2/3 (sharpness experiments)")

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--override-gamma", action="store_true")

    p_cmp = sub.add_parser("compare-nse",
                           help="sweep alpha toward the unfiltered equation")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--alphas", default="0.4,0.2,0.1,0.05",
                       help="comma-separated descending alpha values")
    p_cmp.add_argument("--override-gamma", action="store_true")
    return parser


def _cmd_run(args) -> int:
    settings = load_config(args.config, allow_gamma_override=args.override_gamma)
    out_dir = Path(settings.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, series = run(settings.solver)
    write_timeseries(out_dir / "timeseries.csv", series)
    write_snapshot(out_dir / "final.bstr", state.v, state.t,
                   settings.solver.alpha, settings.solver.nu)
    first, last = series.records[0], series.records[-1]
    print(f"integrated to t = {state.t:.6g} ({settings.solver.n_steps} steps)")
    print(f"energy: {first.energy:.9g} -> {last.energy:.9g}")
    print(f"wrote {out_dir / 'timeseries.csv'} and {out_dir / 'final.bstr'}")
    return 0


def _cmd_verify(args) -> int:
    settings = load_config(args.config, allow_gamma_override=args.override_gamma)
    report = run_suite(args.suite, settings)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_compare_nse(args) -> int:
    settings = load_config(args.config, allow_gamma_override=args.override_gamma)
    alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha list must be strictly descending")
    diffs, slope = compare_nse(settings.solver, alphas)
    print("alpha    |v_alpha(T) - v_0(T)|")
    for a, d in zip(alphas, diffs):
        print(f"{a:<8g} {d:.9e}")
    if slope == slope:  # not NaN
        print(f"log-log slope: {slope:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_compare_nse(args)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
