"""Command-line runner: ``run``, ``verify`` and ``compare-nse``.

Every command reads one config (``--override-gamma`` admits ``gamma > 2/3``).
``run`` writes ``timeseries.csv`` and ``final.bstr`` and prints the energy
budget, the excess over the closed bound included, for every forcing.

Exit codes: 0 success (all checks passed for ``verify``), 2 configuration
errors (a config path that cannot be read too), 3 blow-up, 1 everything
else, such as an error while writing outputs.  Runs are single-process and
deterministic; rerunning a config byte-reproduces its outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .diagnostics import energy_budget
from .runio import load_config, write_snapshot, write_timeseries
from .solver import BlowUpError, run, scale_keys

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bardina-strip",
        description="Filtered stream-function model on a periodic strip")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a key = value config file")
    common.add_argument("--override-gamma", action="store_true",
                        help="allow weight exponents beyond 2/3 (sharpness experiments)")

    sub.add_parser("run", parents=[common], help="integrate a configuration to t_end")
    p_verify = sub.add_parser("verify", parents=[common], help="run a property suite")
    # no choices: the suite names live in verification, which run does not import
    p_verify.add_argument("--suite", required=True,
                          help="the property suite to run; an unknown name lists them")
    p_cmp = sub.add_parser("compare-nse", parents=[common],
                           help="sweep alpha toward the unfiltered equation")
    p_cmp.add_argument("--alphas", default="0.4,0.2,0.1,0.05",
                       help="comma-separated descending alpha values")
    return parser


def _cmd_run(args, settings) -> int:
    cfg = settings.solver
    out_dir = Path(settings.output_dir)
    state, series = run(cfg)
    first, last = series.records[0], series.records[-1]
    budget = energy_budget(series)
    # the summaries that can leave the float range while every column is
    # finite, each with the keys it scales with
    for name, value, keys in (
            ("max excess over the closed bound", budget.max_excess, ("alpha", "nu", "dt")),
            ("integral of weighted dissipation", budget.dissipation_w_integral,
             ("alpha", "nu", "t_end"))):
        if math.isinf(value):
            raise ValueError(f"the {name} is {value}; it scales with "
                             f"{scale_keys(cfg, keys)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_timeseries(out_dir / "timeseries.csv", series)
    write_snapshot(out_dir / "final.bstr", state.v, state.t, cfg.alpha, cfg.nu)
    print(f"integrated to t = {state.t:.6g} ({cfg.n_steps} steps)")
    print(f"energy: {first.energy:.9g} -> {last.energy:.9g}")
    print(f"max per-record energy increase: {budget.max_energy_increase:.3e}")
    print(f"max excess over the closed bound: {budget.max_excess:.3e}")
    print(f"weighted energy: initial {budget.initial_energy_w:.9g}, "
          f"sup {budget.sup_energy_w:.9g}")
    print(f"integral of weighted dissipation: {budget.dissipation_w_integral:.9g}")
    print(f"wrote {out_dir / 'timeseries.csv'} and {out_dir / 'final.bstr'}")
    return 0


def _cmd_verify(args, settings) -> int:
    from .verification import run_suite
    report = run_suite(args.suite, settings)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_compare_nse(args, settings) -> int:
    alphas = [float(x) for x in args.alphas.split(",") if x.strip()]
    if not alphas or any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"--alphas must list alpha values in strictly descending order, "
                         f"got {args.alphas!r}")
    from .verification import compare_nse
    diffs, slope = compare_nse(settings.solver, alphas)
    print("alpha    |v_alpha(T) - v_0(T)|")
    for a, d in zip(alphas, diffs):
        print(f"{a:<8g} {d:.9e}")
    if slope == slope:  # not NaN
        print(f"log-log slope: {slope:.4f}")
    return 0


_COMMANDS = {"run": _cmd_run, "verify": _cmd_verify, "compare-nse": _cmd_compare_nse}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = load_config(args.config, allow_gamma_override=args.override_gamma)
        return _COMMANDS[args.command](args, settings)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
