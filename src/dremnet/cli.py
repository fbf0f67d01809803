"""Command line interface: run, mc, check-pe, oracle, compare.

Exit codes: 0 on success, 1 on validation failures (bad config, failed
audit), 2 on I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import export_oracle_csv, moments
from .harness import (
    ScenarioError,
    _horizon,
    builtin_scenarios,
    check_scenario,
    export_csv,
    load_scenario,
    run_monte_carlo,
    run_single,
    step_rows,
    write_csv,
)
from .model import _finite

__all__ = ["main", "build_parser"]


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--scenario",
        default="sec5",
        help=f"builtin name ({', '.join(builtin_scenarios())}) or JSON config path",
    )
    sp.add_argument("--steps", type=int, default=None, help="override the scenario horizon")
    sp.add_argument("--out", default=None, help="write CSV output to this path")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dremnet",
        description="Distributed parameter estimation over directed sensor networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="simulate one seeded run")
    _add_common(sp)
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("mc", help="Monte Carlo aggregate over many seeded runs")
    _add_common(sp)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0, help="base seed; runs use seed+1..seed+M")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("check-pe", help="audit boundedness, excitation, and step sizes")
    _add_common(sp)
    sp.add_argument("--h-max", type=int, default=8, help="largest window to try")
    sp.add_argument("--omega", type=float, default=1.0, help="excitation level")
    sp.set_defaults(func=_cmd_check_pe)

    sp = sub.add_parser("oracle", help="export the analytical moment trajectories")
    _add_common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="Monte Carlo statistics vs the analytical oracle")
    _add_common(sp)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument(
        "--at",
        default=None,
        help="comma-separated checkpoint steps for the printed summary "
        "(default 10,100,500, clipped to the horizon)",
    )
    sp.set_defaults(func=_cmd_compare)
    return p


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a --steps, --runs, --workers or --h-max below its least value before any scenario loads."""
    # check-pe needs a step to scan, and compare two runs to estimate a variance
    steps, runs = (1 if args.command == "check-pe" else 0), (2 if args.command == "compare" else 1)
    for option, low in {"steps": steps, "runs": runs, "workers": 1, "h_max": 1}.items():
        value = getattr(args, option, None)
        if value is not None and value < low:
            raise ValueError(f"--{option.replace('_', '-')}: must be at least {low}, got {value}")


def _cmd_run(args: argparse.Namespace) -> int:
    s = load_scenario(args.scenario)
    result = run_single(s, args.seed, horizon=args.steps)
    print(f"scenario {args.scenario}, seed {args.seed}, horizon {result.horizon}")
    for i in range(1, s.n + 1):
        updates = int(result.effective[i - 1].sum())
        print(
            f"sensor {i}: final error {result.error_norm[i - 1, -1]:.6g}, "
            f"effective updates {updates}"
        )
    if args.out:
        export_csv(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    s = load_scenario(args.scenario)
    agg = run_monte_carlo(
        s, args.runs, args.seed, workers=args.workers, horizon=args.steps
    )
    print(
        f"scenario {args.scenario}, {agg.runs} runs, base seed {agg.base_seed}, "
        f"horizon {agg.horizon}"
    )
    probe = min(10, agg.horizon)
    for i in range(1, s.n + 1):
        print(
            f"sensor {i}: mean error {agg.mean_error_norm[i - 1, probe]:.6g} at k={probe}, "
            f"{agg.mean_error_norm[i - 1, -1]:.6g} at k={agg.horizon}"
        )
    if args.out:
        export_csv(agg, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_check_pe(args: argparse.Namespace) -> int:
    _finite((args.omega,), "--omega:", positive=True)
    s = load_scenario(args.scenario)
    report = check_scenario(s, h_max=args.h_max, omega=args.omega, horizon=args.steps)
    lines = []
    for i in range(1, s.n + 1):
        h = report.pe_h[i]
        sh = report.single_pe_h[i]
        lines.append(
            f"{i},{report.bounds[i - 1]!r},{'' if h is None else h},"
            f"{report.pe_margin[i]!r},{h is not None},{'' if sh is None else sh}"
        )
    header = "sensor,bound,local_H,local_margin,local_satisfied,single_H"
    write_csv(args.out or sys.stdout, header, lines)
    if args.out:
        print(f"wrote {args.out}")
    for problem in report.problems:
        print(f"violation: {problem}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    s = load_scenario(args.scenario)
    export_oracle_csv(moments(s, horizon=args.steps), args.out or sys.stdout)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    s = load_scenario(args.scenario)
    horizon = _horizon(s, args.steps)
    checkpoints = []  # parsed before the simulation, so a typo costs no run
    if args.at is None:  # the defaults, clipped to the horizon, each once
        checkpoints = list(dict.fromkeys(min(k, horizon) for k in (10, 100, 500)))
    for tok in filter(None, map(str.strip, (args.at or "").split(","))):
        try:
            k = int(tok)
        except ValueError:
            raise ValueError(f"--at: expected comma-separated integers, got {tok!r}") from None
        if not 0 <= k <= horizon:
            raise ValueError(f"--at: checkpoint {k} outside 0..{horizon}")
        checkpoints.append(k)
    agg = run_monte_carlo(
        s, args.runs, args.seed, workers=args.workers, horizon=args.steps
    )
    m = moments(s, horizon=args.steps)
    print(f"scenario {args.scenario}, {agg.runs} runs vs oracle, horizon {agg.horizon}")
    for k in checkpoints:
        se = np.sqrt(np.maximum(agg.var_tilde[:, k], 1e-300) / agg.runs)
        mean_gap = np.abs(agg.mean_tilde[:, k] - m.mean[:, k])
        worst_se = float(np.max(mean_gap / se))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                m.cov_exact[:, k] > 0, agg.var_tilde[:, k] / m.cov_exact[:, k], 1.0
            )
        print(
            f"k={k}: max |mean gap| {float(np.max(mean_gap)):.3e} "
            f"({worst_se:.2f} standard errors); "
            f"var/oracle in [{float(np.min(ratio)):.3f}, {float(np.max(ratio)):.3f}]"
        )
    if args.out:
        values = np.stack(
            [agg.mean_tilde, m.mean, agg.var_tilde, m.cov_exact, m.cov_bound], axis=-1
        )
        header = "k,i,l,mc_mean,oracle_mean,mc_var,oracle_var_exact,oracle_var_bound"
        write_csv(args.out, header, step_rows(values))
        print(f"wrote {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
