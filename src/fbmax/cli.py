"""Command-line experiment runner.

Eight subcommands reproduce the published experiment grids: ``table1`` (fBm
expected-maximum estimates, Monte Carlo and Clark), ``table2``/``table3``
(iid-limit sample means against the limit integral), ``table4`` (Sudakov
bound grid with the Borovkov constant rows), ``figures`` (plot-ready data for
the average-functional moment checks and the bound-violation plot),
``bounds`` (full report per (H, N)), ``simulate`` (raw functional samples),
and ``limit`` (the limit integral alone).

Every numeric column is emitted twice: rounded to 4 decimals for comparison
against the published tables, and at full precision for numerical work.
Output is CSV (default) or JSON lines; runs are byte-for-byte reproducible
for a fixed seed. Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any, Iterable

import numpy as np

from .bounds import (
    borovkov_bounds,
    bounds_report,
    limit_integral,
    sudakov_lower_bound,
    sudakov_maximizer,
)
from .clark import CLARK_MAX_POINTS, clark_expected_max, fbm_vector_spec
from .errors import NumericalError
from .functionals import FunctionalKind, average_second_moment
from .grid import PathGrid
from .montecarlo import (
    ExperimentConfig,
    fbm_functional_samples,
    iid_limit_samples,
    run_iid_limit_experiment,
    summarize,
)

__all__ = ["main", "build_parser", "default_hurst_grid"]

DEFAULT_SEED = 12345
DEFAULT_SAMPLES = 1000
#: H columns of the published tables (largest to smallest).
TABLE_H_VALUES = (0.09, 0.01, 0.0013, 0.0001)
BOUNDS_H_VALUES = (0.5, 0.09, 0.01, 0.0013, 0.0001)
#: Replication counts of the iid-limit table.
TABLE2_SAMPLE_SIZES = (1000, 5000, 10000, 15000, 20000)
#: Subcommands that read --h, and those that read --samples and --seed.
HURST_COMMANDS = ("table1", "table4", "figures", "bounds", "simulate")
SAMPLING_COMMANDS = ("table1", "table2", "table3", "figures", "simulate", "limit")


def default_hurst_grid() -> list[float]:
    """The experiment grid {1e-4 (1+4i), i=0..24} united with {0.01 i, i=1..9}."""
    small = [1e-4 * (1 + 4 * i) for i in range(25)]
    percent = [0.01 * i for i in range(1, 10)]
    return sorted(set(small) | set(percent))


def _hurst_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"H must lie in (0, 1), got {text}")
    return value


def _n_exp_arg(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 31:
        raise argparse.ArgumentTypeError(f"n-exp must lie in [0, 31], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmax",
        description="Expected-maximum experiments for fractional Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "table1": "expected maximum of fBm: Monte Carlo and Clark, per (H, N)",
        "table2": "iid-limit sample means vs the limit integral, N=2^8..2^19",
        "table3": "iid-limit sample means vs the limit integral, N=2^20..2^25",
        "table4": "Sudakov lower-bound grid with the analytic maximizer rows",
        "figures": "plot data: average-functional moments and max vs lower bound",
        "bounds": "full bounds report per (H, N)",
        "simulate": "raw max/average functional samples per replication",
        "limit": "the small-H limit integral per N",
    }
    cmds = {}
    for name, help_text in commands.items():
        # no prefix matching: "--h" on a subcommand without it would mean --help
        cmd = cmds[name] = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name in HURST_COMMANDS:
            cmd.add_argument("--h", dest="h_values", type=_hurst_arg, action="append",
                             metavar="H", help="Hurst index, repeatable")
        cmd.add_argument("--n-exp", dest="n_exponents", type=_n_exp_arg,
                         action="append", metavar="J",
                         help="grid size exponent: N = 2^J, repeatable")
        if name in SAMPLING_COMMANDS:
            cmd.add_argument("--samples", type=int, default=None,
                             help=f"replications per cell (default {DEFAULT_SAMPLES})")
            cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                             help=f"master seed (default {DEFAULT_SEED})")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--out", default=None, metavar="PATH",
                         help="output file (default: stdout)")
    cmds["table1"].add_argument("--method", choices=("mc", "clark"), default=None,
                                help="run only one estimator (default: both)")
    cmds["table1"].add_argument("--force-large-clark", action="store_true",
                                help=f"run Clark above the {CLARK_MAX_POINTS}-point guard")
    cmds["limit"].add_argument("--method", choices=("integral", "mc"), default="integral",
                               help="quadrature or iid Monte Carlo (default: integral)")
    return parser


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _log(args: argparse.Namespace, message: str) -> None:
    print(f"[{args.command}] {message}", file=sys.stderr, flush=True)


def _samples_of(args: argparse.Namespace) -> int:
    n = DEFAULT_SAMPLES if args.samples is None else args.samples
    if n < 2:
        raise ValueError(f"--samples must be >= 2, got {n}")
    return n


def _exponents(args, default: Iterable[int]) -> list[int]:
    return args.n_exponents if args.n_exponents else list(default)


def _grids(args, default_h: Iterable[float], default_exp: Iterable[int]):
    h_values = args.h_values if args.h_values else list(default_h)
    return h_values, _exponents(args, default_exp)


def _pair(name: str, value: float | None) -> list[tuple[str, Any]]:
    if value is None:
        return [(f"{name}_4dp", ""), (name, None)]
    return [(f"{name}_4dp", _fmt(value)), (name, float(value))]


def _max_samples(args, hurst: float, n_points: int, sample_size: int) -> np.ndarray:
    config = ExperimentConfig(
        grid=PathGrid(n_points=n_points, hurst=hurst),
        sample_size=sample_size,
        master_seed=args.seed,
        functionals=frozenset({FunctionalKind.MAX}),
    )
    return fbm_functional_samples(config)[FunctionalKind.MAX]


def _cmd_table1(args) -> list[dict]:
    h_values, exponents = _grids(args, TABLE_H_VALUES, range(8, 20))
    method = args.method or "both"
    sample_size = _samples_of(args)
    rows = []
    for hurst in h_values:
        for exponent in exponents:
            n_points = 2 ** exponent
            row: list[tuple[str, Any]] = [
                ("h", hurst), ("n_exp", exponent), ("n", n_points),
            ]
            if method in ("mc", "both"):
                stats = summarize(_max_samples(args, hurst, n_points, sample_size))
                row += _pair("mc_mean", stats.mean)
                row += _pair("mc_se", (stats.variance / stats.count) ** 0.5)
            if method in ("clark", "both"):
                grid = PathGrid(n_points=n_points, hurst=hurst)
                if n_points > CLARK_MAX_POINTS and not args.force_large_clark:
                    row += _pair("clark", None)
                    row.append(("clark_status", "skipped"))
                else:
                    value = clark_expected_max(fbm_vector_spec(grid), allow_large=True)
                    row += _pair("clark", value)
                    row.append(("clark_status", "ok"))
            rows.append(dict(row))
            _log(args, f"H={hurst} N=2^{exponent} done")
    return rows


def _iid_table(args, default_exponents, sample_sizes) -> list[dict]:
    exponents = _exponents(args, default_exponents)
    rows = []
    for exponent in exponents:
        n_points = 2 ** exponent
        row: list[tuple[str, Any]] = [("n_exp", exponent), ("n", n_points)]
        # nested prefixes of one replication stream serve every sample size
        samples = iid_limit_samples(n_points, max(sample_sizes), args.seed)
        for size in sample_sizes:
            row += _pair(f"mean_n{size}", float(np.mean(samples[:size])))
        row += _pair("integral", limit_integral(n_points))
        rows.append(dict(row))
        _log(args, f"N=2^{exponent} done")
    return rows


def _cmd_table2(args) -> list[dict]:
    sizes = TABLE2_SAMPLE_SIZES if args.samples is None else (_samples_of(args),)
    return _iid_table(args, range(8, 20), sizes)


def _cmd_table3(args) -> list[dict]:
    return _iid_table(args, range(20, 26), (_samples_of(args),))


def _cmd_table4(args) -> list[dict]:
    h_values, exponents = _grids(args, BOUNDS_H_VALUES, range(8, 20))
    rows = []
    for hurst in h_values:
        lower = borovkov_bounds(hurst).lower
        n_star, peak = sudakov_maximizer(hurst)
        for exponent in exponents:
            n_points = 2 ** exponent
            row: list[tuple[str, Any]] = [("h", hurst), ("n_exp", exponent),
                                          ("n", n_points)]
            row += _pair("sudakov", sudakov_lower_bound(n_points, hurst))
            row += _pair("borovkov_lower", lower)
            row.append(("sudakov_n_star", n_star))
            row += _pair("sudakov_max", peak)
            rows.append(dict(row))
    return rows


def _cmd_figures(args) -> list[dict]:
    h_values, exponents = _grids(args, default_hurst_grid(), range(8, 20))
    sample_size = _samples_of(args)
    rows = []
    for hurst in h_values:
        for exponent in exponents:
            n_points = 2 ** exponent
            grid = PathGrid(n_points=n_points, hurst=hurst)
            config = ExperimentConfig(grid=grid, sample_size=sample_size,
                                      master_seed=args.seed)
            samples = fbm_functional_samples(config)
            cells = (
                ("average_mean", samples[FunctionalKind.AVERAGE], 0.0),
                ("average_second_moment", samples[FunctionalKind.AVERAGE] ** 2,
                 average_second_moment(grid)),
                ("max_mean", samples[FunctionalKind.MAX],
                 borovkov_bounds(hurst).lower),
            )
            for figure, (statistic, values, theory) in enumerate(cells, start=1):
                stats = summarize(values)
                row: list[tuple[str, Any]] = [
                    ("figure", figure), ("statistic", statistic),
                    ("h", hurst), ("n_exp", exponent), ("n", n_points),
                ]
                row += _pair("sample", stats.mean)
                row += _pair("theory", theory)
                row += _pair("ci_low", stats.ci95_low)
                row += _pair("ci_high", stats.ci95_high)
                rows.append(dict(row))
            _log(args, f"H={hurst} N=2^{exponent} done")
    return rows


def _cmd_bounds(args) -> list[dict]:
    h_values, exponents = _grids(args, BOUNDS_H_VALUES, (20,))
    rows = []
    for hurst in h_values:
        for exponent in exponents:
            report = bounds_report(2 ** exponent, hurst)
            row: list[tuple[str, Any]] = [("h", hurst), ("n_exp", exponent),
                                          ("n", report.n_points)]
            row += _pair("borovkov_lower", report.borovkov_lower)
            row += _pair("borovkov_upper", report.borovkov_upper)
            row += _pair("sudakov_lower", report.sudakov_lower)
            row += _pair("delta_upper", report.delta_upper)
            row += _pair("limit_integral", report.limit_integral)
            row += _pair("delta_lower", report.delta_lower)
            row += _pair("relative_error_lower", report.relative_error_lower)
            rows.append(dict(row))
    return rows


def _cmd_simulate(args) -> list[dict]:
    h_values, exponents = _grids(args, (0.5,), (10,))
    sample_size = _samples_of(args)
    rows = []
    for hurst in h_values:
        for exponent in exponents:
            n_points = 2 ** exponent
            config = ExperimentConfig(
                grid=PathGrid(n_points=n_points, hurst=hurst),
                sample_size=sample_size,
                master_seed=args.seed,
            )
            samples = fbm_functional_samples(config)
            for rep in range(sample_size):
                row: list[tuple[str, Any]] = [
                    ("h", hurst), ("n_exp", exponent), ("n", n_points),
                    ("replication", rep),
                ]
                row += _pair("max", float(samples[FunctionalKind.MAX][rep]))
                row += _pair("average", float(samples[FunctionalKind.AVERAGE][rep]))
                rows.append(dict(row))
    return rows


def _cmd_limit(args) -> list[dict]:
    exponents = _exponents(args, range(8, 21))
    rows = []
    for exponent in exponents:
        n_points = 2 ** exponent
        row: list[tuple[str, Any]] = [("n_exp", exponent), ("n", n_points)]
        if args.method == "integral":
            row += _pair("limit", limit_integral(n_points))
        else:
            stats = run_iid_limit_experiment(n_points, _samples_of(args), args.seed)
            row += _pair("mc_mean", stats.mean)
            row += _pair("mc_se", (stats.variance / stats.count) ** 0.5)
        rows.append(dict(row))
    return rows


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "figures": _cmd_figures,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "limit": _cmd_limit,
}


def _write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if out is None:
        _dump_rows(rows, fmt, sys.stdout)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        _dump_rows(rows, fmt, handle)


def _dump_rows(rows: list[dict], fmt: str, handle) -> None:
    if not rows:
        return
    if fmt == "json":
        for row in rows:
            handle.write(json.dumps(row) + "\n")
        return
    writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows = _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"fbmax: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"fbmax: invalid request: {exc}", file=sys.stderr)
        return 2
    _write_rows(rows, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
