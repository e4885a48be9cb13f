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
for a fixed seed. Each subcommand is one row function, called once per
(H, N) cell; its rows are written and flushed as the cell finishes, so a
run that fails keeps every cell before the failure. Exit codes: 0 success
(also when the reader of stdout closes it early), 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import time
from typing import Any

import numpy as np

from .bounds import (
    borovkov_bounds,
    bounds_report,
    limit_integral,
    sudakov_lower_bound,
    sudakov_maximizer,
)
from .clark import clark_expected_max, fbm_vector_spec
from .errors import NumericalError
from .fbm import average_second_moment
from .montecarlo import (
    SampleSummary,
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
#: Subcommands that read --samples and --seed.
SAMPLING_COMMANDS = ("table1", "table2", "table3", "figures", "simulate", "limit")
#: Largest grid Clark's O(N^2) recursion runs on without --force-large-clark.
CLARK_MAX_POINTS = 2 ** 17


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


def _int_arg(flag: str, low: int, high: int | None = None):
    """An argparse type: an integer in [low, high], or at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"lie in [{low}, {high}]" if high is not None else f"be >= {low}"
            raise argparse.ArgumentTypeError(f"{flag} must {bound}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


# -- one row function per subcommand: (args, hurst, exponent) -> rows -----------


def _cell(hurst: float | None, exponent: int) -> dict[str, Any]:
    """The columns that name a cell: H (when the command has one), J and N."""
    row = {} if hurst is None else {"h": hurst}
    return row | {"n_exp": exponent, "n": 2 ** exponent}


def _pair(name: str, value: float | None) -> dict[str, Any]:
    if value is None:
        return {f"{name}_4dp": "", name: None}
    return {f"{name}_4dp": f"{value:.4f}", name: float(value)}


def _mc_pairs(stats: SampleSummary) -> dict[str, Any]:
    # keep ** 0.5: math.sqrt rounds some doubles differently and would change mc_se bytes
    return _pair("mc_mean", stats.mean) | _pair("mc_se", (stats.variance / stats.count) ** 0.5)


def _table1_rows(args, hurst: float, exponent: int) -> list[dict]:
    row = _cell(hurst, exponent)
    if args.method in (None, "mc"):
        row |= _mc_pairs(summarize(args.fbm_samples(exponent)[hurst]["max"]))
    if args.method in (None, "clark"):
        if 2 ** exponent > CLARK_MAX_POINTS and not args.force_large_clark:
            row |= _pair("clark", None) | {"clark_status": "skipped"}
        else:
            value = clark_expected_max(fbm_vector_spec(2 ** exponent, hurst))
            row |= _pair("clark", value) | {"clark_status": "ok"}
    return [row]


def _iid_rows(args, hurst: None, exponent: int) -> list[dict]:
    n_points = 2 ** exponent
    sizes = TABLE2_SAMPLE_SIZES if args.samples is None else (args.samples,)
    # nested prefixes of one root stream serve every sample size
    samples = iid_limit_samples(n_points, max(sizes), args.seed)
    row = _cell(None, exponent)
    for size in sizes:
        row |= _pair(f"mean_n{size}", float(np.mean(samples[:size])))
    return [row | _pair("integral", limit_integral(n_points))]


def _table4_rows(args, hurst: float, exponent: int) -> list[dict]:
    n_star, peak = sudakov_maximizer(hurst)
    return [_cell(hurst, exponent)
            | _pair("sudakov", sudakov_lower_bound(2 ** exponent, hurst))
            | _pair("borovkov_lower", borovkov_bounds(hurst).lower)
            | {"sudakov_n_star": n_star}
            | _pair("sudakov_max", peak)]


def _figures_rows(args, hurst: float, exponent: int) -> list[dict]:
    samples = args.fbm_samples(exponent)[hurst]
    statistics = (
        ("average_mean", samples["average"], 0.0),
        ("average_second_moment", samples["average"] ** 2,
         average_second_moment(2 ** exponent, hurst)),
        ("max_mean", samples["max"], borovkov_bounds(hurst).lower),
    )
    rows = []
    for figure, (statistic, values, theory) in enumerate(statistics, start=1):
        stats = summarize(values)
        rows.append({"figure": figure, "statistic": statistic}
                    | _cell(hurst, exponent)
                    | _pair("sample", stats.mean)
                    | _pair("theory", theory)
                    | _pair("ci_low", stats.ci95_low)
                    | _pair("ci_high", stats.ci95_high))
    return rows


def _bounds_rows(args, hurst: float, exponent: int) -> list[dict]:
    row = _cell(hurst, exponent)
    for name, value in bounds_report(2 ** exponent, hurst).items():
        row |= _pair(name, value)
    return [row]


def _simulate_rows(args, hurst: float, exponent: int) -> list[dict]:
    samples = args.fbm_samples(exponent)[hurst]
    maxima, averages = samples["max"], samples["average"]
    return [_cell(hurst, exponent) | {"replication": rep}
            | _pair("max", float(maxima[rep])) | _pair("average", float(averages[rep]))
            for rep in range(args.samples)]


def _limit_rows(args, hurst: None, exponent: int) -> list[dict]:
    n_points = 2 ** exponent
    if args.method == "integral":
        return [_cell(None, exponent) | _pair("limit", limit_integral(n_points))]
    stats = run_iid_limit_experiment(n_points, args.samples, args.seed)
    return [_cell(None, exponent) | _mc_pairs(stats)]


#: name -> (row function, default H values or None without --h, default J values, help)
_COMMANDS = {
    "table1": (_table1_rows, TABLE_H_VALUES, range(8, 20),
               "expected maximum of fBm: Monte Carlo and Clark, per (H, N)"),
    "table2": (_iid_rows, None, range(8, 20),
               "iid-limit sample means vs the limit integral, N=2^8..2^19"),
    "table3": (_iid_rows, None, range(20, 26),
               "iid-limit sample means vs the limit integral, N=2^20..2^25"),
    "table4": (_table4_rows, BOUNDS_H_VALUES, range(8, 20),
               "Sudakov lower-bound grid with the analytic maximizer rows"),
    "figures": (_figures_rows, tuple(default_hurst_grid()), range(8, 20),
                "plot data: average-functional moments and max vs lower bound"),
    "bounds": (_bounds_rows, BOUNDS_H_VALUES, (20,), "full bounds report per (H, N)"),
    "simulate": (_simulate_rows, (0.5,), (10,),
                 "raw max/average functional samples per replication"),
    "limit": (_limit_rows, None, range(8, 21), "the small-H limit integral per N"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmax",
        description="Expected-maximum experiments for fractional Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, (_, default_h, _, help_text) in _COMMANDS.items():
        # no prefix matching: "--h" on a subcommand without it would mean --help
        cmd = cmds[name] = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if default_h is not None:
            cmd.add_argument("--h", dest="h_values", type=_hurst_arg, action="append",
                             metavar="H", help="Hurst index, repeatable")
        cmd.add_argument("--n-exp", dest="n_exponents", type=_int_arg("--n-exp", 0, 31),
                         action="append", metavar="J",
                         help="grid size exponent: N = 2^J, repeatable")
        if name in SAMPLING_COMMANDS:
            # on table2, no --samples means each of the published sizes
            default = None if name == "table2" else DEFAULT_SAMPLES
            cmd.add_argument("--samples", type=_int_arg("--samples", 2), default=default,
                             help="replications per cell "
                             f"(default {default or 'the published sizes'})")
            cmd.add_argument("--seed", type=_int_arg("--seed", 0), default=DEFAULT_SEED,
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rows_of, default_h, default_exponents, _ = _COMMANDS[args.command]
    h_values = [None] if default_h is None else args.h_values or default_h
    cells = itertools.product(h_values, args.n_exponents or default_exponents)
    # every H of one N shares its draws, so the first cell of an N samples them all
    args.fbm_samples = functools.cache(lambda exponent: fbm_functional_samples(
        2 ** exponent, h_values, args.samples, args.seed))
    try:  # before the first cell, so a bad path costs no computation
        output = (contextlib.nullcontext(sys.stdout) if args.out is None
                  else open(args.out, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        print(f"fbmax: invalid request: {exc}", file=sys.stderr)
        return 2
    writer = None
    try:
        with output as handle:
            for hurst, exponent in cells:
                start = time.perf_counter()
                rows = rows_of(args, hurst, exponent)
                if args.format == "json":
                    handle.writelines(json.dumps(row) + "\n" for row in rows)
                else:
                    if writer is None:
                        writer = csv.DictWriter(handle, fieldnames=list(rows[0]),
                                                lineterminator="\n")
                        writer.writeheader()
                    writer.writerows({k: "" if v is None else v for k, v in row.items()}
                                     for row in rows)
                handle.flush()  # a later failure keeps this cell
                cell = f"N=2^{exponent}" if hurst is None else f"H={hurst} N=2^{exponent}"
                print(f"[{args.command}] {cell} done in {time.perf_counter() - start:.3f} s",
                      file=sys.stderr, flush=True)
    except BrokenPipeError:  # the reader has gone, as with `| head`: stop quietly
        # so that the interpreter's final flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except NumericalError as exc:
        print(f"fbmax: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"fbmax: invalid request: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
