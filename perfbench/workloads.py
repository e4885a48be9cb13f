"""The benchmark's workloads: the ``fbmax`` CLI calls each one makes, and the
checks that decide whether each cell of their output is correct.

A cell is one unit of output that can be judged on its own: one (H, N) row of
``table1``, the three rows ``figures`` writes for one H, or one row of
``limit``. The checks are statistical or compare against values the seed
commit produced (``reference/``); they never compare byte digests, so an
estimator that draws differently still passes. References for the bounds are
computed here from their closed forms, not through the package under test.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: H columns of the published tables.
TABLE_H = (0.09, 0.01, 0.0013, 0.0001)
#: The CLI's default ``figures`` grid, {1e-4 (1+4i)} united with {0.01 i}.
FIGURES_H = tuple(sorted({1e-4 * (1 + 4 * i) for i in range(25)}
                         | {0.01 * i for i in range(1, 10)}))

TABLE1_MC_EXP, TABLE1_MC_SAMPLES = 14, 500
FIGURES_EXP, FIGURES_SAMPLES = 10, 1000
CLARK_EXPS = (12, 13)
IID_EXP, IID_SAMPLES = 16, 2000
LIMIT_EXPS = tuple(range(8, 26))

CI95_QUANTILE = 1.96
#: Standard error every MAX-mean cell must reach in ``time_to_se_s``.
TARGET_SE = 0.01


@dataclass
class CliOutput:
    """What one ``cli.main`` call returned and wrote."""

    argv: list[str]
    code: int | None
    stdout: str
    stderr: str


@dataclass
class Outcome:
    """The verdict on one pass: one entry per cell, ``None`` when it passed."""

    problems: dict[str, str | None] = field(default_factory=dict)
    replications: int = 0
    #: Standard error of each MAX-mean cell, for ``time_to_se_s``.
    max_se: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(problem is not None for problem in self.problems.values())

    def judge(self, cell: str, test: Callable[[], str | None]) -> None:
        """Run one cell's check; an exception fails the cell, not the run."""
        try:
            self.problems[cell] = test()
        except Exception as exc:  # a malformed row must not stop the run
            self.problems[cell] = f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int], list[list[str]]]
    check: Callable[[list[CliOutput], list], Outcome]


# -- closed forms the checks compare against ---------------------------------


def sudakov_lower(n_points: int, hurst: float) -> float:
    """sqrt(ln(N+1) / (N^{2H} 2 pi ln 2)), a lower bound on E max on the grid."""
    return math.sqrt(math.log(n_points + 1.0)
                     / (n_points ** (2.0 * hurst) * 2.0 * math.pi * math.log(2.0)))


def borovkov_lower(hurst: float) -> float:
    """1 / (2 sqrt(H pi e ln 2))."""
    return 0.5 / math.sqrt(hurst * math.pi * math.e * math.log(2.0))


def average_second_moment(n_points: int, hurst: float) -> float:
    """E[(mean of B(i/N), i <= N)^2] = N^{-(2H+2)} sum_i i^{2H+1}."""
    total = math.fsum(i ** (2.0 * hurst + 1.0) for i in range(1, n_points + 1))
    return n_points ** (-(2.0 * hurst + 2.0)) * total


def _reference(name: str, key: Callable[[dict], tuple]) -> dict[tuple, dict]:
    with open(REFERENCE_DIR / name, encoding="utf-8", newline="") as handle:
        return {key(row): row for row in csv.DictReader(handle)}


def limit_reference() -> dict[int, float]:
    """``limit_integral(2^J)`` from the seed commit, keyed by J."""
    rows = _reference("limit.csv", lambda row: (int(row["n_exp"]),))
    return {key[0]: float(row["limit"]) for key, row in rows.items()}


def clark_reference() -> dict[tuple[float, int], float]:
    """Clark's value from the seed commit, keyed by (H, J)."""
    rows = _reference("clark.csv", lambda row: (float(row["h"]), int(row["n_exp"])))
    return {key: float(row["clark"]) for key, row in rows.items()}


# -- helpers ------------------------------------------------------------------


def _rows(output: CliOutput) -> list[dict]:
    if output.code != 0:
        return []
    return list(csv.DictReader(io.StringIO(output.stdout)))


def _h_flags(values) -> list[str]:
    return [flag for h in values for flag in ("--h", repr(h))]


def _exp_flags(values) -> list[str]:
    return [flag for j in values for flag in ("--n-exp", str(j))]


def _number(row: dict, column: str) -> float:
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"{column} is {value}")
    if row.get(f"{column}_4dp") not in (None, f"{value:.4f}"):
        raise ValueError(f"{column}_4dp {row[f'{column}_4dp']!r} does not round {value!r}")
    return value


def _ci_se(row: dict) -> float:
    return (_number(row, "ci_high") - _number(row, "ci_low")) / (2.0 * CI95_QUANTILE)


def _close(value: float, expected: float, rtol: float, what: str) -> str | None:
    if abs(value - expected) > rtol * abs(expected):
        return f"{what} {value!r} differs from {expected!r} by more than {rtol:g} relative"
    return None


def _missing(cell: str) -> Callable[[], str]:
    return lambda: f"no output row for {cell}"


# -- table1_mc ---------------------------------------------------------------


def table1_mc_calls(seed: int) -> list[list[str]]:
    return [["table1", "--method", "mc", *_h_flags(TABLE_H),
             *_exp_flags([TABLE1_MC_EXP]), "--samples", str(TABLE1_MC_SAMPLES),
             "--seed", str(seed)]]


def check_table1_mc(outputs: list[CliOutput], clark_diagnostics: list) -> Outcome:
    """Criterion 10's sandwich: Sudakov - 3 SE <= mean <= limit(N) + 3 SE."""
    outcome = Outcome()
    limit = limit_reference()
    rows = {(float(r["h"]), int(r["n_exp"])): r for r in _rows(outputs[0])}
    for hurst in TABLE_H:
        exponent = TABLE1_MC_EXP
        cell = f"H={hurst} N=2^{exponent}"
        row = rows.get((hurst, exponent))
        if row is None:
            outcome.judge(cell, _missing(cell))
            continue
        outcome.replications += TABLE1_MC_SAMPLES

        def test(row=row, hurst=hurst, exponent=exponent, cell=cell):
            mean, se = _number(row, "mc_mean"), _number(row, "mc_se")
            if not se > 0.0:
                return f"standard error {se!r} is not positive"
            low = sudakov_lower(2 ** exponent, hurst) - 3.0 * se
            high = limit[exponent] + 3.0 * se
            if not low <= mean <= high:
                return f"mean {mean!r} outside the sandwich [{low!r}, {high!r}]"
            outcome.max_se[cell] = se
            return None

        outcome.judge(cell, test)
    return outcome


# -- figures_small -----------------------------------------------------------


def figures_calls(seed: int) -> list[list[str]]:
    return [["figures", *_h_flags(FIGURES_H), *_exp_flags([FIGURES_EXP]),
             "--samples", str(FIGURES_SAMPLES), "--seed", str(seed)]]


def check_figures(outputs: list[CliOutput], clark_diagnostics: list) -> Outcome:
    """Average mean within 5 SE of 0 and second moment within 5 SE of theory."""
    outcome = Outcome()
    cells: dict[float, dict[str, dict]] = {}
    for row in _rows(outputs[0]):
        if int(row["n_exp"]) == FIGURES_EXP:
            cells.setdefault(float(row["h"]), {})[row["statistic"]] = row
    n_points = 2 ** FIGURES_EXP
    for hurst in FIGURES_H:
        cell = f"H={hurst!r} N=2^{FIGURES_EXP}"
        stats = cells.get(hurst)
        if stats is None:
            outcome.judge(cell, _missing(cell))
            continue
        outcome.replications += FIGURES_SAMPLES

        def test(stats=stats, hurst=hurst, cell=cell):
            average = stats["average_mean"]
            mean, se = _number(average, "sample"), _ci_se(average)
            if _number(average, "theory") != 0.0 or not abs(mean) <= 5.0 * se:
                return f"average mean {mean!r} is more than 5 SE ({se!r}) from 0"
            second = stats["average_second_moment"]
            expected = average_second_moment(n_points, hurst)
            problem = _close(_number(second, "theory"), expected, 1e-9,
                             "second-moment theory")
            if problem:
                return problem
            value, se = _number(second, "sample"), _ci_se(second)
            if not abs(value - expected) <= 5.0 * se:
                return f"second moment {value!r} is more than 5 SE ({se!r}) from {expected!r}"
            peak = stats["max_mean"]
            problem = _close(_number(peak, "theory"), borovkov_lower(hurst), 1e-12,
                             "max-mean theory")
            if problem:
                return problem
            value = _number(peak, "sample")
            if not _number(peak, "ci_low") <= value <= _number(peak, "ci_high"):
                return f"max mean {value!r} lies outside its own interval"
            outcome.max_se[cell] = _ci_se(peak)
            return None

        outcome.judge(cell, test)
    return outcome


# -- clark -------------------------------------------------------------------


def clark_calls(seed: int) -> list[list[str]]:
    return [["table1", "--method", "clark", *_h_flags(TABLE_H),
             *_exp_flags(CLARK_EXPS), "--seed", str(seed)]]


def check_clark(outputs: list[CliOutput], clark_diagnostics: list) -> Outcome:
    """The seed commit's values to a relative 1e-9, with no clamp events.

    ``clark_diagnostics`` holds what each recursion returned; it is empty when
    the boundary the benchmark observes it at no longer exists, and then the
    clamp check is skipped.
    """
    outcome = Outcome()
    reference = clark_reference()
    rows = {(float(r["h"]), int(r["n_exp"])): r for r in _rows(outputs[0])}
    clamps = sum(d.clamp_events for d in clark_diagnostics)
    for hurst in TABLE_H:
        for exponent in CLARK_EXPS:
            cell = f"H={hurst} N=2^{exponent}"
            row = rows.get((hurst, exponent))
            if row is None:
                outcome.judge(cell, _missing(cell))
                continue
            outcome.replications += 1

            def test(row=row, key=(hurst, exponent)):
                if row["clark_status"] != "ok":
                    return f"status {row['clark_status']!r}"
                if clamps:
                    return f"the recursions of this pass clamped {clamps} correlations"
                return _close(_number(row, "clark"), reference[key], 1e-9, "clark")

            outcome.judge(cell, test)
    return outcome


# -- iid_limit ---------------------------------------------------------------


def iid_limit_calls(seed: int) -> list[list[str]]:
    return [
        ["limit", "--method", "mc", *_exp_flags([IID_EXP]),
         "--samples", str(IID_SAMPLES), "--seed", str(seed)],
        ["limit", *_exp_flags(LIMIT_EXPS), "--seed", str(seed)],
    ]


def check_iid_limit(outputs: list[CliOutput], clark_diagnostics: list) -> Outcome:
    """The iid-limit mean within 4 SE of the limit integral; every limit value
    equal to the seed commit's to a relative 1e-9."""
    outcome = Outcome()
    limit = limit_reference()
    mc_rows = {int(r["n_exp"]): r for r in _rows(outputs[0])}
    cell = f"mc N=2^{IID_EXP}"
    row = mc_rows.get(IID_EXP)
    if row is None:
        outcome.judge(cell, _missing(cell))
    else:
        outcome.replications += IID_SAMPLES

        def test():
            mean, se = _number(row, "mc_mean"), _number(row, "mc_se")
            if not se > 0.0:
                return f"standard error {se!r} is not positive"
            if not abs(mean - limit[IID_EXP]) <= 4.0 * se:
                return f"mean {mean!r} is more than 4 SE ({se!r}) from {limit[IID_EXP]!r}"
            outcome.max_se[cell] = se
            return None

        outcome.judge(cell, test)
    rows = {int(r["n_exp"]): r for r in _rows(outputs[1])}
    for exponent in LIMIT_EXPS:
        cell = f"limit N=2^{exponent}"
        row = rows.get(exponent)
        if row is None:
            outcome.judge(cell, _missing(cell))
            continue
        outcome.judge(cell, lambda row=row, j=exponent:
                      _close(_number(row, "limit"), limit[j], 1e-9, "limit"))
    return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("table1_mc", table1_mc_calls, check_table1_mc),
        Workload("figures_small", figures_calls, check_figures),
        Workload("clark", clark_calls, check_clark),
        Workload("iid_limit", iid_limit_calls, check_iid_limit),
    )
}
