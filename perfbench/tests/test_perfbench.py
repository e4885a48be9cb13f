"""Tests of the benchmark itself: the span arithmetic, the output checks, and
that the traced counts repeat exactly.

    python3 -m pytest perfbench/tests
"""

import csv
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from spans import Recorder, Span  # noqa: E402


# -- span arithmetic -----------------------------------------------------------


def _tree() -> list[Span]:
    return [
        Span(0, "cli.main", None, "r", 0.0, 10.0),
        Span(1, "montecarlo.fbm_samples", 0, "r", 1.0, 7.0),
        Span(2, "rng.stream", 1, "r", 1.5, 2.0),
        Span(3, "rng.draw", 1, "r", 2.0, 3.5),
        Span(4, "fbm.synth", 1, "r", 4.0, 6.0),
        Span(5, "montecarlo.summarize", 0, "r", 8.0, 9.0),
    ]


def test_self_time_subtracts_children():
    own = spans.self_times(_tree())
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 0.5, 3: 1.5, 4: 2.0, 5: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [Span(0, "cli.main", None, "r", 0.0, 10.0),
            Span(1, "bounds.quantile", 0, "r", 2.0, 6.0),
            Span(2, "bounds.tail", 0, "r", 5.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_layer_metrics_split_self_time_by_layer():
    rec = Recorder("r", timed=True)
    rec.spans = _tree()
    rec.counts.update({"rng.normals": 64, "clark.steps": 0})
    metrics = spans.layer_metrics(rec, wall_s=10.0)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["montecarlo.self_s"] == pytest.approx(2.0)
    assert metrics["montecarlo.summarize_s"] == pytest.approx(1.0)
    assert metrics["rng.stream_s"] == pytest.approx(0.5)
    assert metrics["rng.draw_s"] == pytest.approx(1.5)
    assert metrics["fbm.synth_s"] == pytest.approx(2.0)
    assert metrics["rng.normals"] == 64
    assert metrics["trace.self_share"] == pytest.approx(1.0)
    assert metrics["clark.step_us"] == 0.0
    assert set(metrics) == set(spans.UNITS) - {"trace.untraced_wall_s", "trace.overhead_s"}


def test_missing_boundary_is_reported_absent(monkeypatch):
    gone = spans.Boundary("fbmax.montecarlo", "_no_such_function", "fbm.synth")
    monkeypatch.setattr(spans, "BOUNDARIES", (gone,))
    rec = Recorder("r", timed=True)
    rec.install()
    rec.uninstall()
    assert rec.absent == ["fbmax.montecarlo._no_such_function"]


# -- output checks -------------------------------------------------------------


def _csv(rows: list[dict]) -> str:
    handle = io.StringIO()
    writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return handle.getvalue()


def _pair(name, value):
    return {f"{name}_4dp": f"{value:.4f}", name: repr(value)}


def _out(rows, code=0) -> wl.CliOutput:
    return wl.CliOutput([], code, _csv(rows) if rows else "", "")


def _failed(outcome) -> set[str]:
    return {cell for cell, problem in outcome.problems.items() if problem is not None}


def _table1_rows(mean_shift=0.0):
    limit = wl.limit_reference()[wl.TABLE1_MC_EXP]
    n = 2 ** wl.TABLE1_MC_EXP
    return [{"h": repr(h), "n_exp": str(wl.TABLE1_MC_EXP), "n": str(n),
             **_pair("mc_mean", limit - 0.5 + (mean_shift if h == 0.01 else 0.0)),
             **_pair("mc_se", 0.01)} for h in wl.TABLE_H]


def test_table1_check_rejects_mean_above_sandwich():
    assert _failed(wl.check_table1_mc([_out(_table1_rows())], [])) == set()
    bad = wl.check_table1_mc([_out(_table1_rows(mean_shift=0.5 + 0.04))], [])
    assert _failed(bad) == {f"H=0.01 N=2^{wl.TABLE1_MC_EXP}"}


def test_table1_check_rejects_misrounded_column():
    rows = _table1_rows()
    rows[0]["mc_mean_4dp"] = "9.9999"
    assert len(_failed(wl.check_table1_mc([_out(rows)], []))) == 1


def test_table1_check_fails_every_cell_of_a_failed_call():
    outcome = wl.check_table1_mc([_out(_table1_rows(), code=3)], [])
    assert outcome.failed == len(wl.TABLE_H)


def _figure_rows(hurst, second_shift=0.0):
    n = 2 ** wl.FIGURES_EXP
    m2 = wl.average_second_moment(n, hurst)
    half = wl.CI95_QUANTILE * 0.01
    cells = (("average_mean", 0.001, 0.0),
             ("average_second_moment", m2 + second_shift, m2),
             ("max_mean", 1.0, wl.borovkov_lower(hurst)))
    return [{"figure": str(i), "statistic": name, "h": repr(hurst),
             "n_exp": str(wl.FIGURES_EXP), "n": str(n), **_pair("sample", sample),
             **_pair("theory", theory), **_pair("ci_low", sample - half),
             **_pair("ci_high", sample + half)}
            for i, (name, sample, theory) in enumerate(cells, start=1)]


def test_figures_check_rejects_second_moment_off_by_six_se():
    target = wl.FIGURES_H[5]
    good = [row for h in wl.FIGURES_H for row in _figure_rows(h)]
    assert _failed(wl.check_figures([_out(good)], [])) == set()
    bad = [row for h in wl.FIGURES_H
           for row in _figure_rows(h, second_shift=0.06 if h == target else 0.0)]
    assert _failed(wl.check_figures([_out(bad)], [])) == {
        f"H={target!r} N=2^{wl.FIGURES_EXP}"}


def _clark_rows(scale=1.0):
    with open(wl.REFERENCE_DIR / "clark.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    rows[0].update(_pair("clark", float(rows[0]["clark"]) * scale))
    return rows


class _Diagnostics:
    def __init__(self, clamps):
        self.clamp_events, self.degenerate_events = clamps, 0


def test_clark_check_rejects_a_relative_change_of_1e_6():
    assert _failed(wl.check_clark([_out(_clark_rows())], [_Diagnostics(0)])) == set()
    assert len(_failed(wl.check_clark([_out(_clark_rows(1.0 + 1e-6))], []))) == 1


def test_clark_check_rejects_clamp_events():
    outcome = wl.check_clark([_out(_clark_rows())], [_Diagnostics(0), _Diagnostics(2)])
    assert outcome.failed == len(wl.TABLE_H) * len(wl.CLARK_EXPS)


def _iid_outputs(mean_shift=0.0, limit_scale=1.0):
    limit = wl.limit_reference()
    mc = [{"n_exp": str(wl.IID_EXP), "n": str(2 ** wl.IID_EXP),
           **_pair("mc_mean", limit[wl.IID_EXP] + mean_shift), **_pair("mc_se", 0.01)}]
    values = [{"n_exp": str(j), "n": str(2 ** j),
               **_pair("limit", limit[j] * (limit_scale if j == 20 else 1.0))}
              for j in wl.LIMIT_EXPS]
    return [_out(mc), _out(values)]


def test_iid_check_rejects_mean_five_se_off():
    assert _failed(wl.check_iid_limit(_iid_outputs(), [])) == set()
    assert _failed(wl.check_iid_limit(_iid_outputs(mean_shift=0.05), [])) == {
        f"mc N=2^{wl.IID_EXP}"}


def test_iid_check_rejects_changed_limit_value():
    bad = wl.check_iid_limit(_iid_outputs(limit_scale=1.0 + 1e-8), [])
    assert _failed(bad) == {"limit N=2^20"}


# -- traced passes ---------------------------------------------------------------

SMALL = wl.Workload("small", lambda seed: [
    ["table1", "--method", "mc", "--h", "0.01", "--n-exp", "9", "--samples", "8",
     "--seed", str(seed)],
    ["figures", "--h", "0.05", "--n-exp", "6", "--samples", "6", "--seed", str(seed)],
    ["table1", "--method", "clark", "--h", "0.01", "--n-exp", "7"],
    ["limit", "--method", "mc", "--n-exp", "10", "--samples", "4", "--seed", str(seed)],
], lambda outputs, diagnostics: wl.Outcome())

COUNTS = ("rng.streams", "rng.normals", "fbm.embed_points", "fbm.fft_points",
          "fbm.synth_bytes_computed", "montecarlo.paths", "clark.cells", "clark.steps")


def test_counts_repeat_exactly_across_traced_passes():
    import fbmax.montecarlo

    original = fbmax.montecarlo.build_embedding
    runs = []
    for run_id in ("a", "b"):
        _, wall_s, rec = worker.run_pass(SMALL, 7, True, run_id)
        assert rec.failures == [] and rec.absent == []
        runs.append(spans.layer_metrics(rec, wall_s))
    assert fbmax.montecarlo.build_embedding is original
    for name in COUNTS:
        assert runs[0][name] == runs[1][name] > 0, name
    assert runs[0]["trace.self_share"] == pytest.approx(1.0, abs=0.05)


def test_untimed_pass_records_no_spans():
    _, _, rec = worker.run_pass(SMALL, 7, False, "u")
    assert rec.spans == [] and rec.counts["clark.cells"] == 1


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "clark", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
