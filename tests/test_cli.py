import csv
import io
import json
import math

import numpy as np
import pytest

import fbmax.cli
from fbmax.bounds import (
    borovkov_bounds,
    delta_lower_bound,
    limit_integral,
    sudakov_lower_bound,
)
from fbmax.clark import clark_expected_max, fbm_vector_spec
from fbmax.cli import default_hurst_grid, main
from fbmax.errors import QuadratureError
from fbmax.grid import PathGrid
from fbmax.montecarlo import iid_limit_samples


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table4", "--h", "1.5"],
            ["limit", "--n-exp", "32"],
            ["limit", "--n-exp", "-1"],
            ["nosuchcommand"],
            [],
            # each flag is registered only on the subcommands that read it
            ["limit", "--n-exp", "8", "--method", "bounds"],
            ["table1", "--n-exp", "8", "--method", "integral"],
            ["table4", "--seed", "1"],
            ["limit", "--h", "0.1"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_default_hurst_grid(self):
        grid = default_hurst_grid()
        assert len(grid) == 34
        assert grid == sorted(grid)
        assert grid[0] == 0.0001 and grid[-1] == 0.09
        assert all(0.0 < h < 1.0 for h in grid)


class TestLimitCommand:
    def test_reference_cell(self, capsys):
        code, out = run_cli(capsys, ["limit", "--n-exp", "20"])
        assert code == 0
        row = read_csv(out)[0]
        assert row["limit_4dp"] == "3.4452"
        assert float(row["limit"]) == limit_integral(2 ** 20)

    def test_default_grid_rows(self, capsys):
        code, out = run_cli(capsys, ["limit"])
        rows = read_csv(out)
        assert [int(r["n_exp"]) for r in rows] == list(range(8, 21))

    def test_mc_method(self, capsys):
        code, out = run_cli(
            capsys, ["limit", "--n-exp", "8", "--method", "mc", "--samples", "200"]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert abs(float(row["mc_mean"]) - limit_integral(256)) < 5.0 * float(row["mc_se"])


class TestFormatsAndFiles:
    ARGS = ["simulate", "--h", "0.5", "--n-exp", "3", "--samples", "5", "--seed", "9"]

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(capsys, self.ARGS)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert row["max_4dp"] == f"{float(row['max']):.4f}"

    def test_json_lines_match_csv_columns(self, capsys):
        _, csv_out = run_cli(capsys, self.ARGS)
        _, json_out = run_cli(capsys, self.ARGS + ["--format", "json"])
        header = csv_out.splitlines()[0].split(",")
        for line in json_out.splitlines():
            record = json.loads(line)
            assert list(record) == header

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(self.ARGS + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        capsys.readouterr()
        _, out = run_cli(capsys, self.ARGS)
        assert path.read_text(encoding="utf-8") == out

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        assert b"\r" not in path.read_bytes()


class TestSimulate:
    def test_single_point_mean_near_zero(self, capsys):
        _, out = run_cli(
            capsys, ["simulate", "--h", "0.5", "--n-exp", "0", "--samples", "500", "--seed", "13"]
        )
        values = np.array([float(r["max"]) for r in read_csv(out)])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean()) < 3.0 * se

    def test_max_dominates_average(self, capsys):
        _, out = run_cli(
            capsys, ["simulate", "--h", "0.2", "--n-exp", "4", "--samples", "20", "--seed", "3"]
        )
        rows = read_csv(out)
        assert len(rows) == 20
        for row in rows:
            assert float(row["max"]) >= float(row["average"])


class TestTable1:
    def test_small_cell(self, capsys):
        code, out = run_cli(
            capsys,
            ["table1", "--h", "0.09", "--n-exp", "8", "--samples", "50", "--seed", "2"],
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["clark_status"] == "ok"
        expected = clark_expected_max(fbm_vector_spec(PathGrid(n_points=256, hurst=0.09)))
        assert float(row["clark"]) == pytest.approx(expected, rel=1e-12)
        assert abs(float(row["mc_mean"]) - expected) < 6.0 * float(row["mc_se"])

    def test_clark_skipped_above_guard(self, capsys):
        code, out = run_cli(
            capsys, ["table1", "--h", "0.09", "--n-exp", "18", "--method", "clark"]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["clark_status"] == "skipped"
        assert row["clark_4dp"] == "" and row["clark"] == ""
        assert "mc_mean" not in row


class TestIidTables:
    def test_nested_prefix_means(self, capsys):
        code, out = run_cli(capsys, ["table2", "--n-exp", "8", "--seed", "4"])
        assert code == 0
        row = read_csv(out)[0]
        stream = iid_limit_samples(256, 20000, 4)
        for size in (1000, 5000, 10000, 15000, 20000):
            assert float(row[f"mean_n{size}"]) == float(np.mean(stream[:size]))
        assert row["integral_4dp"] == "1.9989"

    def test_single_sample_size_override(self, capsys):
        _, out = run_cli(capsys, ["table2", "--n-exp", "8", "--samples", "100"])
        row = read_csv(out)[0]
        assert "mean_n100" in row
        assert "mean_n1000" not in row

    def test_table3_grid(self, capsys):
        _, out = run_cli(capsys, ["table3", "--n-exp", "20", "--samples", "50"])
        row = read_csv(out)[0]
        assert row["n"] == str(2 ** 20)
        assert row["integral_4dp"] == "3.4452"


class TestTable4:
    def test_reference_cells(self, capsys):
        code, out = run_cli(capsys, ["table4", "--h", "0.0013", "--n-exp", "8"])
        assert code == 0
        row = read_csv(out)[0]
        assert row["borovkov_lower_4dp"] == "5.6998"
        assert row["sudakov_max_4dp"] == "5.6998"
        assert float(row["sudakov"]) == sudakov_lower_bound(256, 0.0013)

    def test_default_grid_shape(self, capsys):
        _, out = run_cli(capsys, ["table4"])
        rows = read_csv(out)
        assert len(rows) == 5 * 12
        assert {r["h"] for r in rows} == {"0.5", "0.09", "0.01", "0.0013", "0.0001"}


class TestFigures:
    def test_row_structure(self, capsys):
        code, out = run_cli(
            capsys, ["figures", "--h", "0.01", "--n-exp", "8", "--samples", "50", "--seed", "3"]
        )
        assert code == 0
        rows = read_csv(out)
        assert [(r["figure"], r["statistic"]) for r in rows] == [
            ("1", "average_mean"),
            ("2", "average_second_moment"),
            ("3", "max_mean"),
        ]
        assert rows[0]["theory_4dp"] == "0.0000"
        assert float(rows[2]["theory"]) == borovkov_bounds(0.01).lower
        for row in rows:
            assert float(row["ci_low"]) <= float(row["sample"]) <= float(row["ci_high"])


class TestBoundsCommand:
    def test_full_report_row(self, capsys):
        code, out = run_cli(capsys, ["bounds", "--h", "0.05", "--n-exp", "20"])
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["borovkov_lower"]) == borovkov_bounds(0.05).lower
        assert float(row["delta_lower"]) == delta_lower_bound(2 ** 20, 0.05)
        assert row["delta_upper_4dp"] == "11.1704"

    def test_invalid_delta_upper_left_empty(self, capsys):
        _, out = run_cli(capsys, ["bounds", "--h", "0.01", "--n-exp", "10"])
        row = read_csv(out)[0]
        assert row["delta_upper_4dp"] == "" and row["delta_upper"] == ""
        _, json_out = run_cli(
            capsys, ["bounds", "--h", "0.01", "--n-exp", "10", "--format", "json"]
        )
        assert json.loads(json_out.splitlines()[0])["delta_upper"] is None


class TestExitCodes:
    def test_bad_samples(self, capsys):
        code, _ = run_cli(capsys, ["simulate", "--samples", "1"])
        assert code == 2

    def test_numerical_failure(self, capsys, monkeypatch):
        def boom(n):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(fbmax.cli, "limit_integral", boom)
        code, _ = run_cli(capsys, ["limit", "--n-exp", "8"])
        assert code == 3
