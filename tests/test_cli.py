import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fbmax.cli
from fbmax.bounds import borovkov_bounds, limit_integral, sudakov_lower_bound
from fbmax.clark import clark_expected_max, fbm_vector_spec
from fbmax.cli import default_hurst_grid, main
from fbmax.errors import QuadratureError
from fbmax.montecarlo import fbm_functional_samples, iid_limit_samples


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
            # --samples >= 2 and --seed >= 0 are checked by the parser
            ["simulate", "--samples", "1"],
            ["table2", "--seed", "-1"],
            ["limit", "--method", "integral", "--samples", "1"],
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

    def test_mc_se_is_the_pow_form(self, capsys):
        # at this seed math.sqrt of variance / count gives 0.03645831451416403
        code, out = run_cli(capsys, ["limit", "--method", "mc", "--n-exp", "4",
                                     "--samples", "100", "--seed", "2502"])
        assert code == 0
        assert read_csv(out)[0]["mc_se"] == "0.036458314514164036"


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
        expected = clark_expected_max(fbm_vector_spec(256, 0.09))
        assert float(row["clark"]) == pytest.approx(expected, rel=1e-12)
        assert abs(float(row["mc_mean"]) - expected) < 6.0 * float(row["mc_se"])

    def test_clark_fills_large_grids(self, capsys):
        # the recursion is O(N log^2 N), so no grid size skips Clark
        code, out = run_cli(
            capsys, ["table1", "--h", "0.09", "--n-exp", "18", "--method", "clark"]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["clark_status"] == "ok"
        assert float(row["clark"]) == clark_expected_max(fbm_vector_spec(2 ** 18, 0.09))
        assert "mc_mean" not in row
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--method", "clark", "--n-exp", "7", "--force-large-clark"])
        assert excinfo.value.code == 2


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


class TestSharedDraws:
    """Every H of one N is sampled by one call, from the same normals."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(n_points, hursts, sample_size, master_seed):
            calls.append((n_points, list(hursts)))
            return fbm_functional_samples(n_points, hursts, sample_size, master_seed)

        monkeypatch.setattr(fbmax.cli, "fbm_functional_samples", counted)
        return calls

    def test_one_call_per_n(self, capsys, calls):
        argv = ["figures", "--h", "0.2", "--h", "0.05", "--n-exp", "6", "--n-exp", "7",
                "--samples", "10"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert calls == [(64, [0.2, 0.05]), (128, [0.2, 0.05])]
        # rows stay H-major
        assert [(r["h"], r["n_exp"]) for r in read_csv(out)[::3]] == [
            ("0.2", "6"), ("0.2", "7"), ("0.05", "6"), ("0.05", "7")]

    def test_clark_alone_never_samples(self, capsys, calls):
        argv = ["table1", "--method", "clark", "--h", "0.09", "--h", "0.01", "--n-exp", "5"]
        assert run_cli(capsys, argv)[0] == 0
        assert calls == []

    @pytest.mark.parametrize("command", ["table1", "figures", "simulate"])
    def test_duplicated_h_gives_identical_rows(self, capsys, command):
        argv = [command, "--h", "0.3", "--h", "0.3", "--n-exp", "5", "--samples", "6"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        rows = read_csv(out)
        half = len(rows) // 2
        assert half and rows[:half] == rows[half:]


class TestBoundsCommand:
    def test_full_report_row(self, capsys):
        code, out = run_cli(capsys, ["bounds", "--h", "0.05", "--n-exp", "20"])
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["borovkov_lower"]) == borovkov_bounds(0.05).lower
        assert float(row["delta_lower"]) == borovkov_bounds(0.05).lower - limit_integral(2 ** 20)
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
    def test_numerical_failure(self, capsys, monkeypatch):
        def boom(n):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(fbmax.cli, "limit_integral", boom)
        code, _ = run_cli(capsys, ["limit", "--n-exp", "8"])
        assert code == 3

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failure_keeps_finished_cells(self, capsys, monkeypatch, tmp_path, to_file):
        def fails_at_second_n(n):
            if n > 2 ** 8:
                raise QuadratureError("no convergence")
            return limit_integral(n)

        monkeypatch.setattr(fbmax.cli, "limit_integral", fails_at_second_n)
        argv = ["limit", "--n-exp", "8", "--n-exp", "9"]
        path = tmp_path / "x.csv"
        code, out = run_cli(capsys, argv + (["--out", str(path)] if to_file else []))
        assert code == 3
        written = path.read_text(encoding="utf-8") if to_file else out
        assert written == f"n_exp,n,limit_4dp,limit\n8,256,1.9989,{limit_integral(256)!r}\n"

    def test_unwritable_out_exits_2_before_any_cell(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(fbmax.cli, "limit_integral", calls.append)
        code = main(["limit", "--n-exp", "8", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("fbmax: invalid request: ")
        assert calls == []


class TestProgressLines:
    TABLE1 = ["--h", "0.09", "--h", "0.01", "--n-exp", "4", "--n-exp", "5", "--samples", "4"]
    # command -> (argv, cells, N sampled)
    CELLS = {
        "table1": (TABLE1, 4, 2),
        "table2": (["--n-exp", "4", "--n-exp", "5", "--samples", "10"], 2, 0),
        "table3": (["--n-exp", "4", "--samples", "10"], 1, 0),
        "table4": (["--h", "0.09", "--n-exp", "4", "--n-exp", "5"], 2, 0),
        "figures": (["--h", "0.09", "--n-exp", "4", "--samples", "4"], 1, 1),
        "bounds": (["--h", "0.09", "--h", "0.5", "--n-exp", "4"], 2, 0),
        "simulate": (["--h", "0.3", "--n-exp", "3", "--samples", "4"], 1, 1),
        "limit": (["--n-exp", "8", "--n-exp", "9"], 2, 0),
    }

    @pytest.mark.parametrize("command", sorted(CELLS))
    def test_one_timed_line_per_cell(self, capsys, command):
        # and one line per N for the fBm sample that every H of the N shares
        argv, n_cells, n_sampled = self.CELLS[command]
        assert main([command] + argv) == 0
        lines = capsys.readouterr().err.splitlines()
        done = re.compile(rf"\[{command}\] (H=\S+ )?N=2\^\d+ done in \d+\.\d{{3}} s")
        sampled = re.compile(rf"\[{command}\] N=2\^\d+ sampled \d+ H in \d+\.\d{{3}} s")
        assert sum(bool(done.fullmatch(line)) for line in lines) == n_cells, lines
        assert sum(bool(sampled.fullmatch(line)) for line in lines) == n_sampled, lines
        assert len(lines) == n_cells + n_sampled, lines

    def test_sampling_time_has_its_own_line(self, capsys, monkeypatch):
        # the shared sample is timed once per N, before that N's first cell line
        argv = ["table1", "--method", "mc"] + self.TABLE1
        code, unpatched = run_cli(capsys, argv)
        assert code == 0

        def slow(*args):
            time.sleep(0.3)
            return fbm_functional_samples(*args)

        monkeypatch.setattr(fbmax.cli, "fbm_functional_samples", slow)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == unpatched
        lines = captured.err.splitlines()
        for exponent in (4, 5):
            sampled = [i for i, line in enumerate(lines)
                       if line.startswith(f"[table1] N=2^{exponent} sampled 2 H in ")]
            assert len(sampled) == 1, lines
            assert float(lines[sampled[0]].split()[-2]) >= 0.3
            first_done = min(i for i, line in enumerate(lines)
                             if f"N=2^{exponent} done in" in line)
            assert sampled[0] < first_done, lines


class TestShell:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def env(self):
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")])))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["limit", "--n-exp", "8"], 0),
            (["limit", "--n-exp", "32"], 2),
            (["limit", "--n-exp", "8", "--out", "{missing}"], 2),
        ],
    )
    def test_exit_code_seen_by_the_shell(self, tmp_path, argv, expected):
        argv = [arg.format(missing=tmp_path / "missing" / "x.csv") for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "fbmax.cli", *argv], env=self.env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal would add about half a second to every CLI start
        code = "import sys, fbmax.cli; print('scipy.signal' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=self.env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_integrate_out(self):
        # scipy.integrate would add about 0.3 s and 26 MB to every CLI start
        code = "import sys, fbmax.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=self.env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_table3_default_grid_finishes(self):
        # N = 2^20..2^25 at 1000 replications each, well inside the timeout
        proc = subprocess.run([sys.executable, "-m", "fbmax.cli", "table3"], env=self.env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [int(row["n_exp"]) for row in rows] == list(range(20, 26))
        assert rows[0]["integral_4dp"] == "3.4452"

    def test_closed_pipe_exits_0(self):
        # as `fbmax simulate ... | head -1`: the reader leaves after one line
        argv = ["simulate", "--h", "0.3", "--n-exp", "3", "--samples", "20000"]
        with subprocess.Popen([sys.executable, "-m", "fbmax.cli", *argv], env=self.env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline().startswith("h,n_exp,n,replication")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, stderr
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
