"""Benchmark of the ``fbmax`` CLI: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs one workload's CLI calls in
a fresh Python process (``worker.py``) with BLAS and OpenMP pinned to one
thread, so no cache survives from one pass to the next and every pass pays
its own set-up. Passes run one after another until ``--seconds`` is used up,
and each metric is the median over the passes. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates an untraced and a traced pass on
the same inputs and reports the per-layer metrics of the traced ones.
``--workload all`` runs every workload in turn.

Every pass's output is checked; a cell that fails its check counts in
``failed``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The passes and the
machine they ran on are also saved under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import UNITS as LAYER_UNITS
from workloads import TARGET_SE, WORKLOADS, CliOutput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_PASSES = 3
#: No pass starts once a run could not finish it within this many seconds.
RUN_LIMIT_S = 160.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "replications_per_s": "1/s",
    "time_to_se_s": "s",
    "peak_rss_mb": "MB",
    "cell_pass_ratio": "ratio",
}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine() -> dict:
    """Core count, CPU model and cache sizes of the machine."""
    model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3") and size:
            caches[f"l{level}_cache"] = size
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, **caches}


def run_pass(workload: str, seed: int, traced: bool, run_id: str, timeout: float) -> dict:
    """One pass in a fresh process; a crash or timeout fails all its cells."""
    env = {**os.environ, **SINGLE_THREAD}
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)), "--run-id", run_id]
    if traced:
        command += ["--spans-out", str(RESULTS / "spans" / f"{run_id}.jsonl.gz")]
    command += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        error = f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    spec = WORKLOADS[workload]
    cells = len(spec.check([CliOutput(a, None, "", "") for a in spec.calls(seed)], []).problems)
    return {"cells": cells, "failed": cells, "error": error}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Passes until ``seconds`` are used; with tracing, untraced/traced pairs."""
    seeds = random.Random(seed)
    passes: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 * 2 if traced else MIN_PASSES)
        if (enough and elapsed + last > seconds) or elapsed + last > RUN_LIMIT_S:
            break
        cli_seed = seeds.randrange(2 ** 31)
        began = time.monotonic()
        for timed in ((False, True) if traced else (False,)):
            run_id = f"{workload}-seed{seed}-pass{len(passes)}"
            timeout = RUN_LIMIT_S + 10.0 - (time.monotonic() - start)
            record = run_pass(workload, cli_seed, timed, run_id, timeout)
            record.update(seed=cli_seed, traced=timed)
            passes.append(record)
            if "error" in record:
                print(f"perfbench: {run_id}: {record['error']}", file=sys.stderr)
        last = time.monotonic() - began
    return passes


def end_to_end(passes: list[dict]) -> dict[str, float]:
    ok = [p for p in passes if "error" not in p and not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in ok)
    # pooled over passes: the mean squared SE of each MAX-mean cell
    se2: dict[str, list[float]] = {}
    for p in ok:
        for cell, se in p["max_se"].items():
            se2.setdefault(cell, []).append(se * se)
    worst = max((statistics.fmean(v) for v in se2.values()), default=None)
    attempted = sum(p["cells"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in ok),
        "wall_s": wall,
        "replications_per_s": statistics.median(p["replications"] / p["wall_s"] for p in ok),
        # deterministic workloads have no SE: one run is the answer
        "time_to_se_s": wall if worst is None else wall * worst / TARGET_SE ** 2,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
        "cell_pass_ratio": 1.0 - sum(p["failed"] for p in passes) / attempted,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p["layers"] for p in passes if p["traced"] and "error" not in p]
    untraced = [p["wall_s"] for p in passes if not p["traced"] and "error" not in p]
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    out["trace.untraced_wall_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def report(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; return its provenance, passes and metrics."""
    passes = measure(workload, seed, seconds, traced)
    good = [p for p in passes if "error" not in p]
    if {p["traced"] for p in good} != {False, traced}:
        raise RuntimeError(f"{workload}: no pass completed")
    metrics = per_layer(passes) if traced else end_to_end(passes)
    units = LAYER_UNITS if traced else END_TO_END_UNITS
    provenance = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(traced), "commit": git_commit(), **good[0]["versions"],
                  **machine(), "threads": 1, "passes": len(passes),
                  "absent_boundaries": good[0]["absent"]}
    return {"provenance": provenance, "passes": passes,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fbmax" / "cli.py").is_file():
        print(f"perfbench: no fbmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (RESULTS / "spans").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            record = report(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"provenance": record["provenance"]}))
        for metric, entry in record["metrics"].items():
            print(f"{name:14s} {metric:30s} {entry['value']:>16.6g} {entry['unit']}")
            metrics[metric if len(names) == 1 else f"{name}/{metric}"] = entry
        for p in record["passes"]:
            attempted += p["cells"]
            failed += p["failed"]
            for cell, problem in p.get("problems", {}).items():
                print(f"perfbench: {name} seed {p['seed']}: {cell}: {problem}",
                      file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
