"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/seeds.py --workload clark --seeds 1-10 [--seconds 25]
        [--trace 0|1] [--out summary.json]

For each metric it prints the median over the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median. Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} cells failed",
                  file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    summary = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
    for name, entry in summary.items():
        print(f"{args.workload:14s} {name:30s} median {entry['median']:12.6g} "
              f"{entry['unit']:6s} spread {entry['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
