"""One pass of a benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --launched T [--run-id ID] [--spans-out PATH]

``--launched`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so ``setup_s`` runs from process start until
``fbmax.cli`` is imported. The pass prints one JSON object on stdout.
"""

import sys
import time
from pathlib import Path

# Everything else is imported after ``fbmax.cli``, so that ``setup_s`` times
# the package's import and not the benchmark's.

ROOT = Path(__file__).resolve().parents[1]


def _import_cli() -> float:
    """Import the checkout's ``fbmax.cli``; return the monotonic time after."""
    sys.path.insert(0, str(ROOT / "src"))
    import fbmax.cli

    ready = time.monotonic()
    if not Path(fbmax.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fbmax imported from {fbmax.cli.__file__}, not {ROOT / 'src'}")
    return ready


def run_pass(workload, seed: int, timed: bool, run_id: str):
    """Run one workload's CLI calls and check them.

    Returns the checks' ``Outcome``, the wall time from the first ``cli.main``
    call until the last one returns, and the ``Recorder`` of the pass.
    """
    from spans import Recorder

    recorder = Recorder(run_id, timed)
    recorder.install()
    try:
        calls = workload.calls(seed)
        start = time.perf_counter()
        outputs = [recorder.run_cli(argv) for argv in calls]
        wall_s = time.perf_counter() - start
    finally:
        recorder.uninstall()
    return workload.check(outputs, recorder.clark_diagnostics), wall_s, recorder


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv: list[str], ready: float) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--run-id", default="pass")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import json
    import resource

    from spans import layer_metrics
    from workloads import WORKLOADS

    outcome, wall_s, recorder = run_pass(WORKLOADS[args.workload], args.seed,
                                         bool(args.trace), args.run_id)
    result = {
        "setup_s": ready - args.launched,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(outcome.problems),
        "failed": outcome.failed,
        "problems": {cell: p for cell, p in outcome.problems.items() if p is not None},
        "replications": outcome.replications,
        "max_se": outcome.max_se,
        "absent": recorder.absent,
        "versions": _versions(),
        "cli_failures": recorder.failures,
    }
    if args.trace:
        result["layers"] = layer_metrics(recorder, wall_s)
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _import_cli()))
