"""Byte-for-byte CLI output for a fixed seed.

Each file in ``tests/golden/`` is the stdout of one ``fbmax`` command, written
by the code before the sampler, functional and Clark refactor, with numpy 2.4.6
and scipy 1.17.1. A change that only restructures code must reproduce every
byte; a change that alters an estimator regenerates the file and says why.

Regenerate one file with, for example::

    PYTHONPATH=src python -m fbmax.cli limit --n-exp 8 --n-exp 20 > tests/golden/limit.csv
"""

from pathlib import Path

import pytest

from fbmax.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "table1": ["table1", "--h", "0.09", "--h", "0.0001", "--n-exp", "6", "--n-exp", "9",
               "--samples", "40", "--seed", "7"],
    "figures": ["figures", "--h", "0.0001", "--h", "0.05", "--n-exp", "7",
                "--samples", "30", "--seed", "7"],
    "simulate": ["simulate", "--h", "0.3", "--n-exp", "5", "--samples", "6", "--seed", "7"],
    "table2": ["table2", "--n-exp", "8", "--samples", "50", "--seed", "7"],
    "limit": ["limit", "--n-exp", "8", "--n-exp", "20"],
    "limit_mc": ["limit", "--method", "mc", "--n-exp", "8", "--samples", "50", "--seed", "7"],
    "bounds": ["bounds", "--h", "0.05", "--n-exp", "10", "--n-exp", "20"],
    "table4": ["table4", "--h", "0.0013", "--n-exp", "8"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_file(name, capsysbinary):
    assert main(GOLDEN[name]) == 0
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert capsysbinary.readouterr().out == expected
