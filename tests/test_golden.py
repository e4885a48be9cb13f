"""Byte-for-byte CLI output for a fixed seed.

Each file in ``tests/golden/`` is the stdout of one ``fbmax`` command, written
by the code before the sampler, functional and Clark refactor, with numpy 2.4.6
and scipy 1.17.1. A change that only restructures code must reproduce every
byte; a change that alters an estimator regenerates the file and says why.
``table2.csv`` and ``limit_mc.csv`` were regenerated when the iid-limit sampler
changed from drawing all N normals per replication to inverting the CDF Phi^N
of their maximum at one uniform: the same law, other draws. Their ``integral``
columns did not change. ``limit.csv``, ``bounds.csv`` and ``table2.csv`` were
regenerated when the quantile-form quadrature began to integrate the iid
sampler's own quantile (scipy's ``ndtri``) instead of a hand-written inverse
erfc: the full-precision ``limit``, ``limit_integral``, ``delta_lower`` and
``integral`` columns moved by at most 1.2e-13, and every other byte is kept.
``table1.csv`` was regenerated when Clark's recursion stopped updating the
whole correlation vector and began to form the one correlation each step
reads from running sums and an online convolution: the full-precision
``clark`` column moved by at most 1.3e-15 relative, and every other byte is
kept. ``limit.csv``, ``bounds.csv`` and ``table2.csv`` were regenerated again
when the quantile-form quadrature changed from scipy's adaptive ``quad`` to a
fixed composite Gauss-Legendre rule in s = -ln u: the full-precision
``limit``, ``limit_integral``, ``delta_lower`` and ``integral`` columns moved
by at most 1.2e-13, towards the 30-digit oracle, and every other byte is kept.

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
