"""Path functionals and their exactly known moments.

Two functionals of a sampled path are studied: the maximum of the path values
and their average. The average is Gaussian with mean zero and a closed-form
second moment, which makes it a sharp correctness probe for any sampler; the
maximum is the quantity whose expectation the rest of the package estimates
and bounds.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .grid import PathGrid

__all__ = [
    "FunctionalKind",
    "REDUCTIONS",
    "average_second_moment",
]


class FunctionalKind(enum.Enum):
    MAX = "max"
    AVERAGE = "average"


#: Each functional as a reduction of sampled paths, shape (k, N) -> (k,).
REDUCTIONS = {
    FunctionalKind.MAX: lambda paths: paths.max(axis=1),
    FunctionalKind.AVERAGE: lambda paths: paths.mean(axis=1),
}


def average_second_moment(grid: PathGrid) -> float:
    """E[(average functional)^2] in closed form.

    Summing the covariance matrix of path values over both indices collapses,
    for the uniform grid, to N^{-(2H+2)} sum_{i=1..N} i^{2H+1}. The sum is
    accumulated with math.fsum so the relative error stays far below 1e-12
    even for N around 2**20.
    """
    n = grid.n_points
    exponent = 2.0 * grid.hurst + 1.0
    powers = np.arange(1, n + 1, dtype=float) ** exponent
    total = math.fsum(powers)
    return float(n) ** (-(2.0 * grid.hurst + 2.0)) * total
