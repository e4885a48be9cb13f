"""Uniform simulation grid for fractional Brownian motion on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathGrid"]


@dataclass(frozen=True)
class PathGrid:
    """Uniform grid t_i = i/N, i = 1..N, together with the Hurst index.

    Parameters
    ----------
    n_points : int
        Number of grid points N (>= 1). The grid excludes t = 0, where the
        process is identically zero.
    hurst : float
        Hurst index H, strictly inside (0, 1).
    """

    n_points: int
    hurst: float

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 1:
            raise ValueError(f"n_points must be a positive integer, got {self.n_points!r}")
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst!r}")

    @property
    def times(self) -> np.ndarray:
        """Grid times (1/N, 2/N, ..., 1) as a float vector."""
        return np.arange(1, self.n_points + 1) / self.n_points
