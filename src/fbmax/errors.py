"""Exception types and the argument checks that raise them."""

import math

import numpy as np


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class EmbeddingError(NumericalError):
    """Circulant embedding produced an eigenvalue too negative to clip."""


class QuadratureError(NumericalError):
    """Numerical integration did not converge or failed a cross-check."""


def check_hurst(hurst: float) -> float:
    hurst = float(hurst)
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst!r}")
    return hurst


def check_points(n: int, minimum: int = 1, maximum: int | None = None, name: str = "n") -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    if maximum is not None and n > maximum:
        raise ValueError(
            f"{name} must be <= 2^{math.log2(maximum):g}, got about 2^{math.log2(n):.6g}")
    return int(n)
