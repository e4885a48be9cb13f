"""Clark's sequential moment-matching approximation of E max of a Gaussian vector.

The exact first two moments of max{xi, eta} for a bivariate Gaussian pair, and
the correlation of that max with any third Gaussian variable, admit closed
forms. Absorbing one coordinate at a time while pretending the running maximum
stays Gaussian gives an O(N^2) deterministic approximation of
E max{xi_1, ..., xi_N}. Coordinates are absorbed in ascending index order.

Two numerical safeguards: updated correlations are clamped to [-1, 1], and a
zero-variance running maximum short-circuits to the larger mean; both events
are tallied in the result diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import PathGrid
from .special import norm_cdf, norm_pdf

__all__ = [
    "CLARK_MAX_POINTS",
    "GaussianVectorSpec",
    "ClarkDiagnostics",
    "ClarkResult",
    "fbm_vector_spec",
    "clark_pair_moments",
    "clark_correlation_update",
    "run_clark_recursion",
    "clark_expected_max",
]

#: Default refusal threshold for the O(N^2) recursion.
CLARK_MAX_POINTS = 2 ** 17


@dataclass(frozen=True)
class GaussianVectorSpec:
    """A Gaussian vector given by its moments as arrays.

    ``mean`` and ``variance`` hold one entry per coordinate; variances must be
    strictly positive. ``cross_covariance(k)`` returns the covariances
    Cov(x_k, x_j) for j = k+1, ..., size-1, the row the recursion needs when
    it absorbs coordinate k.
    """

    mean: np.ndarray
    variance: np.ndarray
    cross_covariance: Callable[[int], np.ndarray]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if len(self.variance) != self.size:
            raise ValueError(
                f"{len(self.variance)} variances do not match {self.size} means"
            )

    @property
    def size(self) -> int:
        return len(self.mean)


def fbm_vector_spec(grid: PathGrid) -> GaussianVectorSpec:
    """Spec of (B(1/N), ..., B(N/N)); index i refers to time (i+1)/N.

    Cov(B(s), B(t)) = 0.5 (s^{2H} + t^{2H} - |t - s|^{2H}), so row k needs
    t^{2H} at the later times and |t - s|^{2H} at lags 1, ..., N-1-k: two
    contiguous slices of precomputed powers.
    """
    n = grid.n_points
    two_h = 2.0 * grid.hurst
    pow_t = ((np.arange(n) + 1.0) / n) ** two_h
    pow_lag = (np.arange(1, n) / n) ** two_h

    def cross_covariance(k):
        return 0.5 * (pow_t[k] + pow_t[k + 1:] - pow_lag[:n - 1 - k])

    return GaussianVectorSpec(mean=np.zeros(n), variance=pow_t,
                              cross_covariance=cross_covariance)


@dataclass
class ClarkDiagnostics:
    clamp_events: int = 0
    degenerate_events: int = 0


@dataclass(frozen=True)
class ClarkResult:
    expected_max: float
    second_moment: float
    diagnostics: ClarkDiagnostics


def _pair_terms(mean1, var1, mean2, var2, cov):
    """Shared core: (mean, second moment, alpha)."""
    a_sq = var1 + var2 - 2.0 * cov
    if a_sq > 0.0:
        a = math.sqrt(a_sq)
        alpha = (mean1 - mean2) / a
    else:
        # the two variables differ by an a.s. constant; the larger mean wins
        a = 0.0
        alpha = math.inf if mean1 >= mean2 else -math.inf
    p1 = norm_cdf(alpha)
    p2 = norm_cdf(-alpha)
    g = a * norm_pdf(alpha)
    mean = p1 * mean1 + p2 * mean2 + g
    second = p1 * (mean1 * mean1 + var1) + p2 * (mean2 * mean2 + var2) + g * (mean1 + mean2)
    return mean, second, alpha


def clark_pair_moments(
    mean1: float, var1: float, mean2: float, var2: float, cov: float
) -> tuple[float, float]:
    """Exact (E max, E max^2) of a bivariate Gaussian pair.

    With a^2 = var1 + var2 - 2 cov and alpha = (mean1 - mean2)/a:

        E max   = Phi(alpha) mean1 + Phi(-alpha) mean2 + a phi(alpha)
        E max^2 = Phi(alpha) E xi^2 + Phi(-alpha) E eta^2
                  + a phi(alpha) (mean1 + mean2)
    """
    if var1 < 0.0 or var2 < 0.0:
        raise ValueError(f"variances must be nonnegative, got {var1!r}, {var2!r}")
    bound = math.sqrt(var1 * var2)
    if abs(cov) > bound * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"|cov|={abs(cov)!r} exceeds sqrt(var1*var2)={bound!r}")
    mean, second, _ = _pair_terms(mean1, var1, mean2, var2, cov)
    return mean, second


def clark_correlation_update(
    var1: float,
    corr_tau_1: np.ndarray,
    var2: float,
    corr_tau_2: np.ndarray,
    alpha: float,
    pair_moments: tuple[float, float],
    diagnostics: ClarkDiagnostics | None = None,
) -> np.ndarray:
    """Correlations of third variables tau with max{xi, eta}, elementwise.

        Corr(tau, max) = [sqrt(var1) Corr(tau,xi) Phi(alpha)
                          + sqrt(var2) Corr(tau,eta) Phi(-alpha)] / sd(max)

    ``corr_tau_1`` and ``corr_tau_2`` hold Corr(tau, xi) and Corr(tau, eta)
    for each tau. Returns zeros when the max has no variance; out-of-range
    results are clamped to [-1, 1]. Both events are tallied in
    ``diagnostics`` when provided, a clamp once per entry.
    """
    mean, second = pair_moments
    var_max = second - mean * mean
    if var_max <= 0.0:
        if diagnostics is not None:
            diagnostics.degenerate_events += 1
        return np.zeros_like(corr_tau_1)
    raw = (
        math.sqrt(var1) * corr_tau_1 * norm_cdf(alpha)
        + math.sqrt(var2) * corr_tau_2 * norm_cdf(-alpha)
    ) / math.sqrt(var_max)
    if diagnostics is not None:
        diagnostics.clamp_events += int(np.count_nonzero(np.abs(raw) > 1.0))
    return np.clip(raw, -1.0, 1.0)


def run_clark_recursion(
    spec: GaussianVectorSpec,
    allow_large: bool = False,
) -> ClarkResult:
    """Run the full recursion over spec's coordinates in ascending order.

    The state after absorbing coordinates 0..k is the approximated mean and
    second moment of their maximum, plus its correlation with each remaining
    coordinate. Memory is O(N); work is O(N^2). Sizes above CLARK_MAX_POINTS
    are refused unless ``allow_large`` is set.
    """
    n = spec.size
    if n > CLARK_MAX_POINTS and not allow_large:
        raise ValueError(
            f"size {n} exceeds the recursion guard {CLARK_MAX_POINTS}; "
            "pass allow_large=True to override"
        )
    means = np.asarray(spec.mean, dtype=float)
    variances = np.asarray(spec.variance, dtype=float)
    if np.any(variances <= 0.0):
        raise ValueError("all variances must be positive")
    sd = np.sqrt(variances)
    diagnostics = ClarkDiagnostics()

    mean_m = float(means[0])
    second_m = float(means[0] ** 2 + variances[0])
    if n > 1:
        corr = spec.cross_covariance(0) / (sd[0] * sd[1:])

    for k in range(1, n):
        var_m = max(second_m - mean_m * mean_m, 0.0)
        rho = float(corr[0])
        cov_mk = rho * math.sqrt(var_m * variances[k])
        mean, second, alpha = _pair_terms(
            mean_m, var_m, float(means[k]), float(variances[k]), cov_mk
        )
        if k < n - 1:
            corr_k_rem = spec.cross_covariance(k) / (sd[k] * sd[k + 1:])
            corr = clark_correlation_update(
                var_m, corr[1:], variances[k], corr_k_rem, alpha, (mean, second),
                diagnostics,
            )
        mean_m, second_m = mean, second

    return ClarkResult(expected_max=mean_m, second_moment=second_m, diagnostics=diagnostics)


def clark_expected_max(spec: GaussianVectorSpec, allow_large: bool = False) -> float:
    """Approximate E max of the vector; see run_clark_recursion."""
    return run_clark_recursion(spec, allow_large=allow_large).expected_max
