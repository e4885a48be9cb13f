"""Clark's sequential moment-matching approximation of E max of the fBm grid vector.

The exact first two moments of max{xi, eta} for a bivariate Gaussian pair, and
the correlation of that max with any third Gaussian variable, admit closed
forms. Absorbing one coordinate at a time while pretending the running maximum
stays Gaussian gives an O(N^2) deterministic approximation of
E max{xi_1, ..., xi_N}. The recursion runs on the centred vector
(B(1/N), ..., B(N/N)), given by its variances, and absorbs it in ascending
time order.

Two numerical safeguards: updated correlations are clamped to [-1, 1], and a
zero-variance running maximum short-circuits to the larger mean; both events
are tallied in the result diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_hurst, check_points

__all__ = [
    "ClarkDiagnostics",
    "ClarkResult",
    "fbm_vector_spec",
    "norm_cdf",
    "norm_pdf",
    "pair_moments",
    "clark_correlation_update",
    "run_clark_recursion",
    "clark_expected_max",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard normal CDF; full relative accuracy down to the underflow
    threshold near x = -37. Use norm_cdf(-x) for the complementary form."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    # exp underflows cleanly to 0 for |x| ~ 40, including x = +-inf
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def fbm_vector_spec(n_points: int, hurst: float) -> np.ndarray:
    """Variances v_i = ((i+1)/N)^{2H} of (B(1/N), ..., B(N/N)).

    They fix the whole covariance: Cov(B(s), B(t)) = 0.5 (v_s + v_t - v_{|t-s|}),
    and every lag |t - s| is itself a grid time.
    """
    n = check_points(n_points)
    return ((np.arange(n) + 1.0) / n) ** (2.0 * check_hurst(hurst))


@dataclass
class ClarkDiagnostics:
    clamp_events: int = 0
    degenerate_events: int = 0


@dataclass(frozen=True)
class ClarkResult:
    expected_max: float
    second_moment: float
    diagnostics: ClarkDiagnostics


def pair_moments(mean1, var1, mean2, var2, cov):
    """Exact (E max, E max^2, alpha) of a bivariate Gaussian pair.

    With a^2 = var1 + var2 - 2 cov and alpha = (mean1 - mean2)/a:

        E max   = Phi(alpha) mean1 + Phi(-alpha) mean2 + a phi(alpha)
        E max^2 = Phi(alpha) E xi^2 + Phi(-alpha) E eta^2
                  + a phi(alpha) (mean1 + mean2)
    """
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


def clark_correlation_update(
    var1: float,
    corr_tau_1: np.ndarray,
    var2: float,
    corr_tau_2: np.ndarray,
    alpha: float,
    max_moments: tuple[float, float],
    diagnostics: ClarkDiagnostics,
) -> np.ndarray:
    """Correlations of third variables tau with max{xi, eta}, elementwise.

        Corr(tau, max) = [sqrt(var1) Corr(tau,xi) Phi(alpha)
                          + sqrt(var2) Corr(tau,eta) Phi(-alpha)] / sd(max)

    ``corr_tau_1`` and ``corr_tau_2`` hold Corr(tau, xi) and Corr(tau, eta)
    for each tau, and ``max_moments`` the (E max, E max^2) of the pair.
    Returns zeros when the max has no variance; out-of-range results are
    clamped to [-1, 1]. Both events are tallied in ``diagnostics``, a clamp
    once per entry.
    """
    mean, second = max_moments
    var_max = second - mean * mean
    if var_max <= 0.0:
        diagnostics.degenerate_events += 1
        return np.zeros_like(corr_tau_1)
    raw = (
        math.sqrt(var1) * corr_tau_1 * norm_cdf(alpha)
        + math.sqrt(var2) * corr_tau_2 * norm_cdf(-alpha)
    ) / math.sqrt(var_max)
    diagnostics.clamp_events += int(np.count_nonzero(np.abs(raw) > 1.0))
    return np.clip(raw, -1.0, 1.0)


def run_clark_recursion(variances: np.ndarray) -> ClarkResult:
    """Run the full recursion over the fBm grid vector in ascending time order.

    ``variances`` is the vector ``fbm_vector_spec`` returns; the means are
    zero. The state after absorbing coordinates 0..k is the approximated mean
    and second moment of their maximum, plus its correlation with each
    remaining coordinate. Memory is O(N); work is O(N^2).
    """
    v = np.asarray(variances, dtype=float)
    n = v.size
    if n < 1 or not np.all(v > 0.0):
        raise ValueError("variances must be a non-empty vector of positive values")
    sd = np.sqrt(v)
    diagnostics = ClarkDiagnostics()

    def correlations(k):
        """Corr(x_k, x_j) for j = k+1, ..., N-1; the lags j - k are v's times."""
        return 0.5 * (v[k] + v[k + 1:] - v[:n - 1 - k]) / (sd[k] * sd[k + 1:])

    mean_m = 0.0
    second_m = float(v[0])
    if n > 1:
        corr = correlations(0)

    for k in range(1, n):
        var_m = max(second_m - mean_m * mean_m, 0.0)
        rho = float(corr[0])
        cov_mk = rho * math.sqrt(var_m * v[k])
        mean, second, alpha = pair_moments(mean_m, var_m, 0.0, float(v[k]), cov_mk)
        if k < n - 1:
            corr = clark_correlation_update(
                var_m, corr[1:], v[k], correlations(k), alpha, (mean, second), diagnostics
            )
        mean_m, second_m = mean, second

    return ClarkResult(expected_max=mean_m, second_moment=second_m, diagnostics=diagnostics)


def clark_expected_max(variances: np.ndarray) -> float:
    """Approximate E max of the fBm grid vector; see run_clark_recursion."""
    return run_clark_recursion(variances).expected_max
