"""Clark's sequential moment-matching approximation of E max of the fBm grid vector.

The exact first two moments of max{xi, eta} for a bivariate Gaussian pair, and
the correlation of that max with any third Gaussian variable, admit closed
forms. Absorbing one coordinate at a time while pretending the running maximum
stays Gaussian gives a deterministic approximation of E max{xi_1, ..., xi_N}.
The recursion runs on the centred vector (B(1/N), ..., B(N/N)), given by its
variances, and absorbs it in ascending time order. Each step reads one
correlation, formed from running sums and an online convolution, so the cost
is O(N log^2 N) time and O(N) memory.

Two numerical safeguards: a correlation outside [-1, 1] is clamped, and a
running maximum with no variance forgets its correlations; both events are
tallied in the result diagnostics.
"""

from __future__ import annotations

import functools
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
    "run_clark_recursion",
    "clark_expected_max",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: Block of steps within which the online convolution adds its terms by direct dot products.
_LEAF_STEPS = 64


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
    """Correlations clamped into [-1, 1] (at most one per step) and steps
    whose running maximum had no variance."""
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


def run_clark_recursion(variances: np.ndarray) -> ClarkResult:
    """Run the full recursion over the fBm grid vector in ascending time order.

    ``variances`` is the vector ``fbm_vector_spec`` returns; the means are
    zero. Absorbing x_k scales each Corr(M, x_j), M the running maximum, by
    a_k = sd_M Phi(alpha)/sd_max and adds sd_k Phi(-alpha)/sd_max Corr(x_k, x_j).
    So 2 sd_j Corr(M, x_j) = scale sum_i w_i (v_i + v_j - v_{j-i-1}), with
    scale the product of the a's and w_i = Phi(-alpha_i)/(sd_max scale) at
    step i. The one correlation a step reads needs sum w_i, sum w_i v_i and
    ``lagged``, the convolution of w with v, filled online: terms within a
    block of 64 steps by direct dot products, and each aligned block's terms
    to the next block of its length by one FFT product (van der Hoeven's
    relaxed product). Memory is O(N); work is O(N log^2 N).
    """
    v = np.asarray(variances, dtype=float)
    n = v.size
    if n < 1 or not np.all(v > 0.0):
        raise ValueError("variances must be a non-empty vector of positive values")
    sd = np.sqrt(v)
    diagnostics = ClarkDiagnostics()
    w, lagged = np.zeros(n), np.zeros(n)  # lagged[k] = sum_{i<=k} w_i v_{k-i}
    # after step 0, M = x_0: its moments, then scale, sum w_i and sum w_i v_i
    mean_m, second_m = 0.0, float(v[0])
    scale, s0, s1 = 1.0, 1.0 / float(sd[0]), float(sd[0])
    w[0], lagged[0] = s0, s1
    spectrum = functools.cache(lambda size: np.fft.rfft(v[:size], size))
    for k, vk, sdk in zip(range(1, n), map(float, v[1:]), map(float, sd[1:])):
        rho = 0.5 * scale * (s1 + vk * s0 - float(lagged[k - 1])) / sdk
        if abs(rho) > 1.0:
            diagnostics.clamp_events += 1
            rho = math.copysign(1.0, rho)
        var_m = max(second_m - mean_m * mean_m, 0.0)
        mean_m, second_m, alpha = pair_moments(
            mean_m, var_m, 0.0, vk, rho * math.sqrt(var_m * vk))
        if k == n - 1:
            break
        var_max = second_m - mean_m * mean_m
        if var_max <= 0.0:  # M has no correlation left: an infinite sd zeroes a_k and w_k
            diagnostics.degenerate_events += 1
            var_max = math.inf
        sd_max = math.sqrt(var_max)
        a = math.sqrt(var_m) * norm_cdf(alpha) / sd_max
        if a == 0.0:  # M has forgotten x_0..x_{k-1}: drop their terms
            w[:k] = lagged[k:] = 0.0
            scale, s0, s1 = 1.0, 0.0, 0.0
        else:
            scale *= a
        w[k] = wk = norm_cdf(-alpha) / (sd_max * scale)
        s0 += wk
        s1 += wk * vk
        lo = k - k % _LEAF_STEPS
        lagged[k] += np.dot(w[lo:k + 1], v[k - lo::-1])
        blocks, rest = divmod(k + 1, _LEAF_STEPS)
        if rest == 0:
            # the largest aligned block that ends here passes its terms to the
            # next block of its length; a circular product of twice that
            # length wraps only onto its first half, which is dropped
            half = _LEAF_STEPS * (blocks & -blocks)
            size = 2 * half
            terms = np.fft.irfft(np.fft.rfft(w[k + 1 - half:k + 1], size) * spectrum(size), size)
            lagged[k + 1:k + 1 + half] += terms[half:half + n - k - 1]
    return ClarkResult(expected_max=mean_m, second_moment=second_m, diagnostics=diagnostics)


def clark_expected_max(variances: np.ndarray) -> float:
    """Approximate E max of the fBm grid vector; see run_clark_recursion."""
    return run_clark_recursion(variances).expected_max
