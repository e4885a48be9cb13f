"""Exact simulation of fractional Brownian motion on a uniform grid.

The sampler follows the circulant-embedding construction: the covariance of
the increment process (fractional Gaussian noise) is embedded into a circulant
matrix whose eigenvalues come out of a single FFT of its first row, and the
spectrum keeps their scaled square roots as weights. Weighting a complex
Gaussian vector by them and applying one more FFT yields, in the real and
imaginary parts, two independent increment vectors with exactly the target
law. Cumulative sums turn increments into path values B(1/N), ..., B(N/N).

The closed-form second moment of the path average is included as an exact
probe of the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, check_hurst, check_points

__all__ = [
    "CirculantSpectrum",
    "fgn_autocovariance",
    "average_second_moment",
    "circulant_eigenvalues",
    "build_embedding",
]

#: Relative clip window for slightly negative embedding eigenvalues.
EIGENVALUE_CLIP_RTOL = 1e-9


@dataclass(frozen=True)
class CirculantSpectrum:
    """Synthesis weights of the circulant embedding for the grid of N points.

    ``weights`` has length ``size`` (= 2 * 2**ceil(log2 N)) and holds
    sqrt(lambda_k / size), where the eigenvalues lambda_k are nonnegative after
    clipping and sum to ``size * c_0``, c_0 = N**(-2H) the increment variance.
    """

    n_points: int
    size: int
    weights: np.ndarray
    n_clipped: int = 0
    min_raw_eigenvalue: float = 0.0


def fgn_autocovariance(lags: np.ndarray, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spacing fGn at integer lags >= 0.

    rho(j) = 0.5 (|j-1|^{2H} - 2 j^{2H} + (j+1)^{2H}). The direct second
    difference cancels catastrophically for small H at large j, so lags >= 2
    use the equivalent expm1/log1p form, which keeps absolute errors near the
    underlying function values' rounding error. On the grid {i/N} the
    increments' covariance is this scaled by N^(-2H).
    """
    lags = np.asarray(lags, dtype=np.int64)
    two_h = 2.0 * hurst
    out = np.empty(lags.shape, dtype=float)
    out[lags == 0] = 1.0
    out[lags == 1] = 0.5 * (2.0 ** two_h - 2.0)
    big = lags >= 2
    if np.any(big):
        if hurst == 0.5:
            out[big] = 0.0  # Brownian increments are independent
        else:
            j = lags[big].astype(float)
            curv = np.expm1(two_h * np.log1p(1.0 / j)) + np.expm1(two_h * np.log1p(-1.0 / j))
            out[big] = 0.5 * np.exp(two_h * np.log(j)) * curv
    return out


def average_second_moment(n_points: int, hurst: float) -> float:
    """E[(average of the path values)^2] in closed form.

    The average is Gaussian with mean zero and this second moment, which
    makes it a sharp correctness probe for any sampler. Summing the path
    covariance matrix over both indices collapses, for the uniform grid,
    to N^{-(2H+2)} sum_{i=1..N} i^{2H+1}. The sum is accumulated with
    math.fsum so the relative error stays far below 1e-12 even for N around
    2**20.
    """
    n = check_points(n_points)
    hurst = check_hurst(hurst)
    powers = np.arange(1, n + 1, dtype=float) ** (2.0 * hurst + 1.0)
    total = math.fsum(powers)
    return float(n) ** (-(2.0 * hurst + 2.0)) * total


def circulant_eigenvalues(row: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant matrix with the given (symmetric) first row.

    lambda_k = sum_j row[j] exp(2*pi*i*j*k/m); real because row[j] == row[m-j].
    The real parts are copied out, so the complex transform is not kept alive.
    """
    row = np.asarray(row, dtype=float)
    return np.fft.fft(row).real.copy()


def build_embedding(n_points: int, hurst: float) -> CirculantSpectrum:
    """Build the circulant embedding spectrum for the increments of the fBm
    with Hurst index H on the grid t_i = i/N, i = 1..N.

    The embedding size is m = 2**(1+nu) with 2**nu the smallest power of two
    >= N. The first row wraps the increment autocovariance around: c_j for
    j <= m/2 and c_{m-j} beyond. Eigenvalues in [-eps, 0) with
    eps = 1e-9 * max(lambda) are clipped to zero; anything more negative
    raises EmbeddingError, since the sampled law would no longer be exact.
    """
    n = check_points(n_points)
    hurst = check_hurst(hurst)
    nu = max(int(np.ceil(np.log2(n))), 0)
    m = 2 ** (nu + 1)
    half = m // 2
    lags = np.concatenate([np.arange(half + 1), np.arange(half - 1, 0, -1)])
    scale = float(n) ** (-2.0 * hurst)
    row = scale * fgn_autocovariance(lags, hurst)
    eig = circulant_eigenvalues(row)
    min_raw = float(eig.min())
    clip_tol = EIGENVALUE_CLIP_RTOL * float(eig.max())
    if min_raw < -clip_tol:
        raise EmbeddingError(
            f"circulant embedding failed for N={n}, H={hurst}: "
            f"minimal eigenvalue {min_raw:.6e} is below the clip window {-clip_tol:.6e}"
        )
    negative = eig < 0.0
    n_clipped = int(np.count_nonzero(negative))
    eig[negative] = 0.0
    weights = np.sqrt(eig / m)
    weights.setflags(write=False)
    return CirculantSpectrum(
        n_points=n, size=m, weights=weights, n_clipped=n_clipped, min_raw_eigenvalue=min_raw
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _synthesise_pairs(
    spectrum: CirculantSpectrum, noise: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Turn standard normal noise of shape (k, 2m) into increments (k, 2, N).

    Each row supplies one complex Gaussian vector (real parts first, then
    imaginary), times the spectrum's weights, transformed in place in ``out``,
    shape (k, m). One FFT gives two independent fGn draws in its real and
    imaginary parts; no Hermitian symmetrisation is needed because both are
    kept. The increments returned are a view of ``out``; nothing is allocated.
    """
    m = spectrum.size
    np.multiply(noise[:, :m], spectrum.weights, out=out.real)
    np.multiply(noise[:, m:], spectrum.weights, out=out.imag)
    np.fft.fft(out, axis=1, out=out)
    return out.view(float).reshape(len(out), m, 2)[:, :spectrum.n_points].transpose(0, 2, 1)
