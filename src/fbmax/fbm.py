"""Exact simulation of fractional Brownian motion on a uniform grid.

The sampler follows the circulant-embedding construction: the covariance of
the increment process (fractional Gaussian noise) is embedded into a circulant
matrix whose eigenvalues come out of a single FFT of its first row. Weighting
a complex Gaussian vector by the square roots of those eigenvalues and
applying one more FFT yields, in the real and imaginary parts, two independent
increment vectors with exactly the target law. Cumulative sums turn increments
into path values B(1/N), ..., B(N/N).

A dense Cholesky sampler over the path covariance matrix is included as a
slow, independent oracle for cross-validating the FFT sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, OracleError
from .grid import PathGrid

__all__ = [
    "PathGrid",
    "CirculantSpectrum",
    "fgn_autocovariance",
    "fbm_covariance_matrix",
    "circulant_eigenvalues",
    "build_embedding",
    "cholesky_factor",
    "cholesky_oracle_paths",
]

#: Dense-oracle size cap; beyond this the O(N^3) factorization is not a
#: reasonable cross-check tool.
CHOLESKY_MAX_POINTS = 1024

#: Relative clip window for slightly negative embedding eigenvalues.
EIGENVALUE_CLIP_RTOL = 1e-9


@dataclass(frozen=True)
class CirculantSpectrum:
    """Eigenvalues of the circulant embedding for one grid.

    ``eigenvalues`` has length ``size`` (= 2 * 2**ceil(log2 N)), is
    nonnegative after clipping, and sums to ``size * c_0`` where c_0 is the
    increment variance N**(-2H).
    """

    grid: PathGrid
    size: int
    eigenvalues: np.ndarray
    n_clipped: int = 0
    min_raw_eigenvalue: float = 0.0


def _unit_lag_autocovariance(lags: np.ndarray, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spacing fGn at integer lags >= 0.

    rho(j) = 0.5 (|j-1|^{2H} - 2 j^{2H} + (j+1)^{2H}). The direct second
    difference cancels catastrophically for small H at large j, so lags >= 2
    use the equivalent expm1/log1p form, which keeps absolute errors near the
    underlying function values' rounding error.
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


def fgn_autocovariance(lag, grid: PathGrid):
    """Covariance of grid increments at the given lag(s).

    Parameters
    ----------
    lag : int or array of int
        Lag(s) j with 0 <= j <= N-1.
    grid : PathGrid

    Returns
    -------
    float or ndarray
        Cov(B(t_{i+1}) - B(t_i), B(t_{i+j+1}) - B(t_{i+j})), which equals the
        unit-spacing fGn autocovariance scaled by N**(-2H).
    """
    arr = np.asarray(lag)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"lag must be integer, got dtype {arr.dtype}")
    if np.any(arr < 0) or np.any(arr > grid.n_points - 1):
        raise ValueError(
            f"lag must lie in [0, {grid.n_points - 1}] for this grid, got {lag!r}"
        )
    scale = float(grid.n_points) ** (-2.0 * grid.hurst)
    values = scale * _unit_lag_autocovariance(arr, grid.hurst)
    if np.isscalar(lag) or arr.ndim == 0:
        return float(values)
    return values


def fbm_covariance_matrix(grid: PathGrid) -> np.ndarray:
    """Dense covariance matrix G[i, j] = Cov(B(t_i), B(t_j)) of path values.

    G[i, j] = 0.5 (t_i^{2H} + t_j^{2H} - |t_i - t_j|^{2H}); symmetric,
    positive semidefinite, diagonal t_i^{2H}.
    """
    t = grid.times
    two_h = 2.0 * grid.hurst
    pow_t = t ** two_h
    return 0.5 * (pow_t[:, None] + pow_t[None, :] - np.abs(t[:, None] - t[None, :]) ** two_h)


def circulant_eigenvalues(row: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant matrix with the given (symmetric) first row.

    lambda_k = sum_j row[j] exp(2*pi*i*j*k/m); real because row[j] == row[m-j].
    """
    row = np.asarray(row, dtype=float)
    return np.fft.fft(row).real


def build_embedding(grid: PathGrid) -> CirculantSpectrum:
    """Build the circulant embedding spectrum for the grid's increment process.

    The embedding size is m = 2**(1+nu) with 2**nu the smallest power of two
    >= N. The first row wraps the increment autocovariance around: c_j for
    j <= m/2 and c_{m-j} beyond. Eigenvalues in [-eps, 0) with
    eps = 1e-9 * max(lambda) are clipped to zero; anything more negative
    raises EmbeddingError, since the sampled law would no longer be exact.
    """
    n = grid.n_points
    nu = max(int(np.ceil(np.log2(n))), 0)
    m = 2 ** (nu + 1)
    half = m // 2
    lags = np.concatenate([np.arange(half + 1), np.arange(half - 1, 0, -1)])
    scale = float(n) ** (-2.0 * grid.hurst)
    row = scale * _unit_lag_autocovariance(lags, grid.hurst)
    eig = circulant_eigenvalues(row)
    min_raw = float(eig.min())
    clip_tol = EIGENVALUE_CLIP_RTOL * float(eig.max())
    if min_raw < -clip_tol:
        raise EmbeddingError(
            f"circulant embedding failed for N={n}, H={grid.hurst}: "
            f"minimal eigenvalue {min_raw:.6e} is below the clip window {-clip_tol:.6e}"
        )
    negative = eig < 0.0
    n_clipped = int(np.count_nonzero(negative))
    if n_clipped:
        eig = eig.copy()
        eig[negative] = 0.0
    eig.setflags(write=False)
    return CirculantSpectrum(
        grid=grid, size=m, eigenvalues=eig, n_clipped=n_clipped, min_raw_eigenvalue=min_raw
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _synthesise_pairs(spectrum: CirculantSpectrum, noise: np.ndarray) -> np.ndarray:
    """Turn standard normal noise of shape (k, 2m) into increments (k, 2, N).

    Each row supplies one complex Gaussian vector (real parts first, then
    imaginary). One FFT gives a complex vector whose real and imaginary parts
    are two independent fGn draws; no Hermitian symmetrisation is needed
    because both parts are kept.
    """
    m = spectrum.size
    n = spectrum.grid.n_points
    weights = np.sqrt(spectrum.eigenvalues / m)
    eps = noise[:, :m] + 1j * noise[:, m:]
    transformed = np.fft.fft(weights * eps, axis=1)[:, :n]
    out = np.empty((noise.shape[0], 2, n))
    out[:, 0, :] = transformed.real
    out[:, 1, :] = transformed.imag
    return out


# ---------------------------------------------------------------------------
# dense Cholesky oracle
# ---------------------------------------------------------------------------


def cholesky_factor(grid: PathGrid) -> np.ndarray:
    """Lower Cholesky factor of the path covariance matrix (N <= 1024)."""
    if grid.n_points > CHOLESKY_MAX_POINTS:
        raise ValueError(
            f"Cholesky oracle supports N <= {CHOLESKY_MAX_POINTS}, got {grid.n_points}"
        )
    cov = fbm_covariance_matrix(grid)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            f"covariance factorization failed for N={grid.n_points}, H={grid.hurst}: {exc}"
        ) from exc


def cholesky_oracle_paths(
    grid: PathGrid, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample path values (n_paths, N) through the dense factor."""
    factor = cholesky_factor(grid)
    z = rng.standard_normal((n_paths, grid.n_points))
    return z @ factor.T
