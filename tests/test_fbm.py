import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import toeplitz

import fbmax.fbm as fbm
from fbmax.errors import EmbeddingError
from fbmax.fbm import (
    CHOLESKY_MAX_POINTS,
    _synthesise_pairs,
    _unit_lag_autocovariance,
    build_embedding,
    cholesky_factor,
    cholesky_oracle_paths,
    circulant_eigenvalues,
    fbm_covariance_matrix,
    fgn_autocovariance,
)
from fbmax.grid import PathGrid


def unit_autocov_oracle(lag, hurst):
    """Second difference of j^{2H} at 50-digit precision."""
    with mp.workdps(50):
        j, h = mp.mpf(lag), mp.mpf(hurst)
        return float(0.5 * ((j - 1) ** (2 * h) - 2 * j ** (2 * h) + (j + 1) ** (2 * h)))


class TestPathGrid:
    def test_times_and_mesh(self):
        g = PathGrid(n_points=4, hurst=0.3)
        np.testing.assert_allclose(g.times, [0.25, 0.5, 0.75, 1.0])
        assert g.mesh == 0.25

    @pytest.mark.parametrize("n,h", [(0, 0.5), (-3, 0.5), (8, 0.0), (8, 1.0), (8, -0.1)])
    def test_rejects_bad_arguments(self, n, h):
        with pytest.raises((ValueError, TypeError)):
            PathGrid(n_points=n, hurst=h)

    def test_accepts_numpy_integer(self):
        g = PathGrid(n_points=np.int64(16), hurst=0.5)
        assert g.n_points == 16


class TestAutocovariance:
    def test_lag_zero_is_increment_variance(self):
        for n, h in [(2, 0.1), (256, 0.0001), (1000, 0.9)]:
            g = PathGrid(n_points=n, hurst=h)
            assert fgn_autocovariance(0, g) == pytest.approx(float(n) ** (-2 * h), rel=1e-14)

    def test_lag_one_half_hurst_two_points(self):
        # H=1, N=2: Cov of the two halves of a straight-line process is 1/4
        g = PathGrid(n_points=2, hurst=0.999999999999)
        assert fgn_autocovariance(1, g) == pytest.approx(0.25, rel=1e-9)

    def test_brownian_increments_uncorrelated(self):
        g = PathGrid(n_points=64, hurst=0.5)
        values = fgn_autocovariance(np.arange(1, 64), g)
        np.testing.assert_array_equal(values, np.zeros(63))

    @pytest.mark.parametrize("h", [0.0001, 0.0013, 0.09, 0.3, 0.77, 0.9])
    @pytest.mark.parametrize("j", [2, 3, 5, 17, 100, 1000, 10000])
    def test_matches_high_precision_oracle(self, h, j):
        ours = float(_unit_lag_autocovariance(np.array([j]), h)[0])
        assert ours == pytest.approx(unit_autocov_oracle(j, h), rel=5e-12)

    @pytest.mark.parametrize("h", [0.0013, 0.3])
    def test_large_lag_beats_cancellation(self, h):
        # the naive double-precision second difference is ~1% wrong out here
        j = 2 ** 19
        ours = float(_unit_lag_autocovariance(np.array([j]), h)[0])
        assert ours == pytest.approx(unit_autocov_oracle(j, h), rel=5e-9)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
    def test_sign_flips_at_half(self, h):
        values = _unit_lag_autocovariance(np.arange(1, 40), h)
        if h < 0.5:
            assert np.all(values < 0)
        else:
            assert np.all(values > 0)

    @pytest.mark.parametrize("h", [0.0001, 0.1, 0.49, 0.5, 0.77, 0.9])
    @pytest.mark.parametrize("n", [4, 64, 333])
    def test_increments_sum_to_unit_variance(self, h, n):
        # Var B(1) = sum over all pairs of increment covariances = 1
        g = PathGrid(n_points=n, hurst=h)
        cov = toeplitz(fgn_autocovariance(np.arange(n), g))
        assert cov.sum() == pytest.approx(1.0, rel=1e-11)

    def test_input_validation(self):
        g = PathGrid(n_points=8, hurst=0.3)
        with pytest.raises(ValueError):
            fgn_autocovariance(1.5, g)
        with pytest.raises(ValueError):
            fgn_autocovariance(8, g)
        with pytest.raises(ValueError):
            fgn_autocovariance(-1, g)
        assert isinstance(fgn_autocovariance(3, g), float)
        assert fgn_autocovariance(np.array([0, 1]), g).shape == (2,)


class TestCovarianceMatrix:
    def test_brownian_case_is_min(self):
        g = PathGrid(n_points=16, hurst=0.5)
        t = g.times
        np.testing.assert_allclose(
            fbm_covariance_matrix(g), np.minimum.outer(t, t), rtol=1e-14
        )

    @pytest.mark.parametrize("h", [0.0001, 0.2, 0.8])
    def test_diagonal_and_psd(self, h):
        g = PathGrid(n_points=32, hurst=h)
        cov = fbm_covariance_matrix(g)
        np.testing.assert_allclose(np.diag(cov), g.times ** (2 * h), rtol=1e-13)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-15)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    @pytest.mark.parametrize("h", [0.0001, 0.3, 0.9])
    def test_differencing_recovers_increment_covariance(self, h):
        n = 64
        g = PathGrid(n_points=n, hurst=h)
        diff = np.eye(n) - np.eye(n, k=-1)
        from_paths = diff @ fbm_covariance_matrix(g) @ diff.T
        target = toeplitz(fgn_autocovariance(np.arange(n), g))
        np.testing.assert_allclose(from_paths, target, rtol=1e-8, atol=1e-15)


class TestEmbedding:
    def test_sizes(self):
        assert build_embedding(PathGrid(n_points=8, hurst=0.3)).size == 16
        assert build_embedding(PathGrid(n_points=5, hurst=0.3)).size == 16
        assert build_embedding(PathGrid(n_points=9, hurst=0.3)).size == 32
        assert build_embedding(PathGrid(n_points=1, hurst=0.3)).size == 2

    def test_constant_row_spectrum(self):
        eig = circulant_eigenvalues(np.full(8, 0.7))
        np.testing.assert_allclose(eig[0], 5.6, rtol=1e-14)
        np.testing.assert_allclose(eig[1:], np.zeros(7), atol=1e-14)

    def test_brownian_spectrum_is_flat(self):
        spec = build_embedding(PathGrid(n_points=4, hurst=0.5))
        np.testing.assert_allclose(spec.eigenvalues, np.full(8, 0.25), rtol=1e-14)

    @pytest.mark.parametrize("h", [0.0001, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [4, 16])
    def test_against_dense_eigensolver(self, h, n):
        spec = build_embedding(PathGrid(n_points=n, hurst=h))
        m = spec.size
        half = m // 2
        lags = np.concatenate([np.arange(half + 1), np.arange(half - 1, 0, -1)])
        row = float(n) ** (-2.0 * h) * _unit_lag_autocovariance(lags, h)
        dense = np.empty((m, m))
        for i in range(m):
            dense[i] = np.roll(row, i)
        np.testing.assert_allclose(
            np.sort(spec.eigenvalues), np.sort(np.linalg.eigvalsh(dense)),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("h,n", [(0.0001, 256), (0.3, 100), (0.9, 64)])
    def test_trace_identity(self, h, n):
        g = PathGrid(n_points=n, hurst=h)
        spec = build_embedding(g)
        assert spec.eigenvalues.sum() == pytest.approx(
            spec.size * fgn_autocovariance(0, g), rel=1e-11
        )

    def test_spectrum_is_read_only(self):
        spec = build_embedding(PathGrid(n_points=8, hurst=0.3))
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0

    def test_tiny_negative_eigenvalue_is_clipped(self, monkeypatch):
        real = circulant_eigenvalues

        def with_tiny_negative(row):
            eig = real(row)
            eig[-1] = -0.5 * fbm.EIGENVALUE_CLIP_RTOL * eig.max()
            return eig

        monkeypatch.setattr(fbm, "circulant_eigenvalues", with_tiny_negative)
        spec = build_embedding(PathGrid(n_points=8, hurst=0.3))
        assert spec.n_clipped == 1
        assert spec.min_raw_eigenvalue < 0.0
        assert spec.eigenvalues.min() == 0.0

    def test_large_negative_eigenvalue_raises(self, monkeypatch):
        real = circulant_eigenvalues

        def with_large_negative(row):
            eig = real(row)
            eig[-1] = -1e-3 * eig.max()
            return eig

        monkeypatch.setattr(fbm, "circulant_eigenvalues", with_large_negative)
        with pytest.raises(EmbeddingError, match="minimal eigenvalue"):
            build_embedding(PathGrid(n_points=8, hurst=0.3))


class TestSampling:
    def test_pair_shape_and_determinism(self):
        # N = 5 pads the embedding to 16 points; only the first N are kept
        spec = build_embedding(PathGrid(n_points=5, hurst=0.3))
        noise = np.random.default_rng(42).standard_normal((3, 2 * spec.size))
        a = _synthesise_pairs(spec, noise)
        assert a.shape == (3, 2, 5)
        np.testing.assert_array_equal(a, _synthesise_pairs(spec, noise.copy()))
        # each row is synthesised from its own noise alone
        np.testing.assert_array_equal(a[1], _synthesise_pairs(spec, noise[1:2])[0])
        assert not np.array_equal(a[0], a[1])

    @pytest.mark.parametrize("h", [0.0001, 0.3, 0.5, 0.9])
    def test_increment_law(self, h):
        # empirical covariance of 2e5 synthesised pairs vs the target Toeplitz
        # matrix, elementwise within 5 standard errors (seed rehearsed)
        n = 8
        g = PathGrid(n_points=n, hurst=h)
        spec = build_embedding(g)
        rng = np.random.default_rng(1234)
        noise = rng.standard_normal((100_000, 2 * spec.size))
        incs = _synthesise_pairs(spec, noise)
        flat = incs.reshape(-1, n)
        target = toeplitz(fgn_autocovariance(np.arange(n), g))
        emp = flat.T @ flat / flat.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / flat.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)
        # the two members of each pair must be independent
        cross = incs[:, 0, :].T @ incs[:, 1, :] / incs.shape[0]
        se_cross = np.sqrt(np.outer(diag, diag) / incs.shape[0])
        assert np.all(np.abs(cross) < 5.0 * se_cross)

    def test_terminal_value_has_unit_variance(self):
        g = PathGrid(n_points=64, hurst=0.1)
        spec = build_embedding(g)
        noise = np.random.default_rng(77).standard_normal((50_000, 2 * spec.size))
        paths = np.cumsum(_synthesise_pairs(spec, noise).reshape(-1, 64), axis=1)
        variance = paths[:, -1].var(ddof=1)
        se = math.sqrt(2.0 / paths.shape[0])
        assert abs(variance - 1.0) < 5.0 * se


class TestCholeskyOracle:
    def test_factor_reproduces_covariance(self):
        g = PathGrid(n_points=32, hurst=0.2)
        factor = cholesky_factor(g)
        np.testing.assert_allclose(
            factor @ factor.T, fbm_covariance_matrix(g), rtol=1e-10, atol=1e-14
        )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cholesky_factor(PathGrid(n_points=CHOLESKY_MAX_POINTS + 1, hurst=0.5))

    def test_sampled_covariance(self):
        g = PathGrid(n_points=32, hurst=0.2)
        target = fbm_covariance_matrix(g)
        paths = cholesky_oracle_paths(g, 40_000, np.random.default_rng(5))
        emp = paths.T @ paths / paths.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / paths.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)

    def test_circulant_agrees_with_analytic_covariance(self):
        g = PathGrid(n_points=32, hurst=0.2)
        target = fbm_covariance_matrix(g)
        spec = build_embedding(g)
        noise = np.random.default_rng(6).standard_normal((20_000, 2 * spec.size))
        paths = np.cumsum(_synthesise_pairs(spec, noise).reshape(-1, 32), axis=1)
        emp = paths.T @ paths / paths.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / paths.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)
