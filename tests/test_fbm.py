import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import toeplitz

import fbmax.fbm as fbm
from conftest import cholesky_oracle_paths, fbm_covariance_matrix
from fbmax.errors import EmbeddingError
from fbmax.fbm import (
    _synthesise_pairs,
    build_embedding,
    circulant_eigenvalues,
    fgn_autocovariance,
)


def unit_autocov_oracle(lag, hurst):
    """Second difference of j^{2H} at 50-digit precision."""
    with mp.workdps(50):
        j, h = mp.mpf(lag), mp.mpf(hurst)
        return float(0.5 * ((j - 1) ** (2 * h) - 2 * j ** (2 * h) + (j + 1) ** (2 * h)))


def synthesise(spectrum, noise):
    """Increments of the noise, synthesised in a fresh complex buffer."""
    return _synthesise_pairs(spectrum, noise, np.empty((len(noise), spectrum.size), complex))


def out_of_place_synthesis(spectrum, noise):
    """The synthesis as one expression, each step in a new array."""
    m = spectrum.size
    transformed = np.fft.fft(spectrum.weights * (noise[:, :m] + 1j * noise[:, m:]), axis=1)
    transformed = transformed[:, :spectrum.n_points]
    return np.stack([transformed.real, transformed.imag], axis=1)


def increment_covariance(lags, n_points, hurst):
    """Covariance of the grid increments at the given lags: the unit-spacing
    kernel scaled by N^(-2H), as build_embedding scales it."""
    return float(n_points) ** (-2.0 * hurst) * fgn_autocovariance(lags, hurst)


def embedding_row(n_points, size, hurst):
    """First row of the circulant embedding of the given size: the increment
    covariance at lags 0..m/2, then wrapped around."""
    half = size // 2
    lags = np.concatenate([np.arange(half + 1), np.arange(half - 1, 0, -1)])
    return increment_covariance(lags, n_points, hurst)


def with_tiny_negatives(row):
    """The eigenvalues of the row, every third from the second just below zero,
    inside the clip window."""
    eig = circulant_eigenvalues(row)
    eig[1::3] = -0.5 * fbm.EIGENVALUE_CLIP_RTOL * eig.max()
    return eig


def eigenvalues_of(spectrum):
    """The clipped eigenvalues, recovered from the weights sqrt(lambda / m)."""
    return spectrum.size * spectrum.weights ** 2


class TestGridArguments:
    @pytest.mark.parametrize("n,h", [(0, 0.5), (-3, 0.5), (8, 0.0), (8, 1.0), (8, -0.1)])
    def test_rejects_bad_arguments(self, n, h):
        with pytest.raises((ValueError, TypeError)):
            build_embedding(n, h)

    def test_accepts_numpy_integer(self):
        assert build_embedding(np.int64(16), 0.5).n_points == 16


class TestAutocovariance:
    def test_lag_zero_is_increment_variance(self):
        for n, h in [(2, 0.1), (256, 0.0001), (1000, 0.9)]:
            variance = increment_covariance([0], n, h)[0]
            assert variance == pytest.approx(float(n) ** (-2 * h), rel=1e-14)

    def test_lag_one_half_hurst_two_points(self):
        # H=1, N=2: Cov of the two halves of a straight-line process is 1/4
        assert increment_covariance([1], 2, 0.999999999999)[0] == pytest.approx(0.25, rel=1e-9)

    def test_brownian_increments_uncorrelated(self):
        values = fgn_autocovariance(np.arange(1, 64), 0.5)
        np.testing.assert_array_equal(values, np.zeros(63))

    @pytest.mark.parametrize("h", [0.0001, 0.0013, 0.09, 0.3, 0.77, 0.9])
    @pytest.mark.parametrize("j", [2, 3, 5, 17, 100, 1000, 10000])
    def test_matches_high_precision_oracle(self, h, j):
        ours = float(fgn_autocovariance(np.array([j]), h)[0])
        assert ours == pytest.approx(unit_autocov_oracle(j, h), rel=5e-12)

    @pytest.mark.parametrize("h", [0.0013, 0.3])
    def test_large_lag_beats_cancellation(self, h):
        # the naive double-precision second difference is ~1% wrong out here
        j = 2 ** 19
        ours = float(fgn_autocovariance(np.array([j]), h)[0])
        assert ours == pytest.approx(unit_autocov_oracle(j, h), rel=5e-9)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
    def test_sign_flips_at_half(self, h):
        values = fgn_autocovariance(np.arange(1, 40), h)
        if h < 0.5:
            assert np.all(values < 0)
        else:
            assert np.all(values > 0)

    @pytest.mark.parametrize("h", [0.0001, 0.1, 0.49, 0.5, 0.77, 0.9])
    @pytest.mark.parametrize("n", [4, 64, 333])
    def test_increments_sum_to_unit_variance(self, h, n):
        # Var B(1) = sum over all pairs of increment covariances = 1
        cov = toeplitz(increment_covariance(np.arange(n), n, h))
        assert cov.sum() == pytest.approx(1.0, rel=1e-11)


class TestCovarianceMatrix:
    def test_brownian_case_is_min(self):
        t = np.arange(1, 17) / 16
        np.testing.assert_allclose(
            fbm_covariance_matrix(16, 0.5), np.minimum.outer(t, t), rtol=1e-14
        )

    @pytest.mark.parametrize("h", [0.0001, 0.2, 0.8])
    def test_diagonal_and_psd(self, h):
        cov = fbm_covariance_matrix(32, h)
        t = np.arange(1, 33) / 32
        np.testing.assert_allclose(np.diag(cov), t ** (2 * h), rtol=1e-13)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-15)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    @pytest.mark.parametrize("h", [0.0001, 0.3, 0.9])
    def test_differencing_recovers_increment_covariance(self, h):
        n = 64
        diff = np.eye(n) - np.eye(n, k=-1)
        from_paths = diff @ fbm_covariance_matrix(n, h) @ diff.T
        target = toeplitz(increment_covariance(np.arange(n), n, h))
        np.testing.assert_allclose(from_paths, target, rtol=1e-8, atol=1e-15)


class TestEmbedding:
    def test_sizes(self):
        assert build_embedding(8, 0.3).size == 16
        assert build_embedding(5, 0.3).size == 16
        assert build_embedding(9, 0.3).size == 32
        assert build_embedding(1, 0.3).size == 2

    def test_constant_row_spectrum(self):
        eig = circulant_eigenvalues(np.full(8, 0.7))
        np.testing.assert_allclose(eig[0], 5.6, rtol=1e-14)
        np.testing.assert_allclose(eig[1:], np.zeros(7), atol=1e-14)

    def test_brownian_spectrum_is_flat(self):
        spec = build_embedding(4, 0.5)
        np.testing.assert_allclose(eigenvalues_of(spec), np.full(8, 0.25), rtol=1e-14)

    @pytest.mark.parametrize("h", [0.0001, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [4, 16])
    def test_against_dense_eigensolver(self, h, n):
        spec = build_embedding(n, h)
        m = spec.size
        row = embedding_row(n, m, h)
        dense = np.empty((m, m))
        for i in range(m):
            dense[i] = np.roll(row, i)
        np.testing.assert_allclose(
            np.sort(eigenvalues_of(spec)), np.sort(np.linalg.eigvalsh(dense)),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("h,n", [(0.0001, 256), (0.3, 100), (0.9, 64)])
    def test_trace_identity(self, h, n):
        spec = build_embedding(n, h)
        assert eigenvalues_of(spec).sum() == pytest.approx(
            spec.size * increment_covariance([0], n, h)[0], rel=1e-11
        )

    def test_spectrum_is_read_only(self):
        spec = build_embedding(8, 0.3)
        with pytest.raises(ValueError):
            spec.weights[0] = 0.0

    def test_spectrum_holds_only_its_eigenvalues(self):
        # only the weights: a view of the complex FFT would keep twice the
        # bytes alive per H
        weights = build_embedding(1000, 0.3).weights
        assert weights.base is None and weights.flags.c_contiguous
        assert weights.nbytes == 8 * 2048

    @pytest.mark.parametrize("eigenvalues", [circulant_eigenvalues, with_tiny_negatives],
                             ids=["exact", "clipped"])
    @pytest.mark.parametrize("n,h", [(1, 0.5), (5, 0.9), (1024, 0.0001)])
    def test_weights_are_roots_of_the_clipped_eigenvalues(self, monkeypatch, n, h, eigenvalues):
        # the eigenvalues rebuilt here from the row, clipped as documented,
        # pin the weights that out_of_place_synthesis reads
        monkeypatch.setattr(fbm, "circulant_eigenvalues", eigenvalues)
        spec = build_embedding(n, h)
        eig = eigenvalues(embedding_row(n, spec.size, h))
        clipped = np.where(eig < 0.0, 0.0, eig)
        want = np.sqrt(clipped / spec.size)
        np.testing.assert_array_equal(spec.weights.view(np.uint64), want.view(np.uint64))

    def test_tiny_negative_eigenvalue_is_clipped(self, monkeypatch):
        real = circulant_eigenvalues

        def with_tiny_negative(row):
            eig = real(row)
            eig[-1] = -0.5 * fbm.EIGENVALUE_CLIP_RTOL * eig.max()
            return eig

        monkeypatch.setattr(fbm, "circulant_eigenvalues", with_tiny_negative)
        spec = build_embedding(8, 0.3)
        assert spec.n_clipped == 1
        assert spec.min_raw_eigenvalue < 0.0
        assert eigenvalues_of(spec).min() == 0.0

    def test_large_negative_eigenvalue_raises(self, monkeypatch):
        real = circulant_eigenvalues

        def with_large_negative(row):
            eig = real(row)
            eig[-1] = -1e-3 * eig.max()
            return eig

        monkeypatch.setattr(fbm, "circulant_eigenvalues", with_large_negative)
        with pytest.raises(EmbeddingError, match="minimal eigenvalue"):
            build_embedding(8, 0.3)


def assert_bit_equal_to_out_of_place(spectrum):
    noise = np.random.default_rng(spectrum.size).standard_normal((3, 2 * spectrum.size))
    buffer = np.full((3, spectrum.size), complex(np.nan, np.nan))  # a stale read would show
    got = _synthesise_pairs(spectrum, noise, buffer)
    assert np.shares_memory(got, buffer)
    want = out_of_place_synthesis(spectrum, noise)
    # compare the bits, so that a zero of the other sign fails too
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


class TestSampling:
    def test_pair_shape_and_determinism(self):
        # N = 5 pads the embedding to 16 points; only the first N are kept
        spec = build_embedding(5, 0.3)
        noise = np.random.default_rng(42).standard_normal((3, 2 * spec.size))
        a = synthesise(spec, noise)
        assert a.shape == (3, 2, 5)
        np.testing.assert_array_equal(a, synthesise(spec, noise.copy()))
        # each row is synthesised from its own noise alone
        np.testing.assert_array_equal(a[1], synthesise(spec, noise[1:2])[0])
        assert not np.array_equal(a[0], a[1])

    @pytest.mark.parametrize("h", [0.0001, 0.3, 0.5, 0.9])
    def test_increment_law(self, h):
        # empirical covariance of 2e5 synthesised pairs vs the target Toeplitz
        # matrix, elementwise within 5 standard errors (seed rehearsed)
        n = 8
        spec = build_embedding(n, h)
        rng = np.random.default_rng(1234)
        noise = rng.standard_normal((100_000, 2 * spec.size))
        incs = synthesise(spec, noise)
        flat = incs.reshape(-1, n)
        target = toeplitz(increment_covariance(np.arange(n), n, h))
        emp = flat.T @ flat / flat.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / flat.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)
        # the two members of each pair must be independent
        cross = incs[:, 0, :].T @ incs[:, 1, :] / incs.shape[0]
        se_cross = np.sqrt(np.outer(diag, diag) / incs.shape[0])
        assert np.all(np.abs(cross) < 5.0 * se_cross)

    @pytest.mark.parametrize("h", [0.0001, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 5, 2 ** 10])
    def test_in_place_synthesis_is_bit_equal_to_out_of_place(self, n, h):
        assert_bit_equal_to_out_of_place(build_embedding(n, h))

    def test_in_place_synthesis_with_clipped_eigenvalues(self, monkeypatch):
        # a clipped eigenvalue weights its noise by a zero
        monkeypatch.setattr(fbm, "circulant_eigenvalues", with_tiny_negatives)
        spec = build_embedding(16, 0.3)
        assert spec.n_clipped == 11
        assert_bit_equal_to_out_of_place(spec)

    def test_terminal_value_has_unit_variance(self):
        spec = build_embedding(64, 0.1)
        noise = np.random.default_rng(77).standard_normal((50_000, 2 * spec.size))
        paths = np.cumsum(synthesise(spec, noise).reshape(-1, 64), axis=1)
        variance = paths[:, -1].var(ddof=1)
        se = math.sqrt(2.0 / paths.shape[0])
        assert abs(variance - 1.0) < 5.0 * se


class TestCholeskyOracle:
    def test_sampled_covariance(self):
        target = fbm_covariance_matrix(32, 0.2)
        paths = cholesky_oracle_paths(32, 0.2, 40_000, np.random.default_rng(5))
        emp = paths.T @ paths / paths.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / paths.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)

    def test_circulant_agrees_with_analytic_covariance(self):
        target = fbm_covariance_matrix(32, 0.2)
        spec = build_embedding(32, 0.2)
        noise = np.random.default_rng(6).standard_normal((20_000, 2 * spec.size))
        paths = np.cumsum(synthesise(spec, noise).reshape(-1, 32), axis=1)
        emp = paths.T @ paths / paths.shape[0]
        diag = np.diag(target)
        se = np.sqrt((np.outer(diag, diag) + target ** 2) / paths.shape[0])
        assert np.all(np.abs(emp - target) < 5.0 * se)
