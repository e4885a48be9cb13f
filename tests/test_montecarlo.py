import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

import fbmax.montecarlo
from fbmax.bounds import limit_integral
from fbmax.clark import fbm_vector_spec
from fbmax.fbm import average_second_moment, build_embedding
from fbmax.montecarlo import (
    REDUCTIONS,
    SampleSummary,
    fbm_functional_samples,
    iid_limit_samples,
    replication_rng,
    run_iid_limit_experiment,
    summarize,
)


class TestReplicationRng:
    def test_deterministic_per_index(self):
        a = replication_rng(123, 4).standard_normal(8)
        b = replication_rng(123, 4).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_indices_give_distinct_streams(self):
        a = replication_rng(123, 0).standard_normal(8)
        b = replication_rng(123, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seeds_give_distinct_streams(self):
        a = replication_rng(0, 7).standard_normal(8)
        b = replication_rng(1, 7).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            replication_rng(1, -1)


class TestSummarize:
    def test_constant_sample(self):
        s = summarize(np.ones(4))
        assert s.count == 4
        assert s.mean == 1.0
        assert s.variance == 0.0
        assert (s.ci95_low, s.ci95_high) == (1.0, 1.0)

    def test_two_point_sample(self):
        s = summarize(np.array([0.0, 2.0]))
        assert s.mean == 1.0
        assert s.variance == pytest.approx(2.0, rel=1e-15)
        assert s.ci95_low == pytest.approx(1.0 - 1.96, rel=1e-14)
        assert s.ci95_high == pytest.approx(1.0 + 1.96, rel=1e-14)

    def test_halfwidth_matches_analytic_se(self):
        draws = np.random.default_rng(123).standard_normal(100000)
        s = summarize(draws)
        half = 0.5 * (s.ci95_high - s.ci95_low)
        assert half == pytest.approx(1.96 / math.sqrt(1e5), rel=0.05)
        assert s.ci95_low < 0.0 < s.ci95_high

    @pytest.mark.parametrize("bad", [np.empty(0), np.array([1.0]), np.ones((2, 2))])
    def test_rejects_short_or_nonvector(self, bad):
        with pytest.raises(ValueError):
            summarize(bad)

    def test_summary_invariants_enforced(self):
        with pytest.raises(ValueError):
            SampleSummary(count=2, mean=0.0, variance=-1.0, ci95_low=0.0, ci95_high=0.0)
        with pytest.raises(ValueError):
            SampleSummary(count=2, mean=5.0, variance=1.0, ci95_low=0.0, ci95_high=1.0)


class TestExperimentConfig:
    """Argument checks of the fBm sampler."""

    def test_validation(self):
        with pytest.raises(ValueError):
            fbm_functional_samples(4, [0.5], 1, 0)
        with pytest.raises(ValueError):
            fbm_functional_samples(4, [0.5], 2, -1)
        with pytest.raises(TypeError):
            fbm_functional_samples(4, [0.5], 2.5, 0)
        with pytest.raises(ValueError):
            fbm_functional_samples(4, [], 2, 0)
        with pytest.raises(ValueError):
            fbm_functional_samples(4, [0.5, 1.5], 2, 0)


@pytest.mark.parametrize("n_points", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("compute", [
    build_embedding, fbm_vector_spec, average_second_moment,
    lambda n, h: fbm_functional_samples(n, [h], 4, 0),
], ids=["build_embedding", "fbm_vector_spec", "average_second_moment", "fbm_samples"])
def test_grid_size_must_be_an_integer(monkeypatch, compute, n_points):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(TypeError, match="must be an integer"):
        compute(n_points, 0.5)


@pytest.mark.parametrize("sample_size, error", [
    (2.5, TypeError), (True, TypeError), (1, ValueError)], ids=["float", "bool", "one"])
@pytest.mark.parametrize("sampler", [
    lambda size: fbm_functional_samples(8, [0.5], size, 0),
    lambda size: iid_limit_samples(8, size, 0),
], ids=["fbm", "iid"])
def test_sample_size_is_checked_before_any_work(monkeypatch, sampler, sample_size, error):
    # both samplers check it alike, before an embedding or a replication stream
    monkeypatch.setattr(fbmax.montecarlo, "build_embedding", lambda *a: pytest.fail("embedded"))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(error, match="sample_size"):
        sampler(sample_size)


@pytest.mark.parametrize("master_seed, error", [
    (-1, ValueError), (1.5, TypeError), (True, TypeError)], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("sampler", [
    lambda seed: fbm_functional_samples(8, [0.5], 4, seed),
    lambda seed: iid_limit_samples(8, 4, seed),
], ids=["fbm", "iid"])
def test_master_seed_is_checked_before_any_work(monkeypatch, sampler, master_seed, error):
    # numpy would refuse -1 only after the embeddings, and take True as seed 1
    monkeypatch.setattr(fbmax.montecarlo, "build_embedding", lambda *a: pytest.fail("embedded"))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(error, match="master_seed"):
        sampler(master_seed)


class TestFbmExperiment:
    def test_deterministic_rerun(self):
        first, second = (fbm_functional_samples(16, [0.2, 0.7], 9, 5) for _ in range(2))
        for hurst in (0.2, 0.7):
            for kind in REDUCTIONS:
                np.testing.assert_array_equal(first[hurst][kind], second[hurst][kind])

    def test_chunking_does_not_change_samples(self, monkeypatch):
        base = fbm_functional_samples(32, [0.3], 11, 7)[0.3]
        monkeypatch.setattr(fbmax.montecarlo, "CHUNK_DRAW_BUDGET", 1)
        small = fbm_functional_samples(32, [0.3], 11, 7)[0.3]
        for kind in base:
            np.testing.assert_array_equal(base[kind], small[kind])

    @pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
    def test_every_hurst_equals_its_own_call(self, monkeypatch, order):
        # N = 32 embeds in 64 points, 128 draws per pair: two pairs per chunk,
        # so 13 replications take four chunks, the last with one path of two
        monkeypatch.setattr(fbmax.montecarlo, "CHUNK_DRAW_BUDGET", 256)
        hursts = [0.05, 0.3, 0.5, 0.9][::order]
        shared = fbm_functional_samples(32, hursts, 13, 7)
        assert list(shared) == hursts
        for hurst in hursts:
            alone = fbm_functional_samples(32, [hurst], 13, 7)[hurst]
            for kind in REDUCTIONS:
                np.testing.assert_array_equal(shared[hurst][kind], alone[kind])

    def test_peak_memory_is_the_three_reused_buffers(self):
        # N = 2^14 embeds in m = 2^15 points, so a chunk holds 64 pairs and
        # 500 replications take four chunks: the normals (64, 2m), their
        # complex transform (64, m) and the paths (128, N) must be all the
        # chunk-sized memory, with no temporary per chunk or per H
        n, m = 2 ** 14, 2 ** 15
        pairs = fbmax.montecarlo.CHUNK_DRAW_BUDGET // (2 * m)
        buffers = pairs * 2 * m * 8 + pairs * m * 16 + 2 * pairs * n * 8
        tracemalloc.start()
        try:
            fbm_functional_samples(n, [0.09, 0.01, 0.0013, 0.0001], 500, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * buffers

    def test_odd_sample_size(self):
        samples = fbm_functional_samples(8, [0.5], 5, 1)[0.5]
        assert list(samples) == ["max", "average"]
        assert all(v.shape == (5,) for v in samples.values())

    def test_max_dominates_average_per_path(self):
        samples = fbm_functional_samples(64, [0.1], 20, 2)[0.1]
        assert np.all(samples["max"] >= samples["average"])

    def test_single_point_grid_is_standard_normal(self):
        # one grid point: the path is B(1) ~ N(0, 1) and max == average
        samples = fbm_functional_samples(1, [0.5], 400, 11)[0.5]
        np.testing.assert_array_equal(samples["max"], samples["average"])
        m = summarize(samples["max"])
        se = math.sqrt(m.variance / m.count)
        assert abs(m.mean) < 5.0 * se
        assert m.variance == pytest.approx(1.0, rel=0.3)

    @pytest.mark.parametrize("exponent, exact", [(6, 0.72194), (10, 0.77948)])
    def test_max_matches_spitzer_at_half(self, exponent, exact):
        # H = 1/2 is a Gaussian random walk; Spitzer's identity gives the exact
        # grid value E max_{1<=i<=N} B(i/N) = (2 pi N)^{-1/2} sum_{k<N} k^{-1/2}
        n = 2 ** exponent
        spitzer = math.fsum(k ** -0.5 for k in range(1, n)) / math.sqrt(2.0 * math.pi * n)
        assert spitzer == pytest.approx(exact, abs=5e-6)
        m = summarize(fbm_functional_samples(n, [0.5], 4000, 9)[0.5]["max"])
        assert abs(m.mean - spitzer) < 4.0 * math.sqrt(m.variance / m.count)


def _brute_force_iid_limit(n_points, sample_size, seed, rows=500):
    """(1/sqrt 2) max(0, max of N iid normals), drawing all N normals per sample."""
    rng = np.random.default_rng(seed)
    maxima = [rng.standard_normal((min(rows, sample_size - start), n_points)).max(axis=1)
              for start in range(0, sample_size, rows)]
    return np.maximum(np.concatenate(maxima), 0.0) / math.sqrt(2.0)


class TestIidLimitExperiment:
    def test_deterministic_and_nonnegative(self):
        a = iid_limit_samples(10, 5, 3)
        b = iid_limit_samples(10, 5, 3)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0)

    def test_smaller_sample_is_prefix(self):
        np.testing.assert_array_equal(iid_limit_samples(2 ** 20, 5, 3),
                                      iid_limit_samples(2 ** 20, 9, 3)[:5])

    @pytest.mark.parametrize("exponent, seed", [(8, 31), (12, 32)])
    def test_matches_brute_force_maximum(self, exponent, seed):
        exact = summarize(iid_limit_samples(2 ** exponent, 4000, seed))
        brute = summarize(_brute_force_iid_limit(2 ** exponent, 4000, seed + 100))
        se = math.sqrt(exact.variance / exact.count + brute.variance / brute.count)
        assert abs(exact.mean - brute.mean) < 4.0 * se

    @pytest.mark.parametrize("n_points", [1, 2 ** 8, 2 ** 31])
    def test_inverts_the_cdf_of_the_maximum(self, n_points):
        # P(max of N normals <= m) = Phi(m)^N, and each sample is m / sqrt 2
        samples = iid_limit_samples(n_points, 500, 6)
        log_u = np.log(np.random.default_rng(6).random(500))
        positive = samples > 0.0
        assert positive.any()
        np.testing.assert_allclose(n_points * log_ndtr(math.sqrt(2.0) * samples[positive]),
                                   log_u[positive], rtol=1e-12)

    def test_zero_uniform_maps_to_zero_silently(self, monkeypatch):
        class Uniforms:
            def random(self, size):
                return np.array([0.0, 0.5, 0.0])[:size]

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Uniforms())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = iid_limit_samples(2 ** 10, 3, 0)
        assert samples[0] == samples[2] == 0.0 and samples[1] > 0.0

    def test_single_draw_mean(self):
        # E max(0, xi)/sqrt(2) = 1/(2 sqrt(pi))
        r = run_iid_limit_experiment(1, 3000, 24)
        se = math.sqrt(r.variance / r.count)
        assert r.mean == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=3.0 * se)

    def test_mean_matches_limit_integral(self):
        r = run_iid_limit_experiment(256, 2000, 22)
        se = math.sqrt(r.variance / r.count)
        assert r.mean == pytest.approx(limit_integral(256), abs=3.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            iid_limit_samples(0, 5, 3)
        with pytest.raises(ValueError):
            iid_limit_samples(4, 1, 3)

    @pytest.mark.parametrize("n_points, error", [
        (2.5, TypeError), (True, TypeError), (2 ** 1100, ValueError)],
        ids=["float", "bool", "above_2^1023"])
    def test_rejects_bad_n_before_any_draw(self, monkeypatch, n_points, error):
        # N is checked as limit_integral checks it: an integer up to 2^1023
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
        with pytest.raises(error, match="2\\^1023" if error is ValueError else "integer"):
            iid_limit_samples(n_points, 3, 0)
