import math

import numpy as np
import pytest

import fbmax.montecarlo
from fbmax.bounds import limit_integral
from fbmax.functionals import FunctionalKind
from fbmax.grid import PathGrid
from fbmax.montecarlo import (
    ExperimentConfig,
    SampleSummary,
    fbm_functional_samples,
    iid_limit_samples,
    run_fbm_experiment,
    run_iid_limit_experiment,
    summarize,
)
from fbmax.rng import replication_rng


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

    def test_functional_tag(self):
        s = summarize(np.array([1.0, 2.0]), FunctionalKind.MAX)
        assert s.functional is FunctionalKind.MAX
        assert summarize(np.array([1.0, 2.0])).functional is None

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
    def test_defaults_request_both_functionals(self):
        cfg = ExperimentConfig(grid=PathGrid(n_points=4, hurst=0.5), sample_size=2, master_seed=0)
        assert cfg.functionals == frozenset(FunctionalKind)

    def test_validation(self):
        grid = PathGrid(n_points=4, hurst=0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(grid=grid, sample_size=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(grid=grid, sample_size=2, master_seed=-1)
        with pytest.raises(TypeError):
            ExperimentConfig(grid=grid, sample_size=2.5, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(grid=grid, sample_size=2, master_seed=0, functionals=frozenset())
        with pytest.raises(TypeError):
            ExperimentConfig(grid=grid, sample_size=2, master_seed=0, functionals={"max"})


class TestFbmExperiment:
    def test_deterministic_rerun(self):
        cfg = ExperimentConfig(grid=PathGrid(n_points=16, hurst=0.2), sample_size=9, master_seed=5)
        assert run_fbm_experiment(cfg) == run_fbm_experiment(cfg)

    def test_chunking_does_not_change_samples(self, monkeypatch):
        cfg = ExperimentConfig(grid=PathGrid(n_points=32, hurst=0.3), sample_size=11, master_seed=7)
        base = fbm_functional_samples(cfg)
        monkeypatch.setattr(fbmax.montecarlo, "CHUNK_DRAW_BUDGET", 1)
        small = fbm_functional_samples(cfg)
        for kind in base:
            np.testing.assert_array_equal(base[kind], small[kind])

    def test_odd_sample_size(self):
        cfg = ExperimentConfig(grid=PathGrid(n_points=8, hurst=0.5), sample_size=5, master_seed=1)
        samples = fbm_functional_samples(cfg)
        assert all(v.shape == (5,) for v in samples.values())

    def test_max_dominates_average_per_path(self):
        cfg = ExperimentConfig(grid=PathGrid(n_points=64, hurst=0.1), sample_size=20, master_seed=2)
        samples = fbm_functional_samples(cfg)
        assert np.all(samples[FunctionalKind.MAX] >= samples[FunctionalKind.AVERAGE])

    def test_single_point_grid_is_standard_normal(self):
        # one grid point: the path is B(1) ~ N(0, 1) and max == average
        cfg = ExperimentConfig(grid=PathGrid(n_points=1, hurst=0.5), sample_size=400, master_seed=11)
        result = run_fbm_experiment(cfg)
        m = result[FunctionalKind.MAX]
        assert m.mean == result[FunctionalKind.AVERAGE].mean
        assert m.variance == result[FunctionalKind.AVERAGE].variance
        se = math.sqrt(m.variance / m.count)
        assert abs(m.mean) < 5.0 * se
        assert m.variance == pytest.approx(1.0, rel=0.3)

    def test_requested_functionals_only(self):
        cfg = ExperimentConfig(
            grid=PathGrid(n_points=8, hurst=0.5),
            sample_size=3,
            master_seed=0,
            functionals=frozenset({FunctionalKind.MAX}),
        )
        assert set(fbm_functional_samples(cfg)) == {FunctionalKind.MAX}


class TestIidLimitExperiment:
    def test_deterministic_and_nonnegative(self):
        a = iid_limit_samples(10, 5, 3)
        b = iid_limit_samples(10, 5, 3)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0)

    def test_streaming_does_not_change_samples(self, monkeypatch):
        base = iid_limit_samples(10, 5, 3)
        monkeypatch.setattr(fbmax.montecarlo, "CHUNK_DRAW_BUDGET", 3)
        np.testing.assert_array_equal(base, iid_limit_samples(10, 5, 3))

    def test_single_draw_mean(self):
        # E max(0, xi)/sqrt(2) = 1/(2 sqrt(pi))
        r = run_iid_limit_experiment(1, 3000, 24)
        se = math.sqrt(r.variance / r.count)
        assert r.mean == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=3.0 * se)
        assert r.functional is FunctionalKind.MAX

    def test_mean_matches_limit_integral(self):
        r = run_iid_limit_experiment(256, 2000, 22)
        se = math.sqrt(r.variance / r.count)
        assert r.mean == pytest.approx(limit_integral(256), abs=3.0 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            iid_limit_samples(0, 5, 3)
        with pytest.raises(ValueError):
            iid_limit_samples(4, 1, 3)
