"""Replication harness for the path-functional experiments.

Each replication owns a dedicated child generator derived from the master
seed, so results are bit-for-bit reproducible and independent of chunking or
execution order. Circulant synthesis yields two independent paths per FFT;
replications 2s and 2s+1 come from pair s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fbm import build_embedding, _synthesise_pairs
from .functionals import REDUCTIONS, FunctionalKind
from .grid import PathGrid
from .rng import replication_rng

__all__ = [
    "ExperimentConfig",
    "SampleSummary",
    "summarize",
    "fbm_functional_samples",
    "run_fbm_experiment",
    "iid_limit_samples",
    "run_iid_limit_experiment",
]

#: Normal-approximation quantile for 95% confidence intervals.
CI95_QUANTILE = 1.96
#: Per-chunk budget of normal draws, bounding memory for long paths.
CHUNK_DRAW_BUDGET = 2 ** 22


@dataclass(frozen=True)
class ExperimentConfig:
    grid: PathGrid
    sample_size: int
    master_seed: int
    functionals: frozenset[FunctionalKind] = field(
        default_factory=lambda: frozenset(FunctionalKind)
    )

    def __post_init__(self):
        if isinstance(self.sample_size, bool) or not isinstance(
            self.sample_size, (int, np.integer)
        ):
            raise TypeError("sample_size must be an integer")
        if self.sample_size < 2:
            raise ValueError(f"sample_size must be >= 2, got {self.sample_size}")
        if isinstance(self.master_seed, bool) or not isinstance(
            self.master_seed, (int, np.integer)
        ):
            raise TypeError("master_seed must be an integer")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        kinds = frozenset(self.functionals)
        if not kinds:
            raise ValueError("at least one functional is required")
        for kind in kinds:
            if not isinstance(kind, FunctionalKind):
                raise TypeError(f"unknown functional {kind!r}")
        object.__setattr__(self, "functionals", kinds)


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    ci95_low: float
    ci95_high: float
    functional: FunctionalKind | None = None

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be >= 0")
        if not self.ci95_low <= self.mean <= self.ci95_high:
            raise ValueError("confidence interval must contain the mean")


def summarize(
    samples: np.ndarray, functional: FunctionalKind | None = None
) -> SampleSummary:
    """Unbiased mean/variance and a normal-approximation 95% interval."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("samples must be a vector of length >= 2")
    mean = float(np.mean(samples))
    variance = float(np.var(samples, ddof=1))
    half_width = CI95_QUANTILE * math.sqrt(variance / samples.size)
    return SampleSummary(
        count=samples.size,
        mean=mean,
        variance=variance,
        ci95_low=mean - half_width,
        ci95_high=mean + half_width,
        functional=functional,
    )


def fbm_functional_samples(config: ExperimentConfig) -> dict[FunctionalKind, np.ndarray]:
    """One functional sample per replication, keyed by functional kind.

    Cost is O(n N log N) overall; synthesis is chunked so peak memory stays
    near CHUNK_DRAW_BUDGET draws regardless of n.
    """
    spectrum = build_embedding(config.grid)
    n = config.sample_size
    n_pairs = (n + 1) // 2
    draws_per_pair = 2 * spectrum.size
    pairs_per_chunk = max(1, CHUNK_DRAW_BUDGET // draws_per_pair)

    out = {kind: np.empty(n) for kind in config.functionals}
    done = 0
    for chunk_start in range(0, n_pairs, pairs_per_chunk):
        chunk = min(pairs_per_chunk, n_pairs - chunk_start)
        noise = np.empty((chunk, draws_per_pair))
        for row in range(chunk):
            rng = replication_rng(config.master_seed, chunk_start + row)
            noise[row] = rng.standard_normal(draws_per_pair)
        increments = _synthesise_pairs(spectrum, noise).reshape(2 * chunk, -1)
        take = min(2 * chunk, n - done)
        paths = np.cumsum(increments[:take], axis=1)
        for kind, values in out.items():
            values[done:done + take] = REDUCTIONS[kind](paths)
        done += take
    return out


def run_fbm_experiment(config: ExperimentConfig) -> dict[FunctionalKind, SampleSummary]:
    samples = fbm_functional_samples(config)
    return {kind: summarize(values, kind) for kind, values in samples.items()}


def iid_limit_samples(n_points: int, sample_size: int, master_seed: int) -> np.ndarray:
    """Samples of (1/sqrt 2) max(0, max of N iid standard normals).

    This is the H -> 0 limit law of the scaled maximum functional. Each
    replication streams its N draws in blocks, so N is bounded only by time.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if sample_size < 2:
        raise ValueError(f"sample_size must be >= 2, got {sample_size}")
    scale = 1.0 / math.sqrt(2.0)
    out = np.empty(sample_size)
    for rep in range(sample_size):
        rng = replication_rng(master_seed, rep)
        best = 0.0
        remaining = n_points
        while remaining > 0:
            block = min(remaining, CHUNK_DRAW_BUDGET)
            best = max(best, float(rng.standard_normal(block).max()))
            remaining -= block
        out[rep] = scale * best
    return out


def run_iid_limit_experiment(
    n_points: int, sample_size: int, master_seed: int
) -> SampleSummary:
    samples = iid_limit_samples(n_points, sample_size, master_seed)
    return summarize(samples, FunctionalKind.MAX)
