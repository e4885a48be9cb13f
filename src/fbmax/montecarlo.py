"""Replication harness for the path-functional experiments.

Two samplers, each reproducible bit for bit from its master seed. The fBm
sampler gives every replication pair a dedicated child generator, so results
do not depend on chunking, execution order or the number of threads;
circulant synthesis yields two independent paths per FFT, and replications
2s and 2s+1 come from pair s. Its chunks run on a pool, one thread per CPU.
The iid-limit sampler inverts the CDF of the maximum at one uniform per
replication, all drawn from the root stream of the seed.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import LIMIT_MAX_POINTS, limit_quantile
from .errors import check_points
from .fbm import build_embedding, _synthesise_pairs

__all__ = [
    "REDUCTIONS",
    "replication_rng",
    "SampleSummary",
    "summarize",
    "fbm_functional_samples",
    "iid_limit_samples",
    "run_iid_limit_experiment",
]

#: Normal-approximation quantile for 95% confidence intervals.
CI95_QUANTILE = 1.96
#: Per-chunk budget of normal draws, bounding memory for many replications;
#: with their complex transform and the paths, a chunk takes 2.5 times their
#: bytes, once per thread. On one thread, chunks of 2^19 draws ran faster than
#: chunks of 2^22, and chunks of 2^17 (two pairs at N = 2^14) ran slower.
CHUNK_DRAW_BUDGET = 2 ** 19


#: The path functionals, each a reduction of sampled paths, shape (k, N) -> (k,):
#: the maximum, whose expectation the package estimates and bounds, and the
#: average, an exact probe of the sampler (see ``fbm.average_second_moment``).
REDUCTIONS = {
    "max": lambda paths: paths.max(axis=1),
    "average": lambda paths: paths.mean(axis=1),
}


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Return the generator for one replication.

    The stream is the ``index``-th spawn of ``SeedSequence(master_seed)``,
    reachable directly through its spawn key, so obtaining replication k does
    not require generating streams 0..k-1 first.
    """
    if index < 0:
        raise ValueError(f"replication index must be >= 0, got {index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    ci95_low: float
    ci95_high: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be >= 0")
        if not self.ci95_low <= self.mean <= self.ci95_high:
            raise ValueError("confidence interval must contain the mean")


def summarize(samples: np.ndarray) -> SampleSummary:
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
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def fbm_functional_samples(
    n_points: int, hursts, sample_size: int, master_seed: int
) -> dict[float, dict[str, np.ndarray]]:
    """One sample of every functional per replication, keyed by H, then by name.

    Chunks of replication pairs run on a pool of T threads, one per usable
    CPU and at most one per chunk, thread w taking chunks w, w + T, ... Each
    thread draws a chunk of normals once and synthesises it for every H into
    three buffers of its own, allocated once and reused for its chunks and
    every H: the normals, their complex transform and the paths. Each chunk
    writes its own slice of the output, so the bytes do not depend on T. An
    error in one thread, or an interrupt, stops the others at their next
    chunk and is raised to the caller. Cost is O(n N log N) per H; memory is
    T times the three buffers, at most 2.5 times the bytes of
    max(CHUNK_DRAW_BUDGET, 2 m) draws, plus each H's weights of 8 m bytes.
    """
    n = check_points(sample_size, minimum=2, name="sample_size")
    check_points(master_seed, minimum=0, name="master_seed")
    spectra = {h: build_embedding(n_points, h) for h in hursts}
    if not spectra:
        raise ValueError("hursts must not be empty")
    m, n_grid = next((s.size, s.n_points) for s in spectra.values())  # N alone sets them
    n_pairs = (n + 1) // 2
    pairs_per_chunk = min(n_pairs, max(1, CHUNK_DRAW_BUDGET // (2 * m)))
    starts = range(0, n_pairs, pairs_per_chunk)
    workers = min(_usable_cpus(), len(starts))
    out = {h: {kind: np.empty(n) for kind in REDUCTIONS} for h in spectra}
    stop = threading.Event()  # set once the call fails or is interrupted

    def run_chunks(worker: int) -> None:
        noise = np.empty((pairs_per_chunk, 2 * m))
        fourier = np.empty((pairs_per_chunk, m), dtype=complex)
        paths = np.empty((2 * pairs_per_chunk, n_grid))
        for chunk_start in starts[worker::workers]:
            if stop.is_set():
                return
            chunk = min(pairs_per_chunk, n_pairs - chunk_start)
            for row in range(chunk):
                replication_rng(master_seed, chunk_start + row).standard_normal(out=noise[row])
            first = 2 * chunk_start
            take = min(2 * chunk, n - first)
            for h, spectrum in spectra.items():
                increments = _synthesise_pairs(spectrum, noise[:chunk], fourier[:chunk])
                # row 2r of paths is the real part of pair r, row 2r + 1 its imaginary part
                np.cumsum(increments, axis=2, out=paths[:2 * chunk].reshape(chunk, 2, n_grid))
                for kind, values in out[h].items():
                    values[first:first + take] = REDUCTIONS[kind](paths[:take])

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run_chunks, w) for w in range(workers)]
        try:  # the first error, or an interrupt, stops the other threads
            for future in concurrent.futures.as_completed(futures):
                future.result()
        finally:
            stop.set()
    return out


def iid_limit_samples(n_points: int, sample_size: int, master_seed: int) -> np.ndarray:
    """Samples of (1/sqrt 2) max(0, max of N iid standard normals).

    This is the H -> 0 limit law of the scaled maximum functional, sampled by
    applying its quantile ``bounds.limit_quantile`` to one uniform per
    replication, so the cost is O(1) per replication whatever N is.
    Replication k uses the k-th uniform of the root stream of
    ``master_seed``, so a smaller sample is a prefix of a larger one.
    """
    n_points = check_points(n_points, maximum=LIMIT_MAX_POINTS)
    sample_size = check_points(sample_size, minimum=2, name="sample_size")
    check_points(master_seed, minimum=0, name="master_seed")
    u = np.random.default_rng(master_seed).random(sample_size)
    with np.errstate(divide="ignore"):  # u = 0 gives M = -inf, clipped to 0
        return limit_quantile(u, n_points)


def run_iid_limit_experiment(
    n_points: int, sample_size: int, master_seed: int
) -> SampleSummary:
    samples = iid_limit_samples(n_points, sample_size, master_seed)
    return summarize(samples)
