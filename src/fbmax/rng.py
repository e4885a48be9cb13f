"""Deterministic per-replication random streams.

Every replication of an experiment draws from its own generator, keyed by
(master seed, replication index). Streams can therefore be reproduced in
isolation and replications may run in any order, or in parallel, without
changing the results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replication_rng"]


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
