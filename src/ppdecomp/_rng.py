"""Seed derivation: the package's one path from a seed to a random stream.

Every randomized routine takes an explicit seed and derives its streams here
through ``numpy.random.SeedSequence`` spawn keys, so that serial and
(externally) parallel execution consume identical streams. A seed is a
non-negative integer read by ``linalg.as_count`` (integral floats and numpy
integers work); any other seed raises ``InvalidInput``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_count

# Stream tags; fixed for reproducibility across releases.
STREAM_NOISE = 0        # noise-replicate imputation, one child per view
STREAM_REPLICATE = 1    # one child per bootstrap replicate
STREAM_PAIR = 2         # one child per view pair in the multi-view path
STREAM_CELL = 4         # benchmark grid cells


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    seed = as_count(seed, "seed")
    if seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for sub-stream ``key`` of ``seed``; with no key, numpy's ``default_rng(seed)``."""
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit integer seed for the sub-stream identified by ``key``."""
    return int(_seed_sequence(seed, key).generate_state(2, np.uint32).view(np.uint64)[0])
