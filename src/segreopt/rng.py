"""Counter-based random streams with per-purpose substreams.

Every random draw in this package comes from a Philox generator keyed by
``(seed, purpose, replicate)``, so toggling one source of randomness (say,
noise) never shifts the draws of another (say, the designs).
"""

from __future__ import annotations

import numbers

import numpy as np

PURPOSES = {
    "factors": 0,
    "rotation": 1,
    "noise": 2,
    "designs": 3,
    "init": 4,
    "weights": 5,
}


def _seed_sequence(seed: int, purpose: str, replicate: int) -> np.random.SeedSequence:
    if purpose not in PURPOSES:
        raise ValueError(f"unknown stream purpose {purpose!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence((int(seed), PURPOSES[purpose], int(replicate)))


def substream(seed: int, purpose: str, replicate: int = 0) -> np.random.Generator:
    """Generator for one (seed, purpose, replicate) cell of the stream grid."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, purpose, replicate)))


def substream_seed(seed: int, purpose: str, replicate: int = 0) -> int:
    """A derived 64-bit integer seed for APIs that take a plain seed."""
    return int(_seed_sequence(seed, purpose, replicate).generate_state(1, np.uint64)[0])
