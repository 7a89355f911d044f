"""Seeded, keyed random streams.

Each public construction opens one generator, ``stream(seed, STAGE_DESIGN)``,
and draws every random step from it in a fixed order, whole arrays at a time.
Jittered points, iid samples and the bench replication seeds have stages of
their own, so they do not depend on how a design is drawn.
"""

from __future__ import annotations

import numpy as np

from .designs import check_int

STAGE_DESIGN = 1
STAGE_JITTER = 6
STAGE_BENCH = 7
STAGE_IID = 8


def check_seed(seed: int) -> int:
    """The seed as an int; a seed outside [0, 2^64) is refused, not wrapped."""
    seed = check_int(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    """The SeedSequence of (seed, key...), the seed checked by check_seed."""
    return np.random.SeedSequence([check_seed(seed), *map(int, key)])


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...)."""
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """A child seed usable as the user seed of a nested construction."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])
