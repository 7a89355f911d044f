"""Seeded, keyed random streams.

Each public construction opens one generator, ``stream(seed, STAGE_DESIGN)``,
and draws every random step from it in a fixed order, whole arrays at a time.
Jittered points, iid samples and the bench replication seeds have stages of
their own, so they do not depend on how a design is drawn.
"""

from __future__ import annotations

import numpy as np

STAGE_DESIGN = 1
STAGE_JITTER = 6
STAGE_BENCH = 7
STAGE_IID = 8


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *map(int, key)]))


def derive_seed(seed: int, *key: int) -> int:
    """A child seed usable as the user seed of a nested construction."""
    ss = np.random.SeedSequence([int(seed) & (2**64 - 1), *map(int, key)])
    return int(ss.generate_state(1, np.uint64)[0])
