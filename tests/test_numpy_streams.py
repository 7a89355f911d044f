"""numpy's own streams, pinned apart from noa's construction.

Every design and point set is drawn through ``Generator.permuted`` (the
relabelling and the level expansion), ``Generator.permutation`` (lhs
columns and noa3's fine-row shuffle) and ``Generator.random`` (jittered
points, iid samples), from generators seeded by ``SeedSequence``, whose
``generate_state`` also derives the bench's per-replication seeds.  numpy's
policy (NEP 19) keeps a bit generator's raw stream stable but lets these
methods' algorithms change between feature releases.  When a golden digest
fails together with a case here, numpy's stream changed, not noa's code.
"""

import numpy as np
import pytest

SEED = np.random.SeedSequence([2016, 1])


def permuted_in_place():
    rows = np.arange(12).reshape(3, 4)
    return np.random.default_rng(SEED).permuted(rows, axis=1, out=rows).tolist()


def random_into():
    return np.random.default_rng(SEED).random(out=np.empty(3)).tolist()


DRAWS = {
    "Generator.permuted": (
        permuted_in_place,
        [[3, 0, 2, 1], [4, 5, 6, 7], [10, 11, 9, 8]],
    ),
    "Generator.permutation": (
        lambda: np.random.default_rng(SEED).permutation(10).tolist(),
        [9, 5, 8, 1, 4, 7, 2, 3, 0, 6],
    ),
    "Generator.random": (
        random_into,
        [0.17080568666518703, 0.8193403304314546, 0.20035513382460757],
    ),
    "SeedSequence.generate_state": (
        lambda: SEED.generate_state(1, np.uint64).tolist(),
        [320611932377473549],
    ),
}


@pytest.mark.parametrize("method", DRAWS)
def test_numpy_stream_is_pinned(method):
    draw, want = DRAWS[method]
    assert draw() == want, (
        f"numpy {np.__version__} changed the stream of {method}: this is numpy's "
        "stream, not noa's construction (the golden digests were taken with numpy 2.4.6)"
    )
