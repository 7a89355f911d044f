"""noa's strength checker against designs it did not build.

scipy's ``qmc.LatinHypercube(d, strength=2)`` builds Tang's (1993)
OA-based Latin hypercube on its own code path, for n = p^2 with p prime.
A fault shared by noa's Bush construction and its checker would pass
every noa-built design; scipy's points share neither.
"""

import numpy as np
import pytest
from scipy.stats import qmc

from noa.designs import Design, check_strength


def scipy_oa_lhs(p, d, seed):
    """scipy's n = p^2 point set as levels: floor(x * n) and floor(x * p)."""
    x = qmc.LatinHypercube(d, strength=2, rng=seed).random(p * p)
    return np.floor(x * p * p).astype(np.int64), np.floor(x * p).astype(np.int64)


@pytest.mark.parametrize("p, d, seed", [(7, 3, 0), (11, 5, 1), (13, 14, 2)])
def test_scipy_oa_lhs_passes_both_rungs(p, d, seed):
    fine, coarse = scipy_oa_lhs(p, d, seed)
    assert check_strength(Design(fine, s=p * p), 1).ok  # a Latin hypercube at n levels
    report = check_strength(Design(coarse, s=p), 2)
    assert report.ok and report.lam == 1
    # two rows of column 0 at different levels, swapped: column 0 keeps its
    # balance, and the two rows, which agree in at most one other column,
    # move a run out of, and into, cells of some pair (0, k)
    i, j = 0, int(np.flatnonzero(coarse[:, 0] != coarse[0, 0])[0])
    coarse[[i, j], 0] = coarse[[j, i], 0]
    swapped = Design(coarse, s=p)
    assert check_strength(swapped, 1).ok
    report = check_strength(swapped, 2)
    assert not report.ok
    assert report.violation.columns[0] == 0
    assert report.violation.observed in (0, 2) and report.violation.expected == 1.0
