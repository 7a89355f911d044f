"""noa's strength checker against designs it did not build.

scipy's ``qmc.LatinHypercube(d, strength=2)`` builds Tang's (1993)
OA-based Latin hypercube on its own code path, for n = p^2 with p prime.
A fault shared by noa's Bush construction and its checker would pass
every noa-built design; scipy's points share neither.  And a fault in noa's
relabelling or level expansion would move the variance of noa's ``tang``
estimates away from scipy's, two implementations of one construction.
"""

import math

import numpy as np
import pytest
from scipy.stats import qmc

from noa.bench import make_integrand, run_bench
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


def test_noa_tang_and_scipy_oa_lhs_give_equal_variance():
    # n = 49, d = 3: noa's tang replications against as many scipy point
    # sets, each of which both integrands are evaluated on.  Each ratio of
    # two independent sample variances of R near-normal estimates has relative
    # standard error sqrt(2 * 2/(R-1)), 0.082 at R = 600, and must lie within
    # 4 of those of 1: [0.67, 1.33].  Measured when written: 0.985 (BILIN),
    # 1.131 (ADD-EXP); the band is fixed, never widened or re-seeded.
    reps, fs = 600, [make_integrand(name, 3) for name in ("BILIN", "ADD-EXP")]
    engine = qmc.LatinHypercube(3, strength=2, rng=np.random.default_rng(0))
    draws = (engine.random(49) for _ in range(reps))
    scipy_ests = np.array([[f.fn(x).mean() for f in fs] for x in draws])
    se = math.sqrt(4 / (reps - 1))
    for f, ests in zip(fs, scipy_ests.T):
        ratio = run_bench(49, 3, ["tang"], f.name, reps, 0).results["tang"].var / ests.var(ddof=1)
        assert abs(ratio - 1) < 4 * se, (f.name, ratio, se)
