"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from noa.bench import fit_rate, run_bench
from noa.bush import bush_construct
from noa.cli import main
from noa.designs import check_strength, collapse, nested64_fixture
from noa.errors import NoNontrivialPlanError
from noa.gf import field_of_order
from noa.nested import construct, plan
from noa.sampling import to_points


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_bush_correctness():
    start = time.monotonic()
    for s in (2, 3, 4, 5, 7, 8, 9):
        for t in (2, 3):
            if t == 3 and s > 5:
                continue
            rep = check_strength(bush_construct(field_of_order(s), t), t)
            assert rep.ok and rep.lam == 1, (s, t, rep)
    elapsed = time.monotonic() - start
    report("1 bush correctness", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_golden_fixture():
    start = time.monotonic()
    fx = nested64_fixture()
    counts_ok = all(
        (np.bincount(fx.matrix[:, j], minlength=8) == 8).all() for j in range(5)
    )
    rep2 = check_strength(fx, 2)
    rep3 = check_strength(collapse(fx, 4), 3)
    elapsed = time.monotonic() - start
    ok = counts_ok and rep2.ok and rep2.lam == 1 and rep3.ok and rep3.lam == 1
    report(
        "2 golden fixture",
        ok and elapsed < 1.0,
        f"counts={counts_ok} t2={rep2.ok} t3@4={rep3.ok and rep3.lam == 1}; "
        f"t2 violation={rep2.violation}",
    )


ACCEPTANCE_INSTANCES = [(64, 3), (128, 3), (81, 3), (256, 4)]


def test_criterion_3_ladder_soundness():
    start = time.monotonic()
    for n, d in ACCEPTANCE_INSTANCES:
        chosen = plan("noa3", n, d)
        for seed in range(100):
            design = construct(chosen, seed)
            for levels, t in chosen.ladder:
                rep = check_strength(collapse(design, levels), t)
                assert rep.ok and rep.lam == n // levels**t, (n, d, seed, levels, t)
    elapsed = time.monotonic() - start
    report("3 ladder soundness", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_4_pair_coverage():
    for n, d in ACCEPTANCE_INSTANCES:
        chosen = plan("noa3", n, d)
        for seed in range(100):
            coarse = collapse(construct(chosen, seed), chosen.s3).matrix
            block_size = chosen.s3 * chosen.s3
            for start_row in range(0, n, block_size):
                block = coarse[start_row : start_row + block_size]
                for j1, j2 in itertools.combinations(range(d), 2):
                    idx = block[:, j1] * chosen.s3 + block[:, j2]
                    assert (np.bincount(idx, minlength=block_size) == 1).all(), (
                        n, d, seed, start_row, j1, j2,
                    )
    report("4 pair coverage", True)


def test_criterion_5_midpoint_exactness():
    for n, d in [(64, 3), (81, 3)]:
        chosen = plan("noa3", n, d)
        design = construct(chosen, 23)
        for levels, t in chosen.ladder:
            rung = collapse(design, levels)
            assert check_strength(rung, t).ok
            pts = to_points(rung, "midpoint").points
            for size in range(1, t + 1):
                for cols in itertools.combinations(range(d), size):
                    terms = np.ones(n)
                    for j in cols:
                        terms = terms * (pts[:, j] - 0.5)
                    assert abs(math.fsum(terms) / n) <= 1e-12, (n, levels, t, cols)
    report("5 midpoint exactness", True)


def test_criterion_6_unbiasedness():
    rep = run_bench(64, 3, ["iid", "lhs", "oa2", "tang", "noa3"], "ADD-EXP", 5000, 55)
    worst = 0.0
    for kind, st in rep.results.items():
        se = math.sqrt(st.var / rep.reps)
        z = abs(st.mean - rep.true_integral) / se
        worst = max(worst, z)
        assert z < 4.0, (kind, z)
    report("6 unbiasedness", True, f"worst |z| = {worst:.2f}")


def test_criterion_7_variance_ordering():
    start = time.monotonic()
    add = run_bench(64, 3, ["iid", "lhs", "oa2", "noa3"], "ADD-LIN", 2000, 202).results
    bil = run_bench(64, 3, ["lhs", "noa3"], "BILIN", 2000, 202).results
    checks = [
        ("Var(lhs) < 0.1 Var(iid) on ADD-LIN", add["lhs"].var < 0.1 * add["iid"].var),
        ("Var(noa3) < 0.1 Var(iid) on ADD-LIN", add["noa3"].var < 0.1 * add["iid"].var),
        ("Var(noa3) < 0.5 Var(lhs) on BILIN", bil["noa3"].var < 0.5 * bil["lhs"].var),
        ("Var(noa3) < 0.5 Var(oa2) on ADD-LIN", add["noa3"].var < 0.5 * add["oa2"].var),
    ]
    elapsed = time.monotonic() - start
    for name, ok in checks:
        assert ok, name
    report("7 variance ordering", elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_8_rate():
    start = time.monotonic()
    fits = fit_rate([16, 64, 256, 1024], 3, ["lhs", "iid"], "ADD-EXP", 2000, 77)
    lhs, iid = fits["lhs"], fits["iid"]
    elapsed = time.monotonic() - start
    ok = (
        not lhs.degenerate
        and abs(lhs.slope - (-3.0)) <= 0.5
        and not iid.degenerate
        and abs(iid.slope - (-1.0)) <= 0.3
        and elapsed < 300.0
    )
    report("8 rate check", ok, f"lhs slope {lhs.slope:.2f}, iid slope {iid.slope:.2f}, {elapsed:.1f}s")


def test_criterion_9_error_paths(capsys):
    with pytest.raises(NoNontrivialPlanError):
        plan("noa3", 24, 3)
    code = main(["gen", "--kind", "noa3", "--n", "24", "--d", "3"])
    capsys.readouterr()
    assert code == 2
    with pytest.raises(NoNontrivialPlanError):
        construct(plan("tang", 6, 3), 0)
    report("9 error paths", True)


def largest_interaction_corr(x):
    """max |corr(x_i, x_j * x_k)| over columns i and pairs j < k, all centred.

    A strength-3 design's midpoints make every such sum vanish; the paper's
    claim is that the nested design drives it down faster in n than a
    Latin hypercube or a strength-2 (Tang) design does.
    """
    c = x - x.mean(axis=0)
    worst = 0.0
    for j, k in itertools.combinations(range(x.shape[1]), 2):
        prod = c[:, j] * c[:, k]
        prod -= prod.mean()
        for col in c.T:
            corr = (col @ prod) / math.sqrt((col @ col) * (prod @ prod))
            worst = max(worst, abs(corr))
    return worst


def test_criterion_10_interactions_fall_fastest_for_the_nested_design():
    # medians over seeds 0-29 at d = 3 (measured when written: lhs 0.187,
    # 0.0688, 0.0208; tang 0.106, 0.0333, 0.0074; noa3 0.0570, 0.0087,
    # 0.00096, slopes -0.53, -0.64, -0.98); the thresholds are fixed, never re-seeded
    start = time.monotonic()
    ns, d = (64, 512, 4096), 3
    medians = {}
    for kind in ("lhs", "tang", "noa3"):
        stats = []
        for n in ns:
            chosen = plan(kind, n, d)
            per_seed = []
            for seed in range(30):
                design = construct(chosen, seed)
                per_seed.append(largest_interaction_corr(to_points(design, "midpoint").points))
                if kind == "noa3":  # the strength-3 rung: every such sum is zero
                    rung = to_points(collapse(design, chosen.s3), "midpoint").points
                    assert largest_interaction_corr(rung) < 1e-12, (n, seed)
            stats.append(float(np.median(per_seed)))
        medians[kind] = stats
    slopes = {k: float(np.polyfit(np.log(ns), np.log(m), 1)[0]) for k, m in medians.items()}
    elapsed = time.monotonic() - start
    for i, n in enumerate(ns):
        assert medians["noa3"][i] < medians["tang"][i] < medians["lhs"][i], (n, medians)
    assert slopes["noa3"] < -0.8 and slopes["lhs"] > -0.75 and slopes["tang"] > -0.75, slopes
    report(
        "10 interaction decay",
        True,
        ", ".join(f"{k} slope {v:.2f}" for k, v in slopes.items()) + f", {elapsed:.2f}s",
    )


def test_criterion_11_strength_3_removes_a_three_factor_interaction():
    # TRILIN, (x0 - 1/2)(x1 - 1/2)(x2 - 1/2), is a pure three-factor
    # interaction: strength 3 at s3 levels should remove most of its variance,
    # strength 2 none of it.  Measured when written: tang/iid 1.119, noa3/iid
    # 0.0495, noa3/tang 0.0443; the thresholds are fixed, never re-seeded.
    start = time.monotonic()
    reps = 1000
    results = run_bench(64, 3, ["iid", "tang", "noa3"], "TRILIN", reps, 11).results
    var = {kind: st.var for kind, st in results.items()}
    # The band: each sample variance of R normal estimates has relative
    # standard error sqrt(2/(R-1)) (the estimates' excess kurtosis read 0.1
    # or less, so the normal value holds), and the ratio of two independent
    # ones sqrt(2 * 2/(R-1)), 0.063 at R = 1000.  Var(tang)/Var(iid) must lie
    # within 4 of those of 1, where no reduction puts it: [0.75, 1.25].
    se = math.sqrt(4 / (reps - 1))
    tang_iid = var["tang"] / var["iid"]
    elapsed = time.monotonic() - start
    assert var["noa3"] < 0.1 * var["tang"], var
    assert abs(tang_iid - 1) < 4 * se, (tang_iid, se)
    report(
        "11 three-factor interaction",
        True,
        f"tang/iid {tang_iid:.3f}, noa3/tang {var['noa3'] / var['tang']:.4f}, {elapsed:.2f}s",
    )
