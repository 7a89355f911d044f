import math
import tracemalloc
import warnings

import numpy as np
import pytest

from noa import bench, nested
from noa.bench import (
    INTEGRANDS,
    check_inputs,
    estimate,
    fit_rate,
    format_estimates_csv,
    kind_points,
    make_integrand,
    run_bench,
)
from noa.bush import bush_construct
from noa.designs import MAX_ENTRIES, Design
from noa.errors import (
    ConstructionError,
    DimensionMismatchError,
    FieldOverflowError,
    InternalInvariantError,
    NoNontrivialPlanError,
)
from noa.gf import field_of_order
from noa.sampling import PointSet, parse_points, to_points


def test_integrand_true_values():
    assert make_integrand("ADD-LIN", 3).true_integral == 0.0
    assert make_integrand("ADD-EXP", 3).true_integral == pytest.approx(3 * (math.e - 1))
    assert make_integrand("BILIN", 2).true_integral == 0.0
    assert make_integrand("TRILIN", 3).true_integral == 0.0
    assert make_integrand("PROD-EXP", 2).true_integral == pytest.approx((math.e - 1) ** 2)
    with pytest.raises(ValueError):
        make_integrand("NOPE", 3)
    with pytest.raises(ValueError):
        make_integrand("TRILIN", 2)
    with pytest.raises(ValueError, match="BILIN needs d >= 2"):
        make_integrand("BILIN", 1)


@pytest.mark.parametrize("name, row, value", [
    ("ADD-LIN", [0.25], -0.25),
    ("ADD-EXP", [0.25], math.exp(0.25)),
    ("BILIN", [0.25, 0.75], -0.0625),
    # a third column that would zero the product if BILIN read it in place of the second
    ("BILIN", [0.25, 0.75, 0.5], -0.0625),
    ("TRILIN", [0.25, 0.75, 0.125], 0.0234375),
    ("PROD-EXP", [0.25], math.exp(0.25)),
])
def test_integrand_value_at_a_fixed_point(name, row, value):
    # each at its smallest d, BILIN also at d = 3; the points are exact in binary
    f = make_integrand(name, len(row))
    assert f.fn(np.array([row]))[0] == pytest.approx(value, rel=1e-15, abs=0)


def test_estimate_lhs_midpoint_add_lin_exact():
    design = nested.construct(nested.plan("lhs", 16, 3), 4)
    pts = to_points(design, "midpoint")
    assert estimate(pts, make_integrand("ADD-LIN", 3)) == pytest.approx(0.0, abs=1e-13)


def test_estimate_strength2_midpoint_bilin_exact():
    design = bush_construct(field_of_order(4), 2)
    pts = to_points(design, "midpoint")
    f = make_integrand("BILIN", design.d)
    assert estimate(pts, f) == pytest.approx(0.0, abs=1e-13)


def test_estimate_single_centroid():
    pts = PointSet(np.array([[0.5]]))
    assert estimate(pts, make_integrand("ADD-EXP", 1)) == pytest.approx(math.e**0.5)


@pytest.mark.parametrize("name", INTEGRANDS)
def test_estimate_in_row_blocks_equals_whole_array_mean(name):
    # every integrand maps each row on its own, so block evaluation changes no bit
    n = 2 * bench._BLOCK_ROWS + 3
    for d in (3, 8):
        points = PointSet(np.random.default_rng(d).random((n, d)))
        f = make_integrand(name, d)
        assert estimate(points, f) == float(np.mean(f.fn(points.points)))


def test_estimate_memory_is_row_blocks():
    # one length-n vector of values beside the points, and one block's temporaries
    points = to_points(nested.construct(nested.plan("lhs", 2**18, 8), 0), "uniform", 1)
    for name in INTEGRANDS:
        f = make_integrand(name, 8)
        tracemalloc.start()
        try:
            estimate(points, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * points.points.nbytes, name


def test_estimate_dimension_mismatch():
    pts = PointSet(np.array([[0.5, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        estimate(pts, make_integrand("ADD-EXP", 3))


def test_estimate_refuses_an_empty_point_set():
    # a points file may hold no rows; the mean of none would be nan, with a warning
    empty = parse_points("# noa-points v1 n=0 d=3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty point set"):
            estimate(empty, make_integrand("ADD-LIN", 3))


@pytest.mark.parametrize("kind", ["iid", "lhs", "oa2", "tang", "noa3"])
def test_kind_points_shape_and_determinism(kind):
    plan = nested.Plan("iid", 64, 3, ()) if kind == "iid" else nested.plan(kind, 64, 3)
    a = kind_points(plan, 11)
    b = kind_points(plan, 11)
    assert a.points.shape == (64, 3)
    assert (a.points == b.points).all()


def test_run_bench_deterministic():
    a = run_bench(16, 3, ["iid", "lhs"], "ADD-EXP", 20, 5)
    b = run_bench(16, 3, ["iid", "lhs"], "ADD-EXP", 20, 5)
    assert a.to_json() == b.to_json()


def test_run_bench_mse_identity():
    rep = run_bench(16, 3, ["iid", "lhs", "tang"], "ADD-EXP", 50, 1)
    for st in rep.results.values():
        bias = st.mean - rep.true_integral
        assert st.mse == pytest.approx(st.var + bias * bias, rel=1e-12)


def test_run_bench_degenerate_single_rep():
    rep = run_bench(16, 3, ["iid"], "ADD-LIN", 1, 0)
    assert rep.degenerate_reps
    assert rep.results["iid"].var == 0.0


def test_run_bench_runs_at_one_run():
    # iid and lhs have a design of a single run
    rep = run_bench(1, 2, ["iid", "lhs"], "ADD-LIN", 3, 0)
    assert list(rep.results) == ["iid", "lhs"]
    assert all(st.estimates.shape == (3,) for st in rep.results.values())


def test_check_inputs_accepts_exactly_max_drawn_coordinates():
    # 2^23 replications of 16 x 16 points draw 2^31 coordinates; checked, none run
    assert 2**23 * 16 * 16 == bench.MAX_DRAWN
    check_inputs((16,), 16, ["iid"], 2**23, "ADD-LIN", 0)
    with pytest.raises(FieldOverflowError, match=f"exceed {bench.MAX_DRAWN} drawn coordinates"):
        check_inputs((16,), 16, ["iid"], 2**23 + 1, "ADD-LIN", 0)


def test_run_bench_labels_failing_kind():
    # n=24 has no noa3 plan; oa2 at n=16 has s=4, so at most s + 1 = 5 columns
    for n, d, kind in [(24, 3, "noa3"), (16, 6, "oa2")]:
        with pytest.raises(ConstructionError) as exc:
            run_bench(n, d, [kind], "ADD-LIN", 2, 0)
        assert f"kind {kind!r} failed" in str(exc.value)


def test_prod_exp_refuses_d_past_709():
    # e^d bounds the integrand and its integral; past d = 709 it overflows a float
    assert math.isfinite(make_integrand("PROD-EXP", 709).true_integral)
    with pytest.raises(ValueError, match="PROD-EXP needs d <= 709"):
        make_integrand("PROD-EXP", 710)


def test_prod_exp_refuses_d_below_1():
    with pytest.raises(ValueError, match="PROD-EXP needs d >= 1"):
        make_integrand("PROD-EXP", 0)


@pytest.mark.parametrize("d", [*range(1, 33), 709])
def test_prod_exp_is_the_row_product_bit_for_bit(d):
    # the column-at-a-time product against numpy's reduction along each row,
    # on a block of rows and on one row
    x = np.random.default_rng(d).random((bench._BLOCK_ROWS, d))
    fn = make_integrand("PROD-EXP", d).fn
    for rows in (x, x[:1]):
        assert fn(rows).tobytes() == np.exp(rows).prod(axis=1).tobytes()


def test_run_bench_refuses_an_empty_kind_list():
    with pytest.raises(ValueError, match="kinds must name at least one design kind"):
        run_bench(16, 3, [], "ADD-LIN", 2, 0)


def test_run_bench_refuses_more_replications_than_it_keeps(monkeypatch):
    calls = counting(monkeypatch, bench, "kind_points")
    reps = MAX_ENTRIES + 1
    with pytest.raises(FieldOverflowError, match=f"{reps} replications exceed {MAX_ENTRIES}"):
        run_bench(1, 1, ["iid"], "ADD-LIN", reps, 0)
    assert calls == []


def test_oa2_requires_square():
    # a plan's refusal, like tang's and noa3's, which run_bench then labels with the kind
    with pytest.raises(NoNontrivialPlanError, match="oa2 needs n a square of a prime power"):
        nested.plan("oa2", 24, 3)
    with pytest.raises(ConstructionError, match="kind 'oa2' failed for n=24, d=3: oa2 needs"):
        run_bench(24, 3, ["oa2"], "ADD-LIN", 2, 0)


def test_fit_rate_degenerate_constant():
    # an LHS integrates a constant-in-each-coordinate-sum... use midrange:
    # ADD-LIN over full LHS designs is not constant, so craft degeneracy via
    # single-replication variance zero
    fit = fit_rate([8, 16, 32], 3, ["iid"], "ADD-LIN", 1, 0)["iid"]
    assert fit.degenerate and fit.slope is None


def test_fit_rate_needs_three_points():
    # three equal run counts are one point: the fit would be degenerate
    for ns in ([8, 16], [8, 8, 8]):
        with pytest.raises(ValueError):
            fit_rate(ns, 3, ["iid"], "ADD-LIN", 10, 0)


def test_estimates_csv():
    rep = run_bench(16, 3, ["iid"], "ADD-LIN", 3, 2)
    text = format_estimates_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,rep,estimate"
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) == pytest.approx(rep.results["iid"].estimates[0])


def test_unbiased_small():
    rep = run_bench(16, 3, ["lhs", "tang"], "ADD-EXP", 400, 9)
    for st in rep.results.values():
        se = math.sqrt(st.var / rep.reps)
        assert abs(st.mean - rep.true_integral) < 5 * se


def counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_bench_runs_each_kind_once(monkeypatch):
    once = run_bench(16, 3, ["lhs"], "ADD-EXP", 10, 3).to_json()
    calls = counting(monkeypatch, bench, "kind_points")
    assert run_bench(16, 3, ["lhs", "lhs"], "ADD-EXP", 10, 3).to_json() == once
    assert len(calls) == 10


def test_run_bench_plans_each_kind_once(monkeypatch):
    # the plan made before the first replication is the one every replication builds
    calls = counting(monkeypatch, nested, "_prime_power_roots")
    run_bench(64, 3, ["tang"], "ADD-EXP", 20, 0)
    assert calls == [(64, 2)]


def test_check_inputs_plans_each_kind_once_in_the_order_first_named(monkeypatch):
    calls = counting(monkeypatch, nested, "plan")
    plans, f = check_inputs((16, 64), 3, ["tang", "iid", "lhs", "tang"], 5, "BILIN", 0)
    assert list(plans) == ["tang", "iid", "lhs"]
    assert plans["iid"] == {16: nested.Plan("iid", 16, 3, ()), 64: nested.Plan("iid", 64, 3, ())}
    assert calls == [("tang", 16, 3), ("tang", 64, 3), ("lhs", 16, 3), ("lhs", 64, 3)]
    assert plans["lhs"][64] == nested.plan("lhs", 64, 3)
    assert (f.name, f.d) == ("BILIN", 3)


def test_check_inputs_builds_the_integrand_first(monkeypatch):
    calls = counting(monkeypatch, nested, "plan")
    with pytest.raises(ValueError, match="unknown integrand 'NOPE'"):
        check_inputs((0,), 3, ["bogus"], 0, "NOPE", -1)
    assert calls == []


@pytest.mark.parametrize(
    "n,d,reps,seed",
    [(np.int64(64), 3, 3, 0), (64, np.uint8(3), 3, 0), (64, 3, np.int64(3), 0), (64, 3, 3, np.uint64(0))],
)
def test_run_bench_report_holds_python_ints(n, d, reps, seed):
    # a numpy integer passes, and the report's json is that of the int run
    report = run_bench(n, d, ["lhs"], "ADD-LIN", reps, seed)
    assert report.to_json() == run_bench(64, 3, ["lhs"], "ADD-LIN", 3, 0).to_json()
    assert all(type(v) is int for v in (report.n, report.d, report.reps, report.seed))


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda: run_bench(64.0, 3, ["lhs"], "ADD-LIN", 2, 0), "n=64.0"),
        (lambda: run_bench(64, 3, ["lhs"], "ADD-LIN", 2.5, 0), "reps=2.5"),
        (lambda: run_bench(64, 3, ["lhs"], "ADD-LIN", 2, 1.5), "seed=1.5"),
        (lambda: check_inputs((16,), 3.0, ["iid"], 2, "ADD-LIN", 0), "d=3.0"),
        (lambda: check_inputs((16, "64"), 3, ["iid"], 2, "ADD-LIN", 0), "n='64'"),
        (lambda: fit_rate([16.5, 64, 256], 3, ["iid"], "ADD-LIN", 2, 0), "n=16.5"),
    ],
)
def test_bench_inputs_must_be_integers(monkeypatch, call, bad):
    # refused before any replication: 1.5 is not truncated, nor 16.5 fitted as 16
    calls = counting(monkeypatch, bench, "kind_points")
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        call()
    assert calls == []


def test_fit_rate_variances_are_run_bench_variances(monkeypatch):
    # one fit per kind, each variance the one run_bench gives at that n, a run
    # count named twice run and listed once
    calls = counting(monkeypatch, bench, "kind_points")
    fits = fit_rate([16, 64, 256, 64], 3, ["lhs", "iid"], "ADD-EXP", 10, 2)
    assert list(fits) == ["lhs", "iid"]
    assert [(plan.kind, plan.n) for plan, _ in calls] == [
        (kind, n) for kind in ("lhs", "iid") for n in (16, 64, 256) for _ in range(10)
    ]
    for kind, fit in fits.items():
        assert fit.ns == (16, 64, 256)
        assert fit.variances == tuple(
            run_bench(n, 3, [kind], "ADD-EXP", 10, 2).results[kind].var for n in fit.ns
        )


def test_a_replications_internal_error_is_not_relabelled(monkeypatch):
    # only a refused plan names the kind; a construction that fails its own
    # checks is a bug, and surfaces as itself
    def broken(plan, seed):
        raise InternalInvariantError("column 0 is not a permutation")

    monkeypatch.setattr(nested, "construct", broken)
    with pytest.raises(InternalInvariantError, match="column 0 is not a permutation"):
        run_bench(16, 3, ["iid", "lhs"], "ADD-LIN", 2, 0)

