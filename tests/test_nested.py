import itertools
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noa import bush, cli, designs, nested
from noa.bush import bush_construct
from noa.designs import Design, check_strength, collapse, level_dtype
from noa.errors import (
    DesignError,
    FieldOverflowError,
    InternalInvariantError,
    NoNontrivialPlanError,
    UnbalancedColumnError,
)
from noa.gf import MAX_ORDER, field_of_order, prime_power
from noa.nested import (
    Plan,
    _prime_power_roots,
    expand_to_lhs,
)
from noa.rng import check_seed


def noa_params(plan):
    """(s3, k3, p, c, b, s2) of a noa3 plan, derived from its ladder.

    k3 = n / s3^3 copies of the coarse array, the fine field's order
    q = p^c = s2 / s3, and b = n / s2^2 copies of the fine array.
    """
    n, s2, s3 = plan.n, plan.s2, plan.s3
    p, c = prime_power(s2 // s3)
    return (s3, n // s3**3, p, c, n // s2**2, s2)


def brute_force_plan(n, d):
    """Independent plain-loop enumeration of the noa3 plan identities.

    Every (s3, p, c) with k3 * s3^3 = n, b * p^(2c) = k3 * s3, s3 >= d and
    p^c + 1 >= d is a candidate; the largest s3, then the largest p^c, wins.
    """
    cands = []
    for s3 in range(d, n + 1):
        if s3**3 > n:
            break
        if not prime_power(s3) or n % s3**3:
            continue
        k3 = n // s3**3
        for p in range(2, k3 * s3 + 1):
            if prime_power(p) != (p, 1):
                continue
            for c in range(1, 20):
                if (k3 * s3) % p ** (2 * c) == 0 and p**c + 1 >= d:
                    cands.append((s3, p**c, k3, p, c, (k3 * s3) // p ** (2 * c)))
    if not cands:
        return None
    s3, pc, k3, p, c, b = max(cands)
    return (s3, k3, p, c, b, pc * s3)


@pytest.mark.parametrize(
    "n,d,expected",
    [
        (64, 3, (4, 1, 2, 1, 1, 8)),
        (256, 4, (4, 4, 2, 2, 1, 16)),
        (81, 3, (3, 3, 3, 1, 1, 9)),
        (128, 3, (4, 2, 2, 1, 2, 8)),
        # s2 = 6 is not a prime power
        (108, 3, (3, 4, 2, 1, 3, 6)),
        # the largest s3 (16, 32) leaves no fine field with p^c + 1 >= 8
        (4096, 8, (8, 8, 2, 3, 1, 64)),
        (32768, 8, (16, 8, 2, 3, 2, 128)),
    ],
)
def test_plan_examples(n, d, expected):
    plan = nested.plan("noa3", n, d)
    s3, k3, p, c, b, s2 = noa_params(plan)
    assert (s3, k3, p, c, b, s2) == expected
    assert plan.ladder == ((n, 1), (s2, 2), (s3, 3))
    assert k3 * s3**3 == n
    assert b * p ** (2 * c) == k3 * s3
    assert n % s2**2 == 0 and n // s2**2 == b


def test_plan_no_nontrivial():
    for n, d in [(24, 3), (64, 4), (512, 5)]:
        with pytest.raises(NoNontrivialPlanError) as exc:
            nested.plan("noa3", n, d)
        assert f"n={n}, d={d}" in str(exc.value)


def test_plan_matches_brute_force():
    for n, d in itertools.product(range(8, 600), [3, 4, 5, 6]):
        oracle = brute_force_plan(n, d)
        if oracle is None:
            with pytest.raises(NoNontrivialPlanError):
                nested.plan("noa3", n, d)
        else:
            assert noa_params(nested.plan("noa3", n, d)) == oracle


def test_largest_root_is_buildable():
    # 2^26 = 8192^2, 2^39 = 8192^3 and 3^16 = 6561^2, all above MAX_ORDER;
    # nothing is built at these n
    assert MAX_ORDER == 4096
    assert _prime_power_roots(2**26, 2)[-1] == 4096
    assert _prime_power_roots(2**39, 3)[-1] == 4096
    assert _prime_power_roots(3**16, 2)[-1] == 3**7
    assert _prime_power_roots(2**24, 2)[-1] == 4096


def test_plan_fields_are_buildable():
    # unbounded, s3 would be 2^20 and the fine field 2^10
    s3, k3, p, c, b, _ = noa_params(nested.plan("noa3", 2**60, 3))
    assert (s3, p, c) == (4096, 2, 12)
    assert b * p ** (2 * c) == k3 * s3


def test_plan_preconditions():
    with pytest.raises(ValueError):
        nested.plan("noa3", 4, 3)
    with pytest.raises(ValueError):
        nested.plan("noa3", 64, 2)
    with pytest.raises(AttributeError, match="a lhs plan has no strength-2 rung"):
        nested.plan("lhs", 8, 2).s2


def assert_ladder(design, ladder):
    for levels, t in ladder:
        rep = check_strength(collapse(design, levels), t)
        assert rep.ok and rep.lam == design.n // levels**t


@pytest.mark.parametrize("n,d", [(64, 3), (128, 3), (81, 3), (256, 4), (108, 3)])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_noa_ladder(n, d, seed):
    plan = nested.plan("noa3", n, d)
    assert plan.ladder == ((n, 1), (plan.s2, 2), (plan.s3, 3))
    assert_ladder(nested.construct(plan, seed), plan.ladder)


def test_harness_shims_are_the_api():
    # benchmarks/ still calls these shims; each is the plan or construct call it wraps
    plan = nested.plan("noa3", 64, 3)
    assert nested.plan_noa(64, 3) == plan
    nd = nested.construct_noa(plan, 7)
    assert np.array_equal(nd.design.matrix, nested.construct(plan, 7).matrix)
    assert nd.design.s == 64 and nd.ladder == plan.ladder
    for kind, shim in (("tang", nested.construct_tang), ("lhs", nested.construct_lhs)):
        want = nested.construct(nested.plan(kind, 64, 3), 7)
        got = shim(64, 3, 7)
        assert got.s == want.s and np.array_equal(got.matrix, want.matrix)


def oracle_ladder(kind, n, d):
    """The ladder a plain loop finds for a buildable (kind, n, d), or None."""
    if kind == "lhs":
        return ((n, 1),) if n >= 1 and d >= 1 else None
    if kind == "oa2":
        # n = s^2 rows of at most s + 1 Bush columns over GF(s)
        for s in range(2, n + 1):
            if s * s == n and prime_power(s) and 1 <= d <= s + 1:
                return ((s, min(2, d)),)
        return None
    if kind == "tang":
        # the largest prime power s2 with s2^2 | n and s2 + 1 >= d Bush columns
        roots = [s2 for s2 in range(2, n + 1) if n % s2**2 == 0 and prime_power(s2) and s2 + 1 >= d]
        return ((n, 1), (max(roots), 2)) if n >= 4 and d >= 2 and roots else None
    found = brute_force_plan(n, d) if n >= 8 and d >= 3 else None
    return None if found is None else ((n, 1), (found[5], 2), (found[0], 3))


KIND_NAMES = ["lhs", "oa2", "tang", "noa3"]
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]
# arbitrary run counts, and k * s^2 and k * s^3 for small prime powers s
RUN_COUNTS = st.integers(0, 600) | st.builds(
    lambda k, s, e: k * s**e,
    st.integers(1, 4),
    st.sampled_from(PRIME_POWERS),
    st.sampled_from([2, 3]),
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(KIND_NAMES), n=RUN_COUNTS, d=st.integers(0, 8))
def test_plan_exactly_when_the_oracle_finds_one(kind, n, d):
    want = oracle_ladder(kind, n, d)
    if want is None:
        with pytest.raises((ValueError, DesignError)):
            nested.plan(kind, n, d)
    else:
        assert nested.plan(kind, n, d) == Plan(kind, n, d, want)


@st.composite
def buildable(draw):
    """A (kind, n, d) built to satisfy its construction's conditions."""
    kind = draw(st.sampled_from(KIND_NAMES))
    if kind == "lhs":
        return kind, draw(st.integers(1, 300)), draw(st.integers(1, 6))
    if kind == "oa2":
        s = draw(st.sampled_from(PRIME_POWERS))
        return kind, s * s, draw(st.integers(1, s + 1))
    if kind == "tang":
        s2 = draw(st.sampled_from(PRIME_POWERS))
        return kind, draw(st.integers(1, 4)) * s2 * s2, draw(st.integers(2, s2 + 1))
    # s3^3 | n and q^2 | n / s3^2 for prime powers s3 >= d and q + 1 >= d
    s3, q = draw(st.sampled_from([3, 4, 5])), draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 2)) * s3**3 * q**2
    return kind, n, draw(st.integers(3, min(s3, q + 1)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=buildable(), seed=st.integers(0, 2**32 - 1))
def test_construct_keeps_the_planned_ladder(case, seed):
    kind, n, d = case
    plan = nested.plan(kind, n, d)
    assert plan.ladder == oracle_ladder(kind, n, d)
    design = nested.construct(plan, seed)
    assert design.matrix.shape == (n, d)
    assert_ladder(design, plan.ladder)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_construct_refuses_a_seed_outside_64_bits(seed):
    # -1 is not wrapped to the seed 2^64 - 1, nor 2^64 to 0
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^64\), got {seed}"):
        nested.construct(nested.plan("lhs", 6, 2), seed)
    nested.construct(nested.plan("lhs", 6, 2), (1 << 64) - 1)


@pytest.mark.parametrize("seed", [np.uint64(5), np.int8(5), 5.0, 1.5, "5"])
def test_a_seed_must_be_an_integer(seed):
    # 1.5 is not truncated to seed 1, nor "5" parsed
    chosen = nested.plan("lhs", 6, 2)
    if isinstance(seed, np.integer):
        assert check_seed(seed) == 5 and type(check_seed(seed)) is int
        assert np.array_equal(nested.construct(chosen, seed).matrix, nested.construct(chosen, 5).matrix)
        return
    with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer"):
        check_seed(seed)
    with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer"):
        nested.construct(chosen, seed)


@pytest.mark.parametrize("kind", ["lhs", "tang", "noa3"])
@pytest.mark.parametrize("n,d", [(np.int64(64), 3), (64, np.uint8(3)), (64.0, 3), (64, 3.0), ("64", 3)])
def test_plan_takes_integer_sizes(kind, n, d):
    if isinstance(n, (int, np.integer)) and isinstance(d, (int, np.integer)):
        chosen = nested.plan(kind, n, d)
        assert chosen == nested.plan(kind, 64, 3)
        assert (type(chosen.n), type(chosen.d)) == (int, int)
        design = nested.construct(chosen, 7)
        assert np.array_equal(design.matrix, nested.construct(nested.plan(kind, 64, 3), 7).matrix)
        return
    bad = f"n={n!r}" if not isinstance(n, int) else f"d={d!r}"
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        nested.plan(kind, n, d)


def test_plan_rejects_unknown_kind():
    for kind in ("iid", "bush", "NOA3"):
        with pytest.raises(ValueError, match=f"unknown design kind {kind!r}"):
            nested.plan(kind, 64, 3)


@pytest.mark.parametrize(
    "chosen",
    [Plan("bogus", 64, 3, ((64, 1), (8, 2), (4, 3))), Plan("iid", 64, 3, ())],
    ids=["bogus-with-noa3-ladder", "iid-with-no-rungs"],
)
def test_construct_refuses_a_kind_it_does_not_build(chosen):
    # a noa3 ladder does not make a noa3 design, nor is iid's plan read for an s2
    with pytest.raises(ValueError, match=f"builds lhs, oa2, tang and noa3, not {chosen.kind!r}"):
        nested.construct(chosen, 0)


def test_noa_columns_are_permutations():
    design = nested.construct(nested.plan("noa3", 64, 3), 9)
    for j in range(3):
        assert sorted(design.matrix[:, j]) == list(range(64))


def test_noa_deterministic():
    plan = nested.plan("noa3", 256, 4)
    a = nested.construct(plan, 42)
    b = nested.construct(plan, 42)
    assert (a.matrix == b.matrix).all()
    c = nested.construct(plan, 43)
    assert (a.matrix != c.matrix).any()


def test_noa_nesting_consistency():
    plan = nested.plan("noa3", 64, 3)
    design = nested.construct(plan, 3)
    via_s2 = collapse(collapse(design, plan.s2), plan.s3)
    direct = collapse(design, plan.s3)
    assert (via_s2.matrix == direct.matrix).all()


def test_noa_combination_range():
    # at s2 resolution every column holds each level n/s2 times
    plan = nested.plan("noa3", 128, 3)
    at_s2 = collapse(nested.construct(plan, 7), plan.s2)
    for j in range(at_s2.d):
        counts = np.bincount(at_s2.matrix[:, j], minlength=plan.s2)
        assert (counts == 128 // plan.s2).all()


@pytest.mark.parametrize("n,d", [(64, 3), (128, 3), (81, 3), (256, 4)])
def test_noa_pair_coverage_blocks(n, d):
    # within every block of s3^2 rows, every column pair holds every
    # coarse-level pair exactly once
    plan = nested.plan("noa3", n, d)
    s3 = plan.s3
    coarse = collapse(nested.construct(plan, 17), s3).matrix
    for start in range(0, n, s3 * s3):
        block = coarse[start : start + s3 * s3]
        for j1, j2 in itertools.combinations(range(d), 2):
            pairs = {(a, b) for a, b in zip(block[:, j1], block[:, j2])}
            assert len(pairs) == s3 * s3


def test_lhs_columns_are_permutations():
    d = nested.construct(nested.plan("lhs", 10, 4), 3)
    assert d.s == 10
    for j in range(4):
        assert sorted(d.matrix[:, j]) == list(range(10))
    rep = check_strength(d, 1)
    assert rep.ok and rep.lam == 1


def test_lhs_single_row():
    d = nested.construct(nested.plan("lhs", 1, 3), 0)
    assert d.matrix.tolist() == [[0, 0, 0]]


def test_expand_to_lhs_contract():
    base = Design(np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]), s=2)
    out = expand_to_lhs(base, 5)
    assert out.s == 4
    assert (collapse(out, 2).matrix == base.matrix).all()
    for j in range(3):
        assert sorted(out.matrix[:, j]) == [0, 1, 2, 3]


def test_expand_to_lhs_identity_when_already_fine():
    base = nested.construct(nested.plan("lhs", 6, 2), 1)
    out = expand_to_lhs(base, 99)
    assert (out.matrix == base.matrix).all()


def test_expand_to_lhs_bush():
    base = Design(bush_construct(field_of_order(3), 2).matrix[:, 1:4], s=3)
    out = expand_to_lhs(base, 2)
    rep1 = check_strength(out, 1)
    assert rep1.ok and rep1.lam == 1
    rep2 = check_strength(collapse(out, 3), 2)
    assert rep2.ok and rep2.lam == 1


@pytest.mark.parametrize("n,s", [(64, 4), (2**18, 2**17)])
def test_expand_to_lhs_refines_and_permutes(n, s):
    # s <= 2^16 and s > 2^16 sort their level keys in different integer types
    rng = np.random.default_rng(n)
    base = Design(rng.permuted(np.tile(np.repeat(np.arange(s), n // s), (2, 1)), axis=1).T, s=s)
    out = expand_to_lhs(base, 3)
    assert out.s == n
    assert (collapse(out, s).matrix == base.matrix).all()
    for j in range(base.d):
        assert (np.sort(out.matrix[:, j]) == np.arange(n)).all()
    assert (expand_to_lhs(base, 3).matrix == out.matrix).all()
    assert (expand_to_lhs(base, 4).matrix != out.matrix).any()


def expand_columns(mat, s, rng):
    """nested._expand_levels with a builder that copies mat's column j."""
    def column(j, out):
        out[...] = mat[:, j]

    return nested._expand_levels(column, *mat.shape, s, rng)


def test_expand_levels_overwrites_its_input():
    # each column is built into the result and the fine levels are written
    # over it: beside the n x d result, no second n x d buffer and no n-sized
    # intp array, only two columns of drawn levels (uint32 here), one of sort
    # keys and one of row numbers (uint32 here), 2^16-entry rank blocks and a
    # 2^14-entry intp scatter block, under 2.75 intp buffers of n
    n = 2**18
    fine = nested.construct(nested.plan("lhs", n, 8), 0).matrix
    coarse = fine // 512
    built = []

    def column(j, out):
        out[...] = coarse[:, j]
        built.append(out)

    tracemalloc.start()
    try:
        out = nested._expand_levels(column, n, 8, 512, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.shares_memory(col, out[:, j]) for j, col in enumerate(built))
    assert peak <= out.nbytes + 2.75 * np.dtype(np.intp).itemsize * n
    assert (out // 512 == fine // 512).all()
    for j in range(out.shape[1]):
        assert (np.sort(out[:, j]) == np.arange(2**18)).all()


@pytest.mark.parametrize("cpus", [1, 2])
def test_expand_levels_builds_every_column_in_the_calling_lane(monkeypatch, cpus):
    # past one block, two CPUs give the expansion a helper lane, which only draws
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    mat = balanced_levels(2**17, 64, 4, 0)
    lanes = []

    def column(j, out):
        lanes.append((j, threading.get_ident()))
        out[...] = mat[:, j]

    got = nested._expand_levels(column, *mat.shape, 64, np.random.default_rng(3))
    assert lanes == [(j, threading.get_ident()) for j in range(4)]
    assert np.array_equal(got, expand_columns(mat, 64, np.random.default_rng(3)))


def stable_argsort_expand(mat, s, rng):
    """The expansion by a stable argsort of each column by level, with _expand_levels' draws.

    Each column's fine levels are drawn as _expand_levels' producer draws
    them, a block of levels at a time, and the rows of level lev, in row
    order, take the fine levels drawn for it.
    """
    n, d = mat.shape
    m = n // s
    per_block = min(max(1, nested._RANK_BLOCK // m), s)
    ranks = np.arange(per_block * m).reshape(per_block, m)
    out = mat.copy(order="F")
    for j in range(d):
        counts = np.bincount(mat[:, j], minlength=s)
        if (counts != m).any():
            lev = int(np.flatnonzero(counts != m)[0])
            raise UnbalancedColumnError(
                f"column {j}: level {lev} occurs {int(counts[lev])} times, expected {m}"
            )
        draws = [
            rng.permuted(ranks[: (n - lo) // m], axis=1).ravel() + lo
            for lo in range(0, n, ranks.size)
        ]
        out[np.argsort(mat[:, j], kind="stable"), j] = np.concatenate(draws)
    return out


def balanced_levels(n, s, d, seed):
    """An n x d matrix in level_dtype(n), column-major, each column n/s copies of 0..s-1 shuffled."""
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(np.repeat(np.arange(s), n // s)) for _ in range(d)]
    return np.asfortranarray(np.stack(cols, axis=1), dtype=level_dtype(n))


@pytest.mark.parametrize(
    "n,s,key",
    [
        (108, 6, np.uint16),
        (46875, 75, np.uint32),  # uint16 levels, uint32 keys
        (2**18, 512, np.uint32),
        (2**20, 8192, np.uint64),  # s << 20 is past 2^32
    ],
)
def test_expand_levels_matches_a_stable_argsort(n, s, key):
    assert level_dtype(s << (n - 1).bit_length()) == key
    mat = balanced_levels(n, s, 2, n)
    want = stable_argsort_expand(mat, s, np.random.default_rng(1))
    got = expand_columns(mat, s, np.random.default_rng(1))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    s=st.integers(1, 12),
    m=st.integers(1, 12),
    data=st.data(),
)
def test_small_columns_expand_or_refuse_as_the_reference_does(s, m, data):
    # balanced or not, every column gives the reference's levels or its message
    n = s * m
    cols = [
        data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)) for _ in range(2)
    ]
    mat = np.asfortranarray(np.array(cols).T, dtype=level_dtype(n))
    try:
        want = stable_argsort_expand(mat, s, np.random.default_rng(2))
    except UnbalancedColumnError as exc:
        with pytest.raises(UnbalancedColumnError) as excinfo:
            expand_columns(mat, s, np.random.default_rng(2))
        assert str(excinfo.value) == str(exc)
    else:
        got = expand_columns(mat, s, np.random.default_rng(2))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "old,new,moved,message",
    [
        (5, 0, 1, "column 1: level 0 occurs 19 times, expected 18"),  # the first level over
        (4, 5, 1, "column 1: level 4 occurs 17 times, expected 18"),  # the last level over
        (3, 4, 18, "column 1: level 3 occurs 0 times, expected 18"),  # a level gone
    ],
)
def test_unbalanced_column_messages(old, new, moved, message):
    # moved rows of level old in column 1 take level new
    mat = balanced_levels(108, 6, 2, 0)
    mat[np.flatnonzero(mat[:, 1] == old)[:moved], 1] = new
    with pytest.raises(UnbalancedColumnError) as excinfo:
        expand_columns(mat, 6, np.random.default_rng(0))
    assert str(excinfo.value) == message


def test_constructors_store_the_level_dtype():
    designs_built = [
        (bush_construct(field_of_order(4), 2), np.uint8),
        (nested.construct(nested.plan("noa3", 64, 3), 0), np.uint8),
        (nested.construct(nested.plan("noa3", 512, 3), 0), np.uint16),
        (nested.construct(nested.plan("tang", 1024, 3), 0), np.uint16),
        (nested.construct(nested.plan("oa2", 64, 5), 0), np.uint8),
        (nested.construct(nested.plan("lhs", 300, 2), 0), np.uint16),
        (nested.construct(nested.plan("lhs", 65537, 1), 0), np.uint32),
        # widened from the uint8 input's 17 levels to 289
        (expand_to_lhs(nested.construct(nested.plan("oa2", 289, 3), 0), 0), np.uint16),
    ]
    for design, dtype in designs_built:
        assert design.matrix.dtype == dtype == level_dtype(design.s)
        assert design.matrix.flags.f_contiguous and not design.matrix.flags.writeable


def test_construct_noa_memory_budget():
    # 262144 x 8 at 262144 levels is 8 MiB of uint32; the peak is the design
    # plus one collapse and the strength-2 counters while the ladder is checked
    plan = nested.plan("noa3", 262144, 8)
    tracemalloc.start()
    try:
        nested.construct(plan, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_expand_to_lhs_unbalanced():
    with pytest.raises(UnbalancedColumnError):
        expand_to_lhs(Design(np.array([[0, 0], [0, 1]]), s=2), 0)


def test_expand_to_lhs_refuses_n_not_a_multiple_of_s():
    with pytest.raises(UnbalancedColumnError, match="n=6 not divisible by s=4"):
        expand_to_lhs(Design(np.array([[0], [1], [2], [3], [0], [1]]), s=4), 0)


def test_a_construction_that_breaks_a_rung_is_refused(monkeypatch, capsys):
    # verify_ladder is every construction's safety net: a design whose fine
    # levels repeat must not leave the library or the CLI
    expand = nested._expand_levels

    def expand_then_repeat_a_level(column, n, d, s, rng):
        out = expand(column, n, d, s, rng)
        out[1, 0] = out[0, 0]
        return out

    monkeypatch.setattr(nested, "_expand_levels", expand_then_repeat_a_level)
    with pytest.raises(InternalInvariantError, match="fails strength 1 at 64 levels"):
        nested.construct(nested.plan("noa3", 64, 3), 0)
    assert cli.main(["gen", "--kind", "noa3", "--n", "64", "--d", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: constructed design fails strength 1 at 64 levels: ")


@pytest.mark.parametrize(
    "build,ladder",
    [
        pytest.param(
            lambda: nested.construct(nested.plan("tang", 9, 3), 5), ((9, 1), (3, 2)), id="9-3-3"
        ),
        pytest.param(
            lambda: nested.construct(nested.plan("tang", 16, 4), 5), ((16, 1), (4, 2)), id="16-4-4"
        ),
        pytest.param(
            lambda: nested.construct(nested.plan("tang", 64, 3), 5), ((64, 1), (8, 2)), id="64-3-8"
        ),
        pytest.param(
            lambda: nested.construct(nested.plan("oa2", 64, 9), 5), ((8, 2),), id="oa-8-2-9"
        ),
        # one column: the rung is (4, 1), and the plan has no strength-2 rung
        pytest.param(
            lambda: nested.construct(nested.plan("oa2", 16, 1), 5), ((4, 1),), id="oa-4-2-1"
        ),
    ],
)
def test_tang_ladder(build, ladder):
    assert_ladder(build(), ladder)


def test_tang_no_plan():
    with pytest.raises(NoNontrivialPlanError):
        nested.construct(nested.plan("tang", 6, 3), 0)


def test_tang_deterministic():
    builds = (
        lambda seed: nested.construct(nested.plan("tang", 16, 4), seed),
        lambda seed: nested.construct(nested.plan("oa2", 49, 5), seed),
    )
    for build in builds:
        a, b, c = build(8), build(8), build(9)
        assert (a.matrix == b.matrix).all()
        assert (a.matrix != c.matrix).any()


def taken(take, rows, d, dtype):
    """The rows x d column-major matrix in dtype whose column j is take(j, out)'s."""
    mat = np.empty((rows, d), dtype=dtype, order="F")
    for j, col in enumerate(mat.T):
        take(j, col)
    return mat


def test_oa_relabelling_matches_loop():
    # reference loop over copies r and columns j, fed the same (d, k, s) draw
    field, d, k = field_of_order(4), 3, 2
    labels = np.arange(4, dtype=np.uint16)
    got = taken(nested._oa(2, d, k, np.random.default_rng(5), labels), k * 16, d, labels.dtype)
    perms = np.random.default_rng(5).permuted(np.broadcast_to(np.arange(4), (d, k, 4)), axis=2)
    base = bush_construct(field, 2, d + 1).matrix[:, 1:]
    want = np.vstack(
        [np.column_stack([perms[j, r][base[:, j]] for j in range(d)]) for r in range(k)]
    )
    assert got.dtype == np.uint16  # written in the labels' dtype, not the field's
    assert (got == want).all()
    # the draw permutes positions, so other labels take the same permutations
    take = nested._oa(2, d, k, np.random.default_rng(5), np.arange(0, 8, 2))
    assert (taken(take, k * 16, d, np.int64) == 2 * want).all()
    # _stack takes the same copies over GF(4), column-major in level_dtype(4)
    stacked = nested._stack(4, d, k, np.random.default_rng(5))
    assert stacked.flags.f_contiguous and stacked.dtype == np.uint8
    assert (stacked == want).all()


def test_relabelling_independent_across_copies():
    # n=32, d=3 stacks k=2 copies of the 16-run Bush array at 4 levels; the
    # copies' relabellings of a column agree with probability 1/4! = 1/24,
    # so over 300 seeds each column agrees ~12.5 times (P(> 35) < 2e-8)
    # and copies sharing one relabelling would agree 300 times
    agree = np.zeros(3, dtype=int)
    for seed in range(300):
        design = nested.construct(nested.plan("tang", 32, 3), seed)
        blocks = collapse(design, 4).matrix.reshape(2, 16, 3)
        agree += (blocks[0] == blocks[1]).all(axis=0)
    assert (agree <= 35).all(), agree


def test_relabelling_independent_across_columns():
    # Bush row 0 is all zeros, so row 0 of a randomized OA(9, 2, 3, 2) is the
    # pair of its columns' relabels of 0: uniform over the 9 cells when the
    # columns are relabelled independently, only the diagonal when they share
    # a permutation; 200 seeds miss some cell with probability < 9 (8/9)^200 < 1e-9
    oa = nested.plan("oa2", 9, 2)
    cells = {tuple(nested.construct(oa, seed).matrix[0]) for seed in range(200)}
    assert cells == set(itertools.product(range(3), repeat=2))


def test_oa_rejects_bad_parameters():
    with pytest.raises(ValueError):
        nested.plan("oa2", 16, 6)  # d > s + 1
    with pytest.raises(ValueError):
        nested.plan("oa2", 16, 0)
    with pytest.raises(ValueError, match="n=16.0 must be an integer"):
        nested.plan("oa2", 16.0, 3)
    with pytest.raises(NoNontrivialPlanError):
        nested.plan("oa2", 36, 3)  # 6 is not a prime power


def test_size_refused_before_allocation(monkeypatch):
    # n*d is checked before any field table or column is built: 2^40 rows of
    # a small-s3 plan would need 24 TiB
    huge = Plan("noa3", 2**40, 3, ((2**40, 1), (2**20, 2), (4, 3)))
    for build in (
        lambda: nested.construct(nested.plan("lhs", 10**12, 3), 0),
        lambda: nested.construct(nested.plan("tang", 2**40, 3), 0),
        lambda: nested.construct(huge, 0),
    ):
        with pytest.raises(FieldOverflowError, match="exceeds"):
            build()
    # the bound is exact: 1024 x 4 fits in 4096 entries, 1024 x 5 does not
    monkeypatch.setattr(designs, "MAX_ENTRIES", 4096)
    assert nested.construct(nested.plan("lhs", 1024, 4), 0).matrix.size == 4096
    assert nested.construct(nested.plan("tang", 1024, 4), 0).matrix.size == 4096
    assert nested.construct(nested.plan("noa3", 1024, 4), 0).matrix.size == 4096
    for build in (
        lambda: nested.construct(nested.plan("lhs", 1024, 5), 0),
        lambda: nested.construct(nested.plan("tang", 1024, 5), 0),
        lambda: nested.construct(nested.plan("noa3", 1024, 5), 0),
    ):
        with pytest.raises(FieldOverflowError, match="1024 rows x 5 columns exceeds 4096"):
            build()


def set_max_entries(monkeypatch, bound):
    # designs' bound and bush's copy of it, imported by value
    monkeypatch.setattr(designs, "MAX_ENTRIES", bound)
    monkeypatch.setattr(bush, "MAX_ENTRIES", bound)


def test_tang_builds_at_the_size_edge(monkeypatch):
    # only the kept Bush columns are built, so a design that fits the bound
    # builds: 32^2 x 4 and 16^2 x 8 Bush entries, not 32^2 x 5 and 16^2 x 9
    set_max_entries(monkeypatch, 4096)
    assert nested.construct(nested.plan("tang", 1024, 4), 0).matrix.size == 4096
    set_max_entries(monkeypatch, 2048)
    assert nested.construct(nested.plan("tang", 256, 8), 0).matrix.size == 2048


SIZE_EDGE_RUNS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 108, 125, 128, 243, 256, 512]


def test_every_plan_builds_at_its_own_size(monkeypatch):
    # with MAX_ENTRIES = n * d, no array built on the way to a planned design
    # may be larger than the design itself: plan accepts exactly what
    # construct builds under the bound
    built = set()
    for kind, n, d in itertools.product(KIND_NAMES, SIZE_EDGE_RUNS, range(1, 10)):
        try:
            plan = nested.plan(kind, n, d)
        except (ValueError, DesignError):
            continue
        set_max_entries(monkeypatch, n * d)
        assert nested.construct(plan, 0).matrix.shape == (n, d)
        built.add(kind)
    assert built == set(KIND_NAMES)


def test_oa2_plan_bounds_the_field():
    # GF(4099) and GF(8192) cannot be built, so n = 4099^2 and n = 8192^2
    # have no plan; no field is built to find that out
    for n in (4099**2, 2**26, 0):
        with pytest.raises(NoNontrivialPlanError) as exc:
            nested.plan("oa2", n, 2)
        assert str(exc.value) == f"oa2 needs n a square of a prime power, got n={n}"
    assert nested.plan("oa2", 4096**2, 2).ladder == ((4096, 2),)


def test_ladder_check_runs_under_optimize():
    # with the strength count patched to fail, every constructor must raise,
    # also when python -O strips assert statements and __debug__ blocks
    script = textwrap.dedent(
        """
        import sys
        import noa.designs
        from noa.errors import InternalInvariantError
        from noa.nested import construct, plan

        assert False, "assert statements must be stripped under -O"
        failed = noa.designs.StrengthReport(t=1, ok=False, lam=None, violation=None)
        noa.designs.check_strength = lambda design, t: failed
        builds = {
            "noa": lambda: construct(plan("noa3", 64, 3), 0),
            "tang": lambda: construct(plan("tang", 16, 3), 0),
            "oa": lambda: construct(plan("oa2", 16, 3), 0),
            "lhs": lambda: construct(plan("lhs", 16, 3), 0),
        }
        for name, build in builds.items():
            try:
                build()
            except InternalInvariantError:
                print(name, "raised")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["noa raised", "tang raised", "oa raised", "lhs raised", ""]


def test_tang_builds_only_the_columns_it_uses():
    # n = 65536 takes s2 = 256: all 257 Bush columns would be 128 MiB, the 3
    # used ones are 1.5 MiB, so a fresh process stays well under 100 MiB
    script = textwrap.dedent(
        """
        from noa.nested import construct, plan

        construct(plan("tang", 65536, 3), 0)
        # VmHWM is the peak of this process alone; ru_maxrss also carries the
        # peak of the process that started it over exec
        with open("/proc/self/status") as fh:
            print(next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:")))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mib = int(proc.stdout) / 1024  # VmHWM is in KiB on Linux
    assert peak_mib < 100
