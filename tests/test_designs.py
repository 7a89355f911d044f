import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noa import designs
from noa.designs import (
    Design,
    StrengthReport,
    Violation,
    check_strength,
    collapse,
    format_design,
    level_dtype,
    load_design,
    nested64_fixture,
    parse_design,
    save_design,
)
from noa.errors import FieldOverflowError, FormatError, NotDivisorError, StrengthError
from noa.bush import bush_construct
from noa.cli import main
from noa.gf import field_of_order
from noa.nested import expand_to_lhs
from noa.sampling import parse_points, to_points


def rows_design(rows, s):
    return Design(np.array([[int(c) for c in r] for r in rows]), s=s)


def naive_report(design, t):
    """Independent oracle: dictionary counting over explicit tuples."""
    expected = design.n / design.s**t
    rows = design.matrix.tolist()
    for cols in itertools.combinations(range(design.d), t):
        counts = Counter(tuple(row[c] for c in cols) for row in rows)
        for levels in itertools.product(range(design.s), repeat=t):
            if counts.get(levels, 0) != expected:
                violation = Violation(cols, levels, counts.get(levels, 0), expected)
                return StrengthReport(t=t, ok=False, lam=None, violation=violation)
    return StrengthReport(t=t, ok=True, lam=design.n // design.s**t, violation=None)


def test_strength2_four_runs():
    rep = check_strength(rows_design(["000", "011", "101", "110"], 2), 2)
    assert rep.ok and rep.lam == 1


def test_strength1_lhs_rows():
    rep = check_strength(rows_design(["010", "132", "303", "221"], 4), 1)
    assert rep.ok and rep.lam == 1


def test_all_zero_violation():
    rep = check_strength(Design(np.zeros((4, 2), dtype=int), s=2), 1)
    assert not rep.ok
    v = rep.violation
    assert v.columns == (0,)
    # lexicographically first violating tuple: level 0 is over-covered
    assert v.levels == (0,)
    assert v.observed == 4
    assert v.expected == 2


def test_non_divisible_reported_not_ok():
    rep = check_strength(Design(np.array([[0], [1], [0]]), s=2), 1)
    assert not rep.ok
    assert rep.violation.expected == 1.5


def test_bad_strength():
    d = rows_design(["00", "11"], 2)
    with pytest.raises(StrengthError):
        check_strength(d, 0)
    with pytest.raises(StrengthError):
        check_strength(d, 3)


def oracle_cases():
    rng = np.random.default_rng(5)
    for _ in range(60):
        t = int(rng.integers(1, 4))
        d = int(rng.integers(t, 6))
        s = int(rng.integers(1, 5))
        n = s**t * int(rng.integers(1, 3)) + int(rng.integers(0, 2))
        yield Design(rng.integers(0, s, size=(n, d)), s=s), t
    # orthogonal arrays, intact and with two entries of one column swapped
    # (which keeps strength 1 and breaks only the tuples holding that column)
    for s, t in itertools.product((2, 3, 4), (2, 3)):
        base = bush_construct(field_of_order(s), t).matrix
        yield Design(base, s=s), t
        for _ in range(3):
            mat = base.copy()
            j = int(rng.integers(1, base.shape[1]))
            r = rng.choice(np.flatnonzero(mat[:, j] != mat[0, j]))
            mat[[0, r], j] = mat[[r, 0], j]
            for t_check in range(1, t + 1):
                yield Design(mat, s=s), t_check
    # first violation in a tuple sharing its prefix with the tuple before:
    # (0, 3) after (0, 2), and (0, 1, 4) after (0, 1, 3)
    mat = bush_construct(field_of_order(3), 2).matrix.copy()
    mat[:, 3] = mat[:, 0]
    yield Design(mat, s=3), 2
    mat = bush_construct(field_of_order(4), 3).matrix.copy()
    mat[:, 4] = (mat[:, 0] + mat[:, 1]) % 4
    yield Design(mat, s=4), 3
    # one row per cell (n = s^t), where a permutation test decides each
    # tuple: intact, with two entries of a column swapped (which breaks
    # strength t >= 2 only), and with one entry overwritten by another
    for s, t in itertools.product((2, 3, 5), (1, 2, 3)):
        base = bush_construct(field_of_order(s), t).matrix
        yield Design(base, s=s), t
        for swap in (True, False):
            mat = base.copy()
            j = int(rng.integers(0, base.shape[1]))
            r = rng.choice(np.flatnonzero(mat[:, j] != mat[0, j]))
            mat[[0, r], j] = mat[[r, 0], j] if swap else mat[0, j]
            yield Design(mat, s=s), t


def test_check_strength_matches_naive_oracle():
    violated = set()
    one_row_per_cell = set()
    for design, t in oracle_cases():
        rep = check_strength(design, t)
        assert rep == naive_report(design, t)
        if not rep.ok:
            violated.add(rep.violation.columns)
            # plain ints, as a report is printed and compared as data
            assert {type(v) for v in rep.violation.levels} == {int}
        if design.n == design.s**t:
            one_row_per_cell.add(rep.ok)
    assert {(0, 3), (0, 1, 4)} <= violated
    assert one_row_per_cell == {True, False}


def test_matrix_is_column_major_whatever_the_input_layout():
    base = bush_construct(field_of_order(4), 3).matrix.copy()
    base[[0, 1], 2] = base[[1, 0], 2]
    by_row = Design(np.ascontiguousarray(base), s=4)
    by_column = Design(np.asfortranarray(base), s=4)
    for design in (by_row, by_column):
        assert design.matrix.flags.f_contiguous
        assert not design.matrix.flags.writeable
    for t in (1, 2, 3):
        assert check_strength(by_row, t) == check_strength(by_column, t)
    assert not check_strength(by_row, 2).ok


def test_check_strength_reads_columns_in_place():
    # counting at strength t reads the columns in place, one row block of
    # 2^16 at a time: each of at most two threads holds one flag byte per
    # cell (n = s^t here), an int64 and a uint32 block (12 bytes a block
    # row) and numpy's casting buffers (within 2^17 bytes), 2.25 MiB here
    # against the 6.375 MiB of (8t + 1) n + 2^17 that n-row int64 prefix
    # and index buffers took
    design = bush_construct(field_of_order(64), 3, 8)
    n, t = design.n, 3
    tracemalloc.start()
    try:
        rep = check_strength(design, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.lam == 1
    assert peak <= 2 * (n + 12 * 2**16 + 2**17)


# --- the two halves of the tuples ----------------------------------------------
#
# A design of more than one 2^16-row block, checked with two CPUs, splits its
# column tuples into two contiguous halves; pipeline's helper lane checks the upper.


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for the runner, and the helper lanes it starts: its executors' worker threads."""
    started = []

    class Counted(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, initializer=count, **kwargs)

    def count():
        started.append(threading.current_thread())

    monkeypatch.setattr(designs, "_cpus", lambda: 2)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counted)
    return started


def test_cpus_fall_back_to_the_cpu_count(monkeypatch):
    # without sched_getaffinity every CPU counts, and one when their number is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert designs._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert designs._cpus() == 1


def swapped(design, j, rows):
    """design with the two given entries of column j swapped."""
    mat = design.matrix.copy()
    mat[list(rows), j] = mat[list(rows)[::-1], j]
    return Design(mat, s=design.s)


def upper_half_swap(design):
    """Rows whose swap in column 4 breaks tuple (1, 4) but no tuple of the lower half.

    Column 0 agrees on the two rows, so (0, 4) keeps its counts.  With five
    columns at t = 2, the lower half is (0, 1) .. (1, 2) and the upper half
    starts at (1, 3), which the swap also keeps.
    """
    mat = design.matrix
    for r in range(1, design.n):
        if mat[r, 0] == mat[0, 0] and mat[r, 1] != mat[0, 1] and mat[r, 4] != mat[0, 4]:
            return (0, r)
    raise AssertionError("no such row")


def wide_oa():
    """OA(257^2, 5, 257, 2): 66049 rows, two row blocks."""
    return bush_construct(field_of_order(257), 2, 5)


def test_two_halves_intact_design(two_cpus):
    design = wide_oa()
    assert design.n > 2**16
    for t in (1, 2):
        rep = check_strength(design, t)
        assert rep == naive_report(design, t)
        assert rep.ok and rep.lam == design.n // 257**t
    assert len(two_cpus) == 2


def test_two_halves_violation_only_in_the_upper_half(two_cpus):
    design = wide_oa()
    broken = swapped(design, 4, upper_half_swap(design))
    rep = check_strength(broken, 2)
    assert rep == naive_report(broken, 2)
    assert rep.violation.columns == (1, 4)
    assert len(two_cpus) == 1


def broken_in_both_halves():
    """wide_oa() with tuple (0, 2) of the lower half and (1, 4) of the upper broken."""
    design = wide_oa()
    broken = swapped(design, 4, upper_half_swap(design))
    mat = broken.matrix
    r = int(np.flatnonzero((mat[:, 0] != mat[0, 0]) & (mat[:, 2] != mat[0, 2]))[0])
    return swapped(broken, 2, (0, r))


def test_two_halves_report_the_lower_violation(two_cpus):
    broken = broken_in_both_halves()
    rep = check_strength(broken, 2)
    assert rep == naive_report(broken, 2)
    assert rep.violation.columns == (0, 2)
    assert len(two_cpus) == 1


def test_two_halves_at_index_above_one(two_cpus):
    # OA(64^2, 5, 64, 2) stacked 17 times: 69632 rows, index 17 at t = 2
    base = bush_construct(field_of_order(64), 2, 5).matrix
    design = Design(np.tile(base, (17, 1)), s=64)
    assert check_strength(design, 2) == StrengthReport(t=2, ok=True, lam=17, violation=None)
    broken = swapped(design, 4, upper_half_swap(design))
    for t in (1, 2):
        assert check_strength(broken, t) == naive_report(broken, t)
    assert check_strength(broken, 2).violation.columns == (1, 4)
    assert len(two_cpus) == 4


def test_one_cpu_checks_every_tuple_in_the_calling_thread(two_cpus, monkeypatch):
    monkeypatch.setattr(designs, "_cpus", lambda: 1)
    design = wide_oa()
    broken = swapped(design, 4, upper_half_swap(design))
    assert check_strength(design, 2).ok
    assert check_strength(broken, 2) == naive_report(broken, 2)
    assert two_cpus == []
    # one block is one half, whatever the CPU count
    monkeypatch.setattr(designs, "_cpus", lambda: 2)
    assert check_strength(bush_construct(field_of_order(256), 2, 5), 2).ok  # 2^16 rows
    assert two_cpus == []


def test_helper_errors_are_raised_in_the_caller(two_cpus, monkeypatch):
    real = designs._first_failure

    def failing(*work):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("upper half")
        return real(*work)

    design = wide_oa()
    before = threading.active_count()
    assert check_strength(design, 2).ok
    assert threading.active_count() == before
    monkeypatch.setattr(designs, "_first_failure", failing)
    with pytest.raises(MemoryError, match="upper half"):
        check_strength(design, 2)
    assert threading.active_count() == before
    assert len(two_cpus) == 2


def test_helper_stops_once_the_lower_half_fails(two_cpus, monkeypatch):
    # the helper lane starts on its half only once the lower half is done
    # and, if that half failed, the run is ending: it checks no tuple when
    # that half has failed, and all of its own when that half has passed
    lower = []
    checked = []
    real_first, real_index = designs._first_failure, designs._index

    def first_failure(*work):
        if threading.current_thread() is threading.main_thread():
            lower.append(real_first(*work))
            return lower[-1]
        stop = work[-1]
        deadline = time.monotonic() + 10
        while not (stop or lower == [None]) and time.monotonic() < deadline:
            time.sleep(1e-3)
        return real_first(*work)

    def index(part, cols, *rest):
        if threading.current_thread() is not threading.main_thread():
            checked.append(cols)
        return real_index(part, cols, *rest)

    monkeypatch.setattr(designs, "_first_failure", first_failure)
    monkeypatch.setattr(designs, "_index", index)
    assert check_strength(broken_in_both_halves(), 2).violation.columns == (0, 2)
    assert lower == [(0, 2)] and checked == []
    lower.clear()
    assert check_strength(wide_oa(), 2).ok
    assert list(dict.fromkeys(checked)) == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(two_cpus) == 2


def test_two_halves_under_concurrent_callers(two_cpus):
    # four callers, each with a helper lane, on two CPUs or fewer, with
    # thread switches forced often: every report must still be the one-thread one
    design = wide_oa()
    cases = [design, broken_in_both_halves(), swapped(design, 4, upper_half_swap(design))]
    cases = [(case, naive_report(case, 2)) for case in cases]
    wrong = []

    def caller(k):
        for round_ in range(3):
            design, expected = cases[(k + round_) % 3]
            if check_strength(design, 2) != expected:
                wrong.append((k, round_))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert wrong == [] and len(two_cpus) == 12


def test_check_strength_refuses_too_many_tuples_before_building_any():
    # C(40, 20) tuples of 64 rows: refused before a tuple list, a flag array
    # or a block buffer exists, so the call takes no time and no memory
    design = Design(np.zeros((64, 40), dtype=np.uint8), s=1)
    tracemalloc.start()
    try:
        with pytest.raises(FieldOverflowError, match="137846528820 column tuples"):
            check_strength(design, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert check_strength(design, 2).ok  # 780 tuples


def test_every_constructible_ladder_fits_the_check_bound():
    # the largest ladders the constructors verify: a Bush OA(107^3, 108, 107, 3)
    # (noa gen --kind bush --s 107 --t 3 --d 108), and a tang design of 509^2 rows
    # and 510 columns at strength 2, both just inside MAX_ENTRIES
    assert 107**3 * 108 <= designs.MAX_ENTRIES < 109**3 * 110
    assert 509**2 * 510 <= designs.MAX_ENTRIES
    for n, d, t in ((107**3, 108, 3), (509**2, 510, 2), (509**2, 510, 1)):
        assert math.comb(d, t) * (n + designs._TUPLE_ROWS) <= designs.MAX_CHECK_WORK


# --- the two-lane runner -------------------------------------------------------
#
# pipeline(rows, count, produce, consume) gives its producer a helper lane only
# for more than one 2^16-row block on more than one CPU; the strength check,
# the level expansion and to_points all run on it.


def logged(log, raise_at=(None, None), stop_at=None, poll_at=None, wait=False):
    """A produce and a consume that log each call in the thread it ran in.

    raise_at is (lane, item): that lane raises at that item.  consume
    returns True at stop_at.  produce(poll_at) runs until the run is
    ending.  With wait, consume(i) first waits until produce(i + 1) began.
    """

    def began(i):
        return any(e[:2] == ("produce", i) for e in log)

    def produce(i, stop):
        log.append(("produce", i, threading.current_thread()))
        if i == poll_at:
            deadline = time.monotonic() + 10
            while not stop and time.monotonic() < deadline:
                time.sleep(1e-3)
            log.append(("stopped", bool(stop)))
        if raise_at == ("produce", i):
            raise MemoryError(f"producer at {i}")
        return i * i

    def consume(i, item):
        deadline = time.monotonic() + 10
        while wait and not began(i + 1) and time.monotonic() < deadline:
            time.sleep(1e-3)
        if raise_at == ("consume", i):
            raise KeyError(f"consumer at {i}")
        if item != i * i:
            raise AssertionError(f"item {i} is {item}")
        log.append(("consumed", i, threading.current_thread()))
        return i == stop_at

    return produce, consume


def test_pipeline_one_lane_is_the_plain_loop(two_cpus, monkeypatch):
    # at most one block, or one item, or one CPU: no thread, and each item
    # is produced, then consumed, in the calling thread
    me = threading.current_thread()
    before = threading.active_count()
    for rows, count, cpus in ((2**16, 3, 2), (2**16 + 1, 1, 2), (2**16 + 1, 3, 1)):
        monkeypatch.setattr(designs, "_cpus", lambda: cpus)
        log = []
        designs.pipeline(rows, count, *logged(log))
        assert log == [(kind, i, me) for i in range(count) for kind in ("produce", "consumed")]
    assert two_cpus == [] and threading.active_count() == before


def test_pipeline_two_lanes_keep_order_one_item_apart(two_cpus):
    # the helper lane produces every item; item i + 1 is produced only once
    # item i - 1 has been consumed, so a producer may reuse its buffers
    # every second item
    log = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        designs.pipeline(2**16 + 1, 40, *logged(log))
    finally:
        sys.setswitchinterval(interval)
    me = threading.current_thread()
    assert [e[1] for e in log if e[0] == "consumed"] == list(range(40))
    assert all(e[2] is me for e in log if e[0] == "consumed")
    assert all(e[2] is two_cpus[0] for e in log if e[0] == "produce")
    at = {e[:2]: k for k, e in enumerate(log)}
    assert all(at["produce", i] > at["consumed", i - 2] for i in range(2, 40))
    assert len(two_cpus) == 1 and not two_cpus[0].is_alive()


@pytest.mark.parametrize("cpus", [1, 2])
def test_pipeline_raises_the_producer_error_in_order(monkeypatch, cpus):
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    log = []
    before = threading.active_count()
    with pytest.raises(MemoryError, match="producer at 3") as excinfo:
        designs.pipeline(2**16 + 1, 10, *logged(log, raise_at=("produce", 3)))
    assert threading.active_count() == before
    assert [e[1] for e in log if e[0] == "consumed"] == [0, 1, 2]
    assert excinfo.traceback[-1].name == "produce"  # raised with the helper's traceback


@pytest.mark.parametrize("cpus", [1, 2])
def test_pipeline_raises_the_consumer_error_and_stops_the_producer(monkeypatch, cpus):
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    log = []
    before = threading.active_count()
    with pytest.raises(KeyError, match="consumer at 2"):
        designs.pipeline(2**16 + 1, 10, *logged(log, ("consume", 2), poll_at=3, wait=cpus == 2))
    assert threading.active_count() == before
    assert [e[1] for e in log if e[0] == "consumed"] == [0, 1]
    # the one item produced beside the failed one ended early, and no other began
    assert [e[1] for e in log if e[0] == "produce"] == list(range(3 + (cpus == 2)))
    assert log.count(("stopped", True)) == (cpus == 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_pipeline_ends_when_consume_returns_true(monkeypatch, cpus):
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    log = []
    before = threading.active_count()
    designs.pipeline(2**16 + 1, 10, *logged(log, stop_at=1, poll_at=2, wait=cpus == 2))
    assert threading.active_count() == before
    assert [e[1] for e in log if e[0] == "consumed"] == [0, 1]
    assert [e[1] for e in log if e[0] == "produce"] == list(range(2 + (cpus == 2)))
    assert log.count(("stopped", True)) == (cpus == 2)


def test_at_most_one_block_starts_no_thread(two_cpus):
    # 2^16 rows: the check, the expansion and the points run in the caller
    design = bush_construct(field_of_order(256), 2, 5)
    before = threading.active_count()
    assert check_strength(design, 2).ok
    assert expand_to_lhs(design, 3).s == 2**16
    assert to_points(design, "uniform", 4).n == 2**16
    assert two_cpus == [] and threading.active_count() == before


def test_pipeline_stages_under_concurrent_callers(two_cpus, monkeypatch):
    # four callers expanding and placing a two-block design at once, with
    # thread switches forced often, get the one-lane bytes
    design = wide_oa()
    monkeypatch.setattr(designs, "_cpus", lambda: 1)
    expected = [(expand_to_lhs(design, k).matrix, to_points(design, "uniform", k).points)
                for k in range(4)]
    monkeypatch.setattr(designs, "_cpus", lambda: 2)
    wrong = []

    def caller(k):
        for round_ in range(2):
            seed = (k + round_) % 4
            got = expand_to_lhs(design, seed).matrix, to_points(design, "uniform", seed).points
            if not all(map(np.array_equal, got, expected[seed])):
                wrong.append((k, round_))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert wrong == [] and len(two_cpus) == 16


def test_check_strength_more_cells_than_rows():
    # s^t > n: every expected count is below 1, so cell 0 of the first tuple
    # is the first violation, and no counters are needed to find it
    rows = np.array([[0, 0, 1], [0, 0, 0], [2, 0, 0], [1, 2, 2], [0, 1, 0]])
    small = Design(rows, s=3)
    assert check_strength(small, 2) == naive_report(small, 2)
    assert check_strength(small, 3) == naive_report(small, 3)
    huge = Design(np.array([[0, 0, 0, 0], [0, 0, 0, 5], [7, 0, 0, 0]] * 3), s=2**20)
    rep = check_strength(huge, 4)
    assert rep == StrengthReport(
        t=4, ok=False, lam=None, violation=Violation((0, 1, 2, 3), (0, 0, 0, 0), 3, 9 / 2**80)
    )


def test_collapse_example():
    fine = rows_design(["010", "132", "303", "221"], 4)
    coarse = collapse(fine, 2)
    assert coarse.s == 2
    assert (coarse.matrix == rows_design(["000", "011", "101", "110"], 2).matrix).all()


def test_collapse_identity():
    d = rows_design(["010", "132"], 4)
    assert (collapse(d, 4).matrix == d.matrix).all()


def test_collapse_not_divisor():
    with pytest.raises(NotDivisorError):
        collapse(rows_design(["010"], 4), 3)


def test_collapse_index_scaling():
    # strength t at s levels with lambda implies strength t at s_coarse with
    # lambda * (s/s_coarse)^t
    d = bush_construct(field_of_order(4), 2)
    assert check_strength(d, 2).lam == 1
    rep = check_strength(collapse(d, 2), 2)
    assert rep.ok and rep.lam == 4


def test_strength_monotonicity():
    d = bush_construct(field_of_order(3), 3)
    for t in (3, 2, 1):
        assert check_strength(d, t).ok


def test_relabel_invariance():
    rng = np.random.default_rng(11)
    base = bush_construct(field_of_order(4), 2)
    for _ in range(5):
        mat = base.matrix.copy()
        for j in range(base.d):
            perm = rng.permutation(base.s)
            mat[:, j] = perm[mat[:, j]]
        rep = check_strength(Design(mat, s=base.s), 2)
        assert rep.ok and rep.lam == 1


def test_design_validation():
    with pytest.raises(ValueError):
        Design(np.array([[0, 2]]), s=2)
    with pytest.raises(ValueError):
        Design(np.array([[-1]]), s=2)
    # save_design would write s=2.0, which load_design refuses
    with pytest.raises(ValueError, match="level count s=2.0 must be an integer"):
        Design(np.array([[0, 1]]), s=2.0)
    assert type(Design(np.array([[0, 1]]), s=np.int64(2)).s) is int
    # numpy's own exceptions would name no rule
    for bad in ([["1"]], [[1 + 0j]], [[None]], np.array([[1, None]], dtype=object)):
        with pytest.raises(ValueError, match="entries must be real numbers"):
            Design(bad, s=2)
    assert Design(np.array([[1]], dtype=object), s=2).matrix.dtype == np.uint8


@pytest.mark.parametrize("levels", [np.int64(4), np.uint8(4), 4.0, "4"])
def test_collapse_takes_an_integer_level_count(levels):
    design = nested64_fixture()
    if isinstance(levels, np.integer):  # passes, and the result's s is an int
        coarse = collapse(design, levels)
        assert type(coarse.s) is int
        assert np.array_equal(coarse.matrix, collapse(design, 4).matrix)
        return
    with pytest.raises(ValueError, match=f"level count s_coarse={levels!r} must be an integer"):
        collapse(design, levels)


@pytest.mark.parametrize("t", [np.int64(2), np.uint8(3), 2.0, "2"])
def test_check_strength_takes_an_integer_strength(t):
    design = collapse(nested64_fixture(), 4)
    if isinstance(t, np.integer):  # passes, and reports what an int strength does
        assert check_strength(design, t) == check_strength(design, int(t))
        return
    with pytest.raises(ValueError, match=f"strength t={t!r} must be an integer"):
        check_strength(design, t)


def test_design_repr_names_its_shape_and_levels():
    assert repr(Design(np.zeros((2, 2), int), s=2)) == "Design(n=2, d=2, s=2)"


@pytest.mark.parametrize(
    "s,dtype",
    [
        (1, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (65536, np.uint16),
        (65537, np.uint32),
        (2**32, np.uint32),
        (2**32 + 1, np.uint64),
    ],
)
def test_level_dtype_is_the_smallest_unsigned_holding_s_minus_1(s, dtype):
    assert level_dtype(s) == dtype


@pytest.mark.parametrize("s", [8, 256, 300, 70000])
def test_design_stores_its_level_dtype(s):
    values = np.random.default_rng(s).integers(0, s, size=(50, 3))
    for given in (values, values.astype(np.uint64), values.astype(np.int32), values.tolist()):
        design = Design(given, s=s)
        assert design.matrix.dtype == level_dtype(s)
        assert (design.matrix == values).all()


@pytest.mark.parametrize("s", [2, 256, 65536])
def test_design_checks_range_before_the_cast(s):
    # in uint8/uint16 storage -1 would wrap to 255 or 65535, and s to 0
    for bad in (-1, s):
        with pytest.raises(ValueError, match=f"entries must lie in \\[0, {s}\\)"):
            Design(np.array([[0, 1], [bad, 1]], dtype=np.int64), s=s)
    with pytest.raises(ValueError):
        Design(np.array([[s]], dtype=np.uint64), s=s)
    for bad in (np.nan, -0.5, 0.5):  # nothing is cast before the check
        with pytest.raises(ValueError):
            Design(np.array([[0.0], [bad]]), s=s)


def test_collapse_and_parse_store_the_level_dtype():
    fine = bush_construct(field_of_order(256), 2, 3)  # 65536 rows at 256 levels
    assert fine.matrix.dtype == np.uint8
    for levels in (16, 2):
        coarse = collapse(fine, levels)
        assert coarse.matrix.dtype == np.uint8
        assert (coarse.matrix == fine.matrix // (256 // levels)).all()
    # one level: the step 256 does not fit the uint8 matrix, and every entry is 0
    one = collapse(fine, 1)
    assert one.matrix.dtype == np.uint8 and not one.matrix.any()
    wide = Design(np.arange(600).reshape(300, 2) % 300, s=300)
    assert collapse(wide, 100).matrix.dtype == np.uint8
    loaded, _ = parse_design(format_design(wide))
    assert loaded.matrix.dtype == np.uint16
    assert (loaded.matrix == wide.matrix).all()


def latin_square_oa(s):
    """OA(s^2, 3, s, 2) for any s: columns a, b and (a + b) mod s."""
    a, b = np.divmod(np.arange(s * s), s)
    return np.column_stack([a, b, (a + b) % s])


@pytest.mark.parametrize("s", [256, 300])
def test_check_strength_at_wide_levels_matches_naive_oracle(s):
    # s = 256 is stored as uint8 and s = 300 as uint16; the cell index s*a + b
    # must be formed in int64, not in the column's dtype
    design = Design(latin_square_oa(s), s=s)
    assert design.matrix.dtype == level_dtype(s)
    assert check_strength(design, 2) == StrengthReport(t=2, ok=True, lam=1, violation=None)
    broken = design.matrix.copy()
    broken[[0, -1], 2] = broken[[-1, 0], 2]  # levels 0 and s - 2 swapped in column 2
    broken = Design(broken, s=s)
    for t in (1, 2):
        assert check_strength(broken, t) == naive_report(broken, t)
    assert not check_strength(broken, 2).ok


def test_csv_round_trip():
    d = bush_construct(field_of_order(3), 2)
    text = format_design(d, {"seed": "7"})
    rows = "".join(",".join(map(str, row)) + "\n" for row in d.matrix.tolist())
    assert text == "# noa-design v1 n=9 d=4 s=3 seed=7\n" + rows
    loaded, meta = parse_design(text)
    assert (loaded.matrix == d.matrix).all()
    assert loaded.s == d.s
    assert meta["seed"] == "7"


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"s": "4"}, "header key 's' repeats an earlier key"),
        ({"n": "2"}, "header key 'n' repeats an earlier key"),
        ({"k=v": "1"}, "header key 'k=v' must be non-empty, without whitespace or '='"),
        ({"": "1"}, "header key '' must be non-empty"),
        ({"a b": "1"}, "header key 'a b' must be non-empty"),
        ({"note": "a b"}, "header value note='a b' must hold no whitespace"),
        ({"note": "1\n0,0"}, "header value note='1\\n0,0' must hold no whitespace"),
        ({"note": "x\x1cy"}, "must hold no whitespace"),  # a line break to str.splitlines
    ],
)
def test_save_refuses_a_header_that_would_not_load_back(tmp_path, extra, message):
    design = Design(np.array([[0, 1], [1, 0]]), s=2)
    path = tmp_path / "design.csv"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        save_design(design, path, extra)
    assert path.read_text() == "kept\n"  # refused before the file was opened
    with pytest.raises(ValueError, match=re.escape(message)):
        format_design(design, extra)


def test_save_keeps_every_header_it_writes(tmp_path):
    design = Design(np.array([[0, 1], [1, 0]]), s=2)
    extra = {"seed": "18446744073709551615", "ladder": "(4,1);(2,2)", "note": "", "k": "a=b"}
    path = tmp_path / "design.csv"
    save_design(design, path, extra)
    assert path.read_text().splitlines()[0] == (
        "# noa-design v1 n=2 d=2 s=2 seed=18446744073709551615 ladder=(4,1);(2,2) note= k=a=b"
    )
    loaded, meta = load_design(path)
    assert (loaded.matrix == design.matrix).all() and loaded.s == 2
    assert meta == {"n": "2", "d": "2", "s": "2", **extra}


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_design, "# noa-design v1 n=2 d=2 s=2 s=4\n0,1\n1,0\n"),
        (parse_design, "# noa-design v1 n=2 d=2 s=2 k=1 k=1\n0,1\n1,0\n"),
        (parse_design, "# noa-design v1 n=2 n=2 d=2 s=2\n0,1\n1,0\n"),
        (parse_points, "# noa-points v1 n=1 d=2 d=2\n0.5,0.5\n"),
    ],
)
def test_load_refuses_a_repeated_header_key(parse, text):
    with pytest.raises(FormatError, match="header key '[nsdk]' repeats"):
        parse(text)


# headers the writer cannot write: an empty key, a header integer that only
# Python's int() reads (10, 2), and a magic line that is a prefix of a token
UNWRITABLE_HEADERS = [
    ("# noa-design v1 n=2 d=2 s=2 =5\n0,1\n1,0\n", "header key '' must be non-empty"),
    ("# noa-design v1 n=2 d=2 s=1_0\n0,1\n1,0\n", "'1_0'"),
    ("# noa-design v1 n=2 d=\uff12 s=2\n0,1\n1,0\n", "'\uff12'"),
    ("# noa-design v1x=5 n=2 d=2 s=2\n0,1\n1,0\n", "missing '# noa-design v1' header"),
]


@pytest.mark.parametrize(
    "text, message", UNWRITABLE_HEADERS, ids=["empty-key", "underscore", "fullwidth", "magic-prefix"]
)
def test_load_refuses_a_header_the_writer_cannot_write(tmp_path, capsys, text, message):
    with pytest.raises(FormatError, match=re.escape(message)) as exc:
        parse_design(text)
    # noa verify on such a file: a parse error (exit 1) with one line, not a strength verdict
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    code = main(["verify", "--in", str(path), "--t", "1"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {exc.value}\n")


def test_load_reads_header_integers_by_the_entry_grammar():
    # a sign, as an entry may carry, still loads; past int64, or a comma, does not
    design, meta = parse_design("# noa-design v1 n=+2 d=2 s=2\n0,1\n1,0\n")
    assert (design.n, meta["n"]) == (2, "+2")
    for header in ("n=2 d=2 s=99999999999999999999", "n=2,2 d=2 s=2", "n= d=2 s=2"):
        with pytest.raises(FormatError, match="header must carry integer n, d, s"):
            parse_design(f"# noa-design v1 {header}\n0,1\n1,0\n")


# keys and values drawn from the characters a header gets wrong: empty,
# whitespace (a line break too), '=', the keys n, d and s, non-ASCII digits
HEADER_PIECES = ["n", "d", "s", "k", "=", " ", "\t", "\n", "\x1c", "\uff12", "1", "_"]
HEADER_TEXT = st.lists(st.sampled_from(HEADER_PIECES), max_size=3).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(extra=st.dictionaries(HEADER_TEXT, HEADER_TEXT, max_size=3))
def test_a_header_is_written_only_when_it_reads_back(extra):
    design = Design(np.array([[0, 1], [1, 0]]), s=2)
    try:
        text = format_design(design, extra)
    except ValueError:
        return
    assert parse_design(text)[1] == {"n": "2", "d": "2", "s": "2", **extra}


NO_SPACE_TEXT = st.text().map(lambda text: "".join(c for c in text if not c.isspace()))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(key=st.one_of(st.sampled_from(["", "n", "d", "s"]), NO_SPACE_TEXT), value=NO_SPACE_TEXT)
def test_load_refuses_a_token_exactly_when_save_refuses_its_pair(key, value):
    # the reader splits a token at its first '=', so the key holds none
    key = key.replace("=", "")
    design = Design(np.array([[0, 1], [1, 0]]), s=2)
    text = f"# noa-design v1 n=2 d=2 s=2 {key}={value}\n0,1\n1,0\n"
    try:
        format_design(design, {key: value})
    except ValueError:
        with pytest.raises(FormatError):
            parse_design(text)
        return
    assert parse_design(text)[1][key] == value


def test_csv_rejects_out_of_range_entry():
    with pytest.raises(FormatError):
        parse_design("# noa-design v1 n=1 d=2 s=2\n0,2\n")
    # past int64: the error names the entry instead of an OverflowError escaping
    with pytest.raises(FormatError, match="99999999999999999999"):
        parse_design("# noa-design v1 n=1 d=2 s=2\n0,99999999999999999999\n")


def test_csv_rejects_bad_header():
    with pytest.raises(FormatError):
        parse_design("0,1\n1,0\n")
    with pytest.raises(FormatError):
        parse_design("# noa-design v1 n=x d=2 s=2\n0,1\n")
    with pytest.raises(FormatError, match="level count s must be >= 1"):
        parse_design("# noa-design v1 n=1 d=1 s=0\n0\n")
    # with no rows, d alone shapes the table
    for d in (0, -1):
        with pytest.raises(FormatError, match=f"d={d} must be >= 1"):
            parse_design(f"# noa-design v1 n=0 d={d} s=2\n")
        with pytest.raises(FormatError, match=f"d={d} must be >= 1"):
            parse_points(f"# noa-points v1 n=0 d={d}\n")


def test_csv_rejects_row_count_mismatch():
    with pytest.raises(FormatError):
        parse_design("# noa-design v1 n=2 d=2 s=2\n0,1\n")
    # n*d entries in all, but not d in every row
    with pytest.raises(FormatError, match="row '0,1,1' has 3 entries, expected 2"):
        parse_design("# noa-design v1 n=2 d=2 s=2\n0,1,1\n1\n")


@pytest.mark.parametrize("body,row", [("0\n1\n", "'0' has 1"), ("0,1,1\n1,0,1\n", "'0,1,1' has 3")])
def test_csv_rejects_rows_all_of_the_wrong_length(body, row):
    # every row alike converts without error, to an n x 1 or n x 3 table
    with pytest.raises(FormatError, match=f"row {row} entries, expected 2"):
        parse_design("# noa-design v1 n=2 d=2 s=2\n" + body)
    with pytest.raises(FormatError, match=f"row {row} entries, expected 2"):
        parse_points("# noa-points v1 n=2 d=2\n" + body)


def test_csv_rejects_empty_design():
    with pytest.raises(FormatError, match="nonempty"):
        parse_design("# noa-design v1 n=0 d=2 s=2\n")


# (kind, two rows of as many columns as the first, the rows read or the text the error names)
CSV_GRAMMAR = [
    ("design", " 1 ,0\n0, 1 \n", [[1, 0], [0, 1]]),
    ("points", " 0.5 ,0\n0, 0.25 \n", [[0.5, 0.0], [0.0, 0.25]]),
    ("design", "+3,0\n0,+1\n", [[3, 0], [0, 1]]),
    ("points", "+0.5,0\n0,+0.25\n", [[0.5, 0.0], [0.0, 0.25]]),
    ("design", "1,0\r\n0,1\r\n", [[1, 0], [0, 1]]),
    ("points", "0.5,0\r\n0,0.25\r\n", [[0.5, 0.0], [0.0, 0.25]]),
    ("design", "1,0\n\n \n0,1\n", [[1, 0], [0, 1]]),
    ("points", "0.5,0\n\n\t\n0,0.25\n", [[0.5, 0.0], [0.0, 0.25]]),
    ("design", "1_0,0\n0,1\n", "'1_0'"),  # int() reads 10
    ("points", "0.2_5,0\n0,0.5\n", "'0.2_5'"),  # float() reads 0.25
    ("design", "١,0\n0,1\n", "'١'"),  # ARABIC-INDIC DIGIT ONE
    ("points", "٠.٥,0\n0,0.5\n", "'٠.٥'"),
    ("design", "１,0\n0,1\n", "'１'"),  # FULLWIDTH DIGIT ONE
    ("design", "0x1,0\n0,1\n", "'0x1'"),
    ("points", "0x1p-1,0\n0,0.5\n", "'0x1p-1'"),
    ("design", "1.0,0\n0,1\n", "'1.0'"),
    ("design", "0,,1\n1,0,1\n", "''"),
    ("points", "0,,0.5\n0.5,0,0.5\n", "''"),
    ("points", "nan,0\n0,0.5\n", "nan"),
    ("points", "0.5,inf\n0,0.5\n", "inf"),
    ("points", "0.5,0\n-inf,0.5\n", "-inf"),
]


@pytest.mark.parametrize("kind,body,expected", CSV_GRAMMAR)
def test_csv_token_grammar(tmp_path, capsys, kind, body, expected):
    d = body.split("\n")[0].count(",") + 1
    if kind == "design":
        text = f"# noa-design v1 n=2 d={d} s=16\n" + body
        parse = lambda text: parse_design(text)[0].matrix  # noqa: E731
    else:
        text = f"# noa-points v1 n=2 d={d}\n" + body
        parse = lambda text: parse_points(text).points  # noqa: E731
    if isinstance(expected, list):
        assert parse(text).tolist() == expected
        return
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert expected in str(exc.value)
    if kind == "design":  # the CLI reads design files: exit 1 and one line
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        for argv in (["verify", "--t", "1"], ["sample"]):
            code = main([argv[0], "--in", str(path), *argv[1:]])
            out = capsys.readouterr()
            assert (code, out.out) == (1, "")
            assert out.err == f"error: {exc.value}\n"


# --- 64-run fixture ----------------------------------------------------------


def test_fixture_column_counts():
    fx = nested64_fixture()
    assert (fx.n, fx.d, fx.s) == (64, 5, 8)
    for j in range(5):
        assert (np.bincount(fx.matrix[:, j], minlength=8) == 8).all()


def test_fixture_strength3_at_4_levels():
    rep = check_strength(collapse(nested64_fixture(), 4), 3)
    assert rep.ok and rep.lam == 1


def test_fixture_pairwise_balance_beyond_first_column():
    # the source table is only pairwise balanced at 8 levels away from
    # column 0: the fine bits of columns 2-4 are a function of column 0's
    # coarse level, so the (0, j>=2) pairs cannot balance
    fx = nested64_fixture()
    sub = Design(fx.matrix[:, [1, 2, 3, 4]], s=8)
    rep = check_strength(sub, 2)
    assert rep.ok and rep.lam == 1
    pair01 = check_strength(Design(fx.matrix[:, [0, 1]], s=8), 2)
    assert pair01.ok and pair01.lam == 1
    full = check_strength(fx, 2)
    assert not full.ok
    assert full.violation.columns == (0, 2)
