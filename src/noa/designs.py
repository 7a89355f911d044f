"""Design matrices, exact strength verification, and the CSV file format.

A design is an n-by-d integer matrix with a single level count s shared by
all columns, stored column-major and read-only in level_dtype(s), the
smallest unsigned dtype that holds s - 1 (1-4 bytes per entry): every
kernel reads it one column at a time.  Strength is verified by exhaustive
counting: for every t-subset of columns, every level t-tuple must occur
exactly n/s^t times.  When that index is 1 (n = s^t), a t-subset is checked
by testing that its cell indices form a permutation of 0..n-1, which by
pigeonhole is the same condition; only a failing subset is counted cell by
cell.

A subset's cell indices are built one row block of 2^16 rows at a time, in
a reused int64 block buffer (its partial indices in a narrow one), and
each block is scattered into a flag byte per cell (or, at index above 1,
added into an int64 count per cell); no buffer of n indices exists.
Working memory is, per half (below), one flag byte per cell (an int64
count above index 1) and at most 12 bytes per block row.  A check of more
than MAX_CHECK_WORK row visits is refused before any of it is built.

pipeline is the package's one two-lane runner, and its docstring states
its contract.  Three stages run on it, each with byte-identical output with
one lane or two: this strength check (the helper checks the upper half of
the t-subsets, the caller the lower half, and takes the upper's answer only
once the lower half has passed), the level expansion in
nested._expand_levels (the helper draws column j's fine levels while the
caller builds, sorts and balance-checks column j) and sampling.to_points
(the helper draws a row block's offsets while the caller casts its levels).
The helper lane allocates no array: every buffer it writes is the
caller's.  The strength report names the lower half's first failing
subset, else the upper's, so it is the lexicographically first violation
either way.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldOverflowError, FormatError, InternalInvariantError, NotDivisorError, StrengthError
)

# the most entries of any design or array built, counted in entries: a
# design entry takes 1-4 bytes (level_dtype), a GF table or check_strength
# counter entry 8, so at most 1 GiB (GF(512) at strength 3 would need 513 GiB)
MAX_ENTRIES = 1 << 27

# the most row visits check_strength takes on: C(d, t) column tuples of n
# rows each, every tuple charged _TUPLE_ROWS more for its fixed per-call
# cost (about 8 us); a few ns a visit, so at most about half an hour.  The
# largest ladder any constructor verifies stays below it: noa gen --kind
# bush --s 107 --t 3 --d 108 takes C(108, 3) tuples of 107^3 rows, about
# 2^37.9 visits
MAX_CHECK_WORK = 1 << 38
_TUPLE_ROWS = 1 << 12

# rows per block of cell indices in check_strength: a block's int64 indices
# take 512 KiB, and blocks this long keep numpy's per-call cost small; work
# of more than one block gets pipeline's helper lane on a multi-CPU process
_BLOCK = 1 << 16


_LEVEL_DTYPES = tuple(map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64)))


def level_dtype(s: int) -> np.dtype:
    """The smallest unsigned dtype that holds the levels 0..s-1.

    uint8 up to 256 levels, uint16 up to 65536, uint32 beyond; every design
    built has s <= n <= MAX_ENTRIES.  Only a caller's or a file's s past
    2^32 needs uint64.
    """
    return _LEVEL_DTYPES[(s > 1 << 8) + (s > 1 << 16) + (s > 1 << 32)]


def check_int(value, what: str) -> int:
    """value as a Python int, or ValueError naming what must be an integer.

    A Python or numpy integer passes; a float, even a whole one, does not,
    so 1.5 is not truncated to 1, and a numpy integer becomes an int, which
    level_dtype and json take.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}={value!r} must be an integer") from None


def check_size(n: int, d: int) -> None:
    """Refuse an n x d design of more than MAX_ENTRIES entries before building any of it."""
    if n * d > MAX_ENTRIES:
        raise FieldOverflowError(f"design of {n} rows x {d} columns exceeds {MAX_ENTRIES} entries")


def real_array(values, what: str) -> np.ndarray:
    """values as an array of real numbers, or ValueError naming what must be.

    Strings, complex numbers, None and other objects would otherwise meet
    numpy's own exceptions in the checks that follow (or its string parser
    in a cast to float); an object array of real numbers passes.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biufO" or (
        arr.dtype.kind == "O" and not all(isinstance(v, numbers.Real) for v in arr.flat)
    ):
        raise ValueError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr


@dataclass(frozen=True, eq=False)
class Design:
    """An n x d matrix whose entries are levels in [0, s).

    The matrix is stored as a read-only column-major (Fortran-order) array
    of level_dtype(s), so each column is contiguous.  The range and the
    whole-number rule are checked on the caller's values before the cast,
    so -1 cannot wrap to s - 1 nor 0.5 truncate to 0.
    """

    matrix: np.ndarray
    s: int

    def __post_init__(self):
        mat = real_array(self.matrix, "entries")
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("matrix must be 2-d and nonempty")
        # stored as int: a numpy integer s cannot index level_dtype's table
        object.__setattr__(self, "s", check_int(self.s, "level count s"))
        if self.s < 1:
            raise ValueError("level count s must be >= 1")
        # unsigned entries need only the upper bound, one scan; written so
        # that NaN fails too
        if not ((mat.dtype.kind == "u" or mat.min() >= 0) and mat.max() < self.s):
            raise ValueError(f"entries must lie in [0, {self.s})")
        # the cast would truncate 0.5 to 0
        if mat.dtype.kind not in "biu" and not (mat % 1 == 0).all():
            raise ValueError("entries must be whole numbers")
        mat = np.asfortranarray(mat, dtype=level_dtype(self.s))
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self) -> str:
        return f"Design(n={self.n}, d={self.d}, s={self.s})"


@dataclass(frozen=True)
class Violation:
    columns: tuple[int, ...]
    levels: tuple[int, ...]
    observed: int
    expected: float


@dataclass(frozen=True)
class StrengthReport:
    t: int
    ok: bool
    lam: int | None
    violation: Violation | None


def check_strength(design: Design, t: int) -> StrengthReport:
    """Exhaustively verify the orthogonal-array property at strength t.

    Reports the lexicographically first violating (column tuple, level tuple)
    when the design fails.  Raises FieldOverflowError, before any tuple or
    buffer exists, when the C(d, t) column tuples would take more than
    MAX_CHECK_WORK row visits.
    """
    t = check_int(t, "strength t")
    if not 1 <= t <= design.d:
        raise StrengthError(f"strength t={t} outside [1, {design.d}]")
    n, s = design.n, design.s
    cells = s**t
    expected = n / cells
    if n % cells:
        # expected is fractional, so every cell is off and the first violation
        # is cell 0 of columns (0..t-1); no counters are needed (s^t may
        # exceed n by far, or not fit in an int64 index)
        observed = np.count_nonzero(~design.matrix[:, :t].any(axis=1))
        return StrengthReport(
            t=t,
            ok=False,
            lam=None,
            violation=Violation(tuple(range(t)), (0,) * t, int(observed), expected),
        )
    count = math.comb(design.d, t)
    if count * (n + _TUPLE_ROWS) > MAX_CHECK_WORK:
        raise FieldOverflowError(
            f"strength {t} of {n} rows x {design.d} columns has {count} column tuples, "
            f"over {MAX_CHECK_WORK} row visits"
        )
    lam = n // cells
    columns = design.matrix.T  # C-contiguous: row j is column j
    # two contiguous halves of the tuples when the runner gives the upper one
    # a lane of its own, taken lazily from two generators (one tuple is all upper)
    mid = count // 2 if _lanes(n) == 2 else count
    halves = [itertools.islice(itertools.combinations(range(design.d), t), mid)]
    if mid < count:
        halves.append(itertools.islice(itertools.combinations(range(design.d), t), mid, None))
    # each half's buffers, and its flag byte (or int64 count) per cell, are
    # allocated here, in the calling thread, so the helper lane adds no heap
    state = bool if lam == 1 else np.int64
    narrow = level_dtype(cells)
    # typed, so each product is formed in the narrow dtype; t = 1 copies each
    # column and reads no radix (and s = s^t need not fit that dtype)
    radix = narrow.type(s) if t > 1 else None
    work = [(_blocks(columns, narrow), radix, lam, np.empty(cells, state), half) for half in halves]

    def upper(i, stop):  # None when the lower half is every tuple
        return _first_failure(*work[1], stop) if mid < count else None

    # the lower half's failure comes first, and leaves the upper untaken: stopped
    (failed,) = pipeline(n, 1, upper, lambda i, take: _first_failure(*work[0]) or take())
    if failed is None:
        return StrengthReport(t=t, ok=True, lam=lam, violation=None)
    counts = _count(work[0][0], failed, radix, np.zeros(cells, dtype=np.int64))
    first = np.flatnonzero(counts != lam)[0]
    levels = tuple(map(int, np.unravel_index(first, (s,) * t)))
    return StrengthReport(
        t=t,
        ok=False,
        lam=None,
        violation=Violation(failed, levels, int(counts[first]), expected),
    )


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(columns: np.ndarray, dtype: np.dtype) -> list[tuple[np.ndarray, ...]]:
    """(columns, narrow buffer, int64 buffer) views for each row block.

    The two block buffers are new and shared by every block: the narrow one,
    of dtype, holds the partial cell indices, the int64 one the indices a
    scatter reads.
    """
    n = columns.shape[1]
    narrow = np.empty(min(n, _BLOCK), dtype=dtype)
    wide = np.empty(min(n, _BLOCK), dtype=np.int64)
    if n <= _BLOCK:  # the arrays themselves: a small design's call makes no views
        return [(columns, narrow, wide)]
    return [
        (columns[:, lo : lo + _BLOCK], narrow[: n - lo], wide[: n - lo])
        for lo in range(0, n, _BLOCK)
    ]


def _index(part: np.ndarray, cols: tuple[int, ...], radix, narrow: np.ndarray, out: np.ndarray):
    """The cell indices of the column tuple cols over one row block, written into out.

    Every partial index is below s^t, so the Horner steps run in narrow,
    whose dtype holds s^t - 1; radix, the level count s, has that dtype, so
    numpy forms each product in it.  Only the last step writes int64, the
    index dtype a scatter reads fastest.
    """
    if len(cols) == 1:  # a narrow index would scatter more slowly than this copy
        out[...] = part[cols[0]]
        return out
    np.multiply(part[cols[0]], radix, out=narrow)
    for col in cols[1:-1]:
        narrow += part[col]
        narrow *= radix
    return np.add(narrow, part[cols[-1]], out=out)


def _count(blocks, cols: tuple[int, ...], radix, counts: np.ndarray) -> np.ndarray:
    """counts, set to how many rows hit each cell of the column tuple cols."""
    counts.fill(0)
    for part, narrow, out in blocks:
        np.add.at(counts, _index(part, cols, radix, narrow, out), 1)
    return counts


def _first_failure(blocks, radix, lam: int, state: np.ndarray, tuples, stop=()):
    """The first column tuple of tuples whose cells are not each hit lam times, or None.

    None also once stop is non-empty: the caller no longer needs the answer.
    """
    for cols in tuples:
        if stop:
            return None
        if lam > 1:
            # the counts sum to n = lam * cells, so max == lam iff all == lam
            if _count(blocks, cols, radix, state).max() != lam:
                return cols
            continue
        # with one row per cell, n indices hit every cell iff none repeats,
        # so flagging the cells hit decides the tuple without counting
        state.fill(False)
        for part, narrow, out in blocks:
            state[_index(part, cols, radix, narrow, out)] = True
        if np.count_nonzero(state) < len(state):
            return cols
    return None


def _lanes(rows: int) -> int:
    """2 when work over rows gets a helper lane (more than one block, more than one CPU), else 1."""
    return 2 if rows > _BLOCK and _cpus() > 1 else 1


def pipeline(rows: int, count: int, produce, consume) -> list:
    """[consume(i, take) for i in range(count)], where take() returns produce(i, stop).

    consume runs in the calling thread and calls take() once, where it
    first needs item i; only the last consume, or one that raises, may
    leave its item untaken, which is then stopped and dropped.  stop, a
    list, is non-empty once the run is ending, so a long produce may poll
    it and return early.  With two lanes (_lanes(rows) == 2) a one-worker
    executor calls produce(0), produce(1), ... in order: produce(0) beside
    consume(0), and produce(i + 1) once item i is taken, never beside
    consume(i - 1), so an item may reuse a buffer of the item two before.
    numpy releases the GIL inside array kernels, so the lanes overlap.  With
    one lane take() calls produce itself, and no thread starts.  Whatever
    either lane raises is raised here with its traceback, where the one-lane
    run would raise it, and the worker has ended when this returns.
    """
    stop: list = []
    if _lanes(rows) == 1:
        return [consume(i, lambda i=i: produce(i, stop)) for i in range(count)]
    # imported here: a one-lane process never loads concurrent.futures (nor logging)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="noa-pipeline") as lane:
        future, taken = lane.submit(produce, 0, stop), 0

        def take():
            nonlocal future, taken
            item = future.result()
            taken += 1
            if taken < count:
                future = lane.submit(produce, taken, stop)
            return item

        try:
            return [consume(i, take) for i in range(count)]
        finally:  # before the with block joins the worker
            stop.append(True)


def collapse(design: Design, s_coarse: int) -> Design:
    """View the design at coarser resolution: level -> level // (s/s_coarse)."""
    s_coarse = check_int(s_coarse, "level count s_coarse")
    if s_coarse < 1 or design.s % s_coarse != 0:
        raise NotDivisorError(f"{s_coarse} does not divide s={design.s}")
    step = design.s // s_coarse
    if step == 1:  # designs are immutable, so the design is its own collapse
        return design
    out = np.empty(design.matrix.shape, dtype=level_dtype(s_coarse), order="F")
    # a typed step: step = s, at s_coarse = 1, need not fit the matrix's dtype
    np.floor_divide(design.matrix, np.min_scalar_type(step).type(step), out=out, casting="unsafe")
    return Design(out, s=s_coarse)


def verify_ladder(design: Design, ladder) -> None:
    """Check every (levels, strength) rung of a constructed design.

    Each rung must hold, and check_strength passes one only at index
    n / levels^t; a failure is a bug in the construction, not in its input.
    """
    for levels, t in ladder:
        report = check_strength(collapse(design, levels), t)
        if not report.ok:
            raise InternalInvariantError(
                f"constructed design fails strength {t} at {levels} levels: {report}"
            )


# --- table files --------------------------------------------------------------
#
# Both CSV formats are one header line, the magic's tokens then key=value
# tokens that include integer n and d, then n lines of d comma-separated
# values.  The writer and the reader check the pairs by one grammar, _header,
# so a header reads back exactly when it could have been written.

_TABLE_ENTRIES = 1 << 15  # entries per block of format_table: a writer holds one block's objects


def _header(pairs, error) -> list[tuple[str, str]]:
    """The header pairs as strings, in order; error (the writer's or reader's) names a bad one."""
    pairs = [(str(key), str(val)) for key, val in pairs]
    seen: set[str] = set()
    for key, val in pairs:
        if not key or "=" in key or any(map(str.isspace, key)):
            raise error(f"header key {key!r} must be non-empty, without whitespace or '='")
        if key in seen:
            raise error(f"header key {key!r} repeats an earlier key")
        if any(map(str.isspace, val)):
            raise error(f"header value {key}={val!r} must hold no whitespace")
        seen.add(key)
    return pairs


def format_table(magic: str, header, matrix: np.ndarray, spec: str) -> Iterator[str]:
    """The file text for (key, value) header pairs and a matrix, a piece at a time.

    The header line, then blocks of at most _TABLE_ENTRIES entries (at least
    one row), each rendered by one template of the %-format spec.  A header
    that would not read back as the same pairs is a ValueError, raised here,
    before a writer has taken any text, so a refused save leaves its file.
    """
    pairs = _header(header, ValueError)
    n, d = matrix.shape
    step = max(1, _TABLE_ENTRIES // d)
    row = ",".join([spec] * d) + "\n"
    blocks = (matrix[lo : lo + step] for lo in range(0, n, step))
    body = ((row * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    head = " ".join([magic, *(f"{k}={v}" for k, v in pairs)]) + "\n"
    return itertools.chain([head], body)


def _read(rows, dtype) -> np.ndarray:
    """Lines of comma-separated numbers as one 2-d array of dtype, by numpy's text reader."""
    return np.loadtxt(rows, delimiter=",", dtype=dtype, comments=None, ndmin=2)


def parse_table(text: str, magic: str, keys, dtype) -> tuple[np.ndarray, dict[str, str], list[int]]:
    """The n x d body as one array of dtype, the header, and the integer keys' values (n, d first).

    The integer keys (a line each) and the body are converted by one reader,
    _read: ASCII numbers with optional sign, integers within int64.  Raises
    FormatError on a first line not opening with the magic's tokens, a token
    without '=', a header _header refuses, a missing or non-integer key, a row
    count other than n, a row of other than d entries, or an unread entry.
    """
    head, *body = [ln for ln in text.splitlines() if ln.strip()] or [""]
    tokens, start = head.split(), len(magic.split())
    if tokens[:start] != magic.split():
        raise FormatError(f"missing '{magic}' header")
    if bad := [token for token in tokens[start:] if "=" not in token]:
        raise FormatError(f"bad header token {bad[0]!r}")
    meta = dict(_header((token.split("=", 1) for token in tokens[start:]), FormatError))
    try:  # a value holding a comma reads as more than one integer, an empty one as none
        n, d, *_ = sizes = _read([meta[k] for k in keys], np.int64).reshape(len(keys)).tolist()
    except (KeyError, ValueError) as exc:
        raise FormatError(f"header must carry integer {', '.join(keys)}: {exc}") from exc
    if d < 1:
        raise FormatError(f"header d={d} must be >= 1")
    if len(body) != n:
        raise FormatError(f"expected {n} rows, found {len(body)}")
    try:
        values = _read(body, dtype) if body else np.empty((0, d), dtype)
    except ValueError as exc:  # numpy's message quotes the token
        _check_row_lengths(body, d)
        raise FormatError(f"bad entry: {exc}") from exc
    if values.shape[1] != d:  # every row has the same, wrong, length
        _check_row_lengths(body, d)
    return values, meta, sizes


def _check_row_lengths(rows, d: int) -> None:
    """Raise FormatError naming the first row of other than d entries."""
    for ln in rows:
        if ln.count(",") != d - 1:
            raise FormatError(f"row {ln!r} has {ln.count(',') + 1} entries, expected {d}")


# --- design CSV format -------------------------------------------------------
#
# First line:  # noa-design v1 n=<n> d=<d> s=<s> [key=value ...]
# Then n lines of d comma-separated integers, each in [0, s).

_MAGIC = "# noa-design v1"


def _design_text(design: Design, extra: dict[str, str] | None) -> Iterator[str]:
    header = [("n", design.n), ("d", design.d), ("s", design.s), *(extra or {}).items()]
    return format_table(_MAGIC, header, design.matrix, "%d")


def format_design(design: Design, extra: dict[str, str] | None = None) -> str:
    return "".join(_design_text(design, extra))


def save_design(design: Design, path, extra: dict[str, str] | None = None) -> None:
    text = _design_text(design, extra)  # a refused header raises before the file is opened
    with open(path, "w") as fh:
        fh.writelines(text)


def parse_design(text: str) -> tuple[Design, dict[str, str]]:
    matrix, meta, (_n, _d, s) = parse_table(text, _MAGIC, ("n", "d", "s"), np.int64)
    try:
        return Design(matrix, s=s), meta
    except ValueError as exc:  # no rows, s < 1, or an entry outside [0, s)
        raise FormatError(str(exc)) from exc


def read_text(path) -> str:
    """A design or points file's text; undecodable bytes are a FormatError."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not {exc.encoding} text (byte {exc.start})") from exc


def load_design(path) -> tuple[Design, dict[str, str]]:
    return parse_design(read_text(path))


# --- 64-run golden fixture ---------------------------------------------------
#
# A 64 x 5 design with 8 levels: strength 2 with index 1, and strength 3 with
# index 1 after collapsing to 4 levels.  Rows are listed one per 5-digit entry.

_FIXTURE_COLUMNS = """
11111 13333 15555 17777 00357 02175 04713 06531 01573 03751 05137 07315 10735 12517 14371 16153
21364 23146 25720 27502 30122 32300 34566 36744 31706 33524 35342 37160 20540 22762 24104 26326
51427 53605 55063 57241 40661 42443 44225 46007 41045 43267 45401 47623 50203 52021 54647 56465
61652 63470 65216 67034 70414 72636 74050 76272 71230 73012 75674 77456 60076 62254 64432 66610
"""


def nested64_fixture() -> Design:
    """The checked-in 64-run, 5-factor, 8-level nested design."""
    rows = []
    for block in _FIXTURE_COLUMNS.split():
        rows.append([int(ch) for ch in block])
    return Design(np.array(rows, dtype=np.int64), s=8)
