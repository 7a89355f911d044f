"""Nested orthogonal array construction.

Every design kind (``lhs``, ``oa2``, ``tang``, ``noa3``) is planned by
``plan(kind, n, d)`` and built by ``construct(plan, seed)``, which returns
the ``Design`` once it has verified ``plan.ladder``, the Latin hypercube's
included.  All constructions are pure functions of their parameters and a
single user seed.

The strength-3 design is built by combining stacked copies of a strength-3
Bush array at s3 levels (its leading-coefficient column not built, so rows
sharing a leading coefficient form contiguous blocks of s3^2 rows that are
strength 2 on the evaluation columns) with stacked, shuffled copies of a
strength-2 Bush array at q = p^c levels, one row per block: out = coarse *
q + fine.  The result
has s2 = q * s3 levels, keeps strength 3 under the coarse strata, gains
strength 2 at s2, and is then expanded to n distinct levels per column to
add the Latin hypercube rung.  The expansion takes a per-column builder,
not a finished matrix: every random draw of the relabelling is made first,
and column j is then built at s2 levels in the calling lane just before its
rows are ordered by level with one in-place sort of distinct keys,
level << shift | row, while the helper lane draws column j + 1's fine
levels; the rows of each level take a random arrangement of its n/s2 fine
levels.

The noa3 planner enumerates every pair of field orders (s3, q) that this
construction can build for (n, d) and takes the one with the largest s3,
then the largest s2; s2 itself need not be a prime power.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .bush import bush_columns, bush_ladder
from .designs import Design, check_int, check_size, level_dtype, pipeline, verify_ladder
from .errors import NoNontrivialPlanError, UnbalancedColumnError
from .gf import MAX_ORDER, field_of_order, prime_power
from .rng import STAGE_DESIGN, stream


@dataclass(frozen=True)
class Plan:
    """A design kind for n runs and d factors, and the ladder its construction guarantees.

    The ladder's (levels, strength) rungs each have index n/levels^t: lhs
    ((n, 1),), a Latin hypercube; oa2 bush_ladder(s, 2, d) with n = s^2,
    Owen's (1992) randomized orthogonal array; tang ((n, 1), (s2, 2)),
    Tang's (1993) OA-based Latin hypercube; noa3 ((n, 1), (s2, 2), (s3, 3)).
    """

    kind: str
    n: int
    d: int
    ladder: tuple[tuple[int, int], ...]

    def _levels(self, t: int) -> int:
        for levels, strength in self.ladder:
            if strength == t:
                return levels
        raise AttributeError(f"a {self.kind} plan has no strength-{t} rung")

    @property
    def s2(self) -> int:
        return self._levels(2)

    @property
    def s3(self) -> int:
        return self._levels(3)


@dataclass(frozen=True)
class NestedDesign:  # construct_noa's result: a design and its plan's ladder
    design: Design
    ladder: tuple[tuple[int, int], ...]  # (levels, strength) pairs


def _prime_power_roots(n: int, k: int) -> list[int]:
    """The buildable prime powers q (at most MAX_ORDER) with q^k | n, ascending."""
    qs = takewhile(lambda q: q**k <= n, range(2, MAX_ORDER + 1))
    return [q for q in qs if n % q**k == 0 and prime_power(q) is not None]


def plan(kind: str, n: int, d: int) -> Plan:
    """The plan of a design kind for (n, d); raises when the kind cannot be built.

    lhs takes any n, d >= 1; oa2 n = s^2 for a prime power s and d <= s + 1.
    tang takes the largest prime power s2 with s2^2 | n, which must meet the
    Bush bound s2 + 1 >= d.  noa3 enumerates every pair of prime powers s3
    and q with s3 >= d, s3^3 | n, q + 1 >= d and q^2 | n / s3^2, and takes
    the largest s3, then the largest s2 = q * s3, which need not be a prime
    power (n=108, d=3 gives s3=3, q=2, s2=6).  Field orders are at most
    gf.MAX_ORDER, as _prime_power_roots finds them, so every plan builds
    when its n x d design fits in MAX_ENTRIES.
    """
    n, d = check_int(n, "n"), check_int(d, "d")
    if kind == "lhs":
        if n < 1 or d < 1:
            raise ValueError("n and d must be >= 1")
        return Plan(kind, n, d, ((n, 1),))
    if kind == "oa2":
        s = max(_prime_power_roots(n, 2), default=0)
        if n == 0 or s * s != n:  # 0 has no roots, and 0 * 0 == 0
            raise NoNontrivialPlanError(f"oa2 needs n a square of a prime power, got n={n}")
        return Plan(kind, n, d, bush_ladder(s, 2, d))
    if kind == "tang":
        if n < 4 or d < 2:
            raise ValueError("need n >= 4 and d >= 2")
        # the largest s2 (0 if none) is the only candidate: s2 + 1 >= d is monotone in s2
        s2 = max(_prime_power_roots(n, 2), default=0)
        if s2 + 1 < d:
            raise NoNontrivialPlanError(
                f"no prime power s2 with s2^2 | n={n} and s2 + 1 >= d={d}"
            )
        return Plan(kind, n, d, ((n, 1), (s2, 2)))
    if kind != "noa3":
        raise ValueError(f"unknown design kind {kind!r}")
    if n < 8:
        raise ValueError(f"n={n} must be >= 8")
    if d < 3:
        raise ValueError(f"d={d} must be >= 3")
    plans = [
        (s3, q)
        for s3 in _prime_power_roots(n, 3)
        if s3 >= d
        for q in _prime_power_roots(n // s3**2, 2)
        if q + 1 >= d
    ]
    if not plans:
        raise NoNontrivialPlanError(
            f"no plan for n={n}, d={d}: no prime powers s3, q <= {MAX_ORDER} with "
            "s3 >= d, s3^3 | n, q + 1 >= d and q^2 | n/s3^2 "
            "(consider the strength-2 construction instead)"
        )
    s3, q = max(plans)
    return Plan(kind, n, d, ((n, 1), (q * s3, 2), (s3, 3)))


def plan_noa(n: int, d: int) -> Plan:
    """plan("noa3", n, d), kept for the harness in benchmarks/."""
    return plan("noa3", n, d)


def _oa(t: int, d: int, k: int, rng: np.random.Generator, labels: np.ndarray):
    """take(j, out): column j of k stacked copies of d Bush columns, each copy relabelled.

    The copies are over GF(s), s = labels.size, one label per element.  Only
    the kept columns are built: the evaluation columns 1..d, or all s + 1
    when d = s + 1 forces column 0, which the coarse strength-3 array never
    allows.  One draw of d * k independent permutations of the s labels
    (distinct, in the dtype out is written in), made here, relabels copy
    r's column j by the (j, r) permutation, which keeps strength t.
    take(j, out) writes column j of the k * s^t rows into out, a contiguous
    array of labels' dtype: a caller that goes on to larger levels in place
    passes labels in their dtype.  take draws nothing, so its columns may be
    taken in any order, in any lane.
    """
    base = bush_columns(field_of_order(labels.size), t, int(d <= labels.size), d)
    n0 = base.shape[0]
    # in labels' dtype, so the gather below writes it; shuffled in place (no
    # broadcast view to copy), and as the draw permutes positions alone, any
    # s labels give the stream of 0..s-1
    perms = np.empty((d, k, labels.size), dtype=labels.dtype)
    perms[...] = labels
    rng.permuted(perms, axis=2, out=perms)

    def take(j, out):
        # column j of the stack, as k rows of n0: row r is copy r's relabel
        # of base[:, j]; every index is a level, so "clip" changes none and
        # lets take write out directly instead of through a buffer
        np.take(perms[j], base[:, j], axis=1, out=out.reshape(k, n0), mode="clip")

    return take


def _stack(s: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The k * s^2 x d column-major matrix, in level_dtype(s), of _oa's k copies over GF(s)."""
    take = _oa(2, d, k, rng, np.arange(s, dtype=level_dtype(s)))
    mat = np.empty((k * s * s, d), dtype=level_dtype(s), order="F")
    for j, col in enumerate(mat.T):
        take(j, col)
    return mat


_RANK_BLOCK = 1 << 16  # fine levels shuffled per call in _expand_levels: 512 KiB of intp
_SCATTER_BLOCK = 1 << 14  # rows scattered per call in _expand_levels: 128 KiB of intp


def _expand_levels(column, n: int, d: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """The n x d matrix of column(j, out)'s columns, each level's n/s occurrences made distinct.

    column(j, out) writes column j at s levels into out, the result's
    contiguous column j in level_dtype(n).  Occurrences of level i in
    column j then become a random arrangement of [i*n/s, (i+1)*n/s), in
    place, so every column ends up a permutation of 0..n-1 and
    integer-dividing by n/s recovers the built column.

    The columns run on designs.pipeline: the producer draws a column's
    fine levels, in order, into one of two column buffers allocated here,
    and the consumer builds the column with column(j, out), orders its rows
    by level and scatters the drawn levels, so the builder runs only in the
    calling lane.  It orders them by sorting, in place, one key per row,
    level << shift | row: the keys are distinct, so any sort lists the rows
    of each level in row order, as a stable sort by level would.  The rows
    of level lev then sit at positions lev*m .. (lev+1)*m - 1, and as the
    sorted levels never decrease, the column is balanced exactly when the
    first and last key of every such block hold its level.  Only the
    producer reads rng, so the draws, and the result, are the same with one
    lane or two; with two, column j + 1 is drawn while column j is built
    and sorted.
    """
    if n % s != 0:
        raise UnbalancedColumnError(f"n={n} not divisible by s={s}")
    m = n // s
    mat = np.empty((n, d), dtype=level_dtype(n), order="F")
    # the fine levels of level lev are [lev*m, (lev+1)*m); they are shuffled
    # a block of levels at a time, as rows of intp ranks (the dtype numpy
    # shuffles fastest) offset by the block's first fine level
    per_block = min(max(1, _RANK_BLOCK // m), s)
    ranks = np.arange(per_block * m).reshape(per_block, m)
    shuffled = np.empty_like(ranks)
    # column j's fine levels in row j % 2, in the matrix's dtype, so two
    # columns take no more than one of intp and the scatter casts nothing
    drawn = np.empty((2, n), dtype=mat.dtype)
    shift = (n - 1).bit_length()
    key = level_dtype(s << shift)  # uint32 up to 2^32 keys, which sort fastest, else uint64
    # typed scalars: every step below is a loop of key's dtype, a narrower
    # column's shift too, which numpy runs faster than one with a Python int
    shift, mask = key.type(shift), key.type((1 << shift) - 1)
    rows = np.arange(n, dtype=key)
    keys = np.empty(n, dtype=key)
    # the first and last key of each level's block of m, a view that reads
    # every column's sorted keys, and the levels they must hold, as bytes:
    # one comparison of bytes costs less than numpy's of two small arrays
    ends = keys.reshape(s, m)[:, :: max(m - 1, 1)]
    want = rows[:s].repeat(ends.shape[1]).tobytes()
    # the rows are scattered a block at a time, so no n-sized intp copy of the keys exists
    index = np.empty(min(n, _SCATTER_BLOCK), dtype=np.intp)

    def produce(j, stop):
        fine = drawn[j % 2]
        for lo in range(0, n, ranks.size):
            block = rng.permuted(ranks[: (n - lo) // m], axis=1, out=shuffled[: (n - lo) // m])
            np.add(block, lo, out=block)  # in intp, then cast once: a casting add costs more
            fine[lo : lo + block.size] = block.ravel()
        return fine

    def consume(j, fine):  # one column at a time: an all-column sort costs peak memory
        col = mat[:, j]
        column(j, col)
        np.left_shift(col, shift, out=keys)
        np.bitwise_or(keys, rows, out=keys)
        keys.sort()
        if (ends >> shift).tobytes() != want:  # only now count, for the message
            counts = np.bincount(col, minlength=s)
            lev = int(np.flatnonzero(counts != m)[0])
            raise UnbalancedColumnError(
                f"column {j}: level {lev} occurs {int(counts[lev])} times, expected {m}"
            )
        for lo in range(0, n, index.size):
            part = np.bitwise_and(keys[lo : lo + index.size], mask, out=index[: n - lo])
            col[part] = fine[lo : lo + index.size]

    pipeline(n, d, produce, consume)
    return mat


def _build(plan: Plan, rng: np.random.Generator) -> Design:
    """The design of a plan, drawn from rng and not yet verified."""
    n, d = plan.n, plan.d
    if plan.kind == "lhs":
        mat = np.empty((n, d), dtype=level_dtype(n), order="F")
        for col in mat.T:  # drawn in intp, which numpy shuffles fastest, a column at a time
            col[:] = rng.permutation(n)
        return Design(mat, s=n)
    if plan.kind == "oa2":  # Owen's: one relabelled copy of the Bush columns
        s = plan.ladder[0][0]  # the one rung's levels: at d = 1 it is (s, 1), with no s2
        return Design(_stack(s, d, 1, rng), s=s)
    s2, wide = plan.s2, level_dtype(n)
    # each column is taken at n levels' dtype, so it expands in place
    if plan.kind == "tang":
        column = _oa(2, d, n // (s2 * s2), rng, np.arange(s2, dtype=wide))
    else:  # coarse strength-3 rows plus fine rows, at s2 levels
        s3 = plan.s3
        q = s2 // s3  # the fine field's order
        # k3 = n / s3^3 copies, d <= s3, relabelled onto the multiples of q below s2
        coarse = _oa(3, d, n // s3**3, rng, np.arange(0, s2, q, dtype=wide))
        # b = n / s2^2 copies, all taken now: the row shuffle draws next
        fine = _stack(q, d, n // s2**2, rng)
        fine = fine[rng.permutation(fine.shape[0])]

        def column(j, out):
            # one fine row per contiguous block of s3^2 coarse rows, added in
            # place through the column's (blocks, s3^2) view
            coarse(j, out)
            blocks = out.reshape(-1, s3 * s3)
            blocks += fine[:, j, None]

    return Design(_expand_levels(column, n, d, s2, rng), s=n)


def construct(plan: Plan, seed: int) -> Design:
    """Build a plan's design, deterministically per seed, and verify plan.ladder on it."""
    check_size(plan.n, plan.d)
    design = _build(plan, stream(seed, STAGE_DESIGN))
    verify_ladder(design, plan.ladder)
    return design


def construct_noa(plan: Plan, seed: int) -> NestedDesign:
    """construct(plan, seed) paired with plan.ladder, kept for the harness in benchmarks/."""
    return NestedDesign(construct(plan, seed), plan.ladder)


def construct_tang(n: int, d: int, seed: int) -> Design:
    """construct(plan("tang", n, d), seed): a Bush array at s2 levels expanded to n levels."""
    return construct(plan("tang", n, d), seed)


def construct_lhs(n: int, d: int, seed: int) -> Design:
    """construct(plan("lhs", n, d), seed): each column a uniform permutation of 0..n-1."""
    return construct(plan("lhs", n, d), seed)


def expand_to_lhs(design: Design, seed: int) -> Design:
    """Refine a level-balanced design to n distinct levels per column.

    Collapsing the result back to design.s recovers the input exactly; with
    a strength-2 input this is the orthogonal-array-based Latin hypercube.
    """
    rng = stream(seed, STAGE_DESIGN)

    def column(j, out):  # widened for n levels
        out[...] = design.matrix[:, j]

    return Design(_expand_levels(column, design.n, design.d, design.s, rng), s=design.n)
