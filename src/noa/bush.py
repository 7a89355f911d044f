"""Bush's orthogonal array construction over GF(s).

Produces an s^t x (s+1) array of strength t for prime-power s.  Row i
corresponds to the polynomial whose coefficient vector is the base-s digit
expansion of i, with the coefficient of y^(t-1) as the most significant
digit.  Column 0 holds that leading coefficient; column j >= 1 holds the
polynomial evaluated at field element j-1.

The row order is part of the contract: all rows sharing a leading
coefficient are contiguous (s^(t-1) of them), which the nested combiner
relies on.

Only the columns a caller keeps are built, by one kernel, bush_columns,
and nothing is cached: a strength-3 array over GF(64) has 65 columns of
262144 rows, of which the nested constructions use a few.  The array is
column-major in level_dtype(s), and one of more than MAX_ENTRIES entries
is refused before it is allocated.
"""

from __future__ import annotations

import numpy as np

from .designs import MAX_ENTRIES, Design, check_int, level_dtype
from .errors import FieldOverflowError, StrengthError
from .gf import FieldSpec


def bush_ladder(s: int, t: int, d: int) -> tuple[tuple[int, int], ...]:
    """The one rung of d strength-t Bush columns over s levels, its inputs checked.

    The rung is (s, t), or (s, d) when d < t columns form a full factorial.
    Raises ValueError unless 1 <= d <= s + 1, the array's column count,
    StrengthError unless 1 <= t <= 3, and FieldOverflowError when the array
    would exceed MAX_ENTRIES entries; none of it needs the field, so every
    caller checks before the field's tables are built.  s, t and d must be
    integers (check_int), and the rung holds them as ints.
    """
    s, t, d = check_int(s, "level count s"), check_int(t, "strength t"), check_int(d, "d")
    if not 1 <= d <= s + 1:
        raise ValueError(f"need 1 <= d <= s + 1 = {s + 1} columns at s={s} levels, got d={d}")
    if not 1 <= t <= 3:
        raise StrengthError(f"strength t={t} outside supported range [1, 3]")
    if s**t * d > MAX_ENTRIES:
        raise FieldOverflowError(
            f"Bush array of {s}^{t} rows x {d} columns exceeds {MAX_ENTRIES} entries"
        )
    return ((s, min(t, d)),)


def bush_columns(field: FieldSpec, t: int, first: int, d: int) -> np.ndarray:
    """Bush columns first, ..., first + d - 1 as an s^t x d column-major matrix.

    first is 0 or 1, and first + d <= s + 1.  Only these columns are
    built, and bush_ladder checks d, t and the size of what is built.
    """
    s = field.s
    bush_ladder(s, t, d)
    lead = np.arange(s)
    mat = np.empty((s**t, d), dtype=level_dtype(s), order="F")
    add, mul = field.add_table, field.mul_table
    for out, j in zip(mat.T, range(first, first + d)):
        # Horner over all rows at once for column j = 1 + x: row a of
        # add[mul[acc, x]] holds acc[a] * x + c for every next coefficient c,
        # so raveling keeps the coefficients read first as the more
        # significant digits; column 0 repeats the leading coefficient instead
        acc = lead
        for _ in range(t - 1):
            acc = np.repeat(acc, s) if j == 0 else add[mul[acc, j - 1]].ravel()
        out[:] = acc
    return mat


def bush_construct(field: FieldSpec, t: int, d: int | None = None) -> Design:
    """The first d columns (all s + 1 by default) of the Bush array."""
    return Design(bush_columns(field, t, 0, field.s + 1 if d is None else d), s=field.s)
