"""Finite field arithmetic GF(p^m).

Elements are plain integers in [0, s) with s = p^m.  The base-p digits of
an element's index, least significant first, are the coefficients of
1, alpha, ..., alpha^(m-1), so index 0 is the additive identity, index 1
the multiplicative identity, and GF(4) enumerates as 0, 1, a, a+1.

Addition is digit-wise mod p; multiplication is polynomial multiplication
reduced modulo a fixed primitive polynomial, whose root alpha generates the
multiplicative group.  The modulus is the smallest monic primitive
polynomial of degree m, where "smallest" reads the coefficient vector
(constant term as the least significant digit) as a base-p integer.  Both
operations are backed by precomputed s-by-s tables, which bounds the field
order at MAX_ORDER = 4096 (two 128 MiB tables); the multiplication table is
gathered from log/antilog tables over alpha (Hedayat, Sloane and Stufken,
*Orthogonal Arrays*, 1999, ch. 3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .designs import check_int
from .errors import FieldOverflowError, InternalInvariantError, NotPrimeError

# the add and mul tables are s-by-s int64, 8*s^2 bytes each: 128 MiB at
# s = 4096 (at 65536 it would be 32 GiB)
MAX_ORDER = 1 << 12


def prime_power(s: int) -> tuple[int, int] | None:
    """Decompose s as p^m with p prime, or return None."""
    s = check_int(s, "s")
    if s < 2:
        return None
    p = 2
    while p * p <= s:
        if s % p == 0:  # s is a power of p iff the first power not below s is s
            m = 1
            while p**m < s:
                m += 1
            return (p, m) if p**m == s else None
        p += 1
    return (s, 1)


class FieldSpec:
    """Arithmetic context for GF(s), s = p^m.  Immutable after construction."""

    def __init__(self, s: int):
        s = check_int(s, "field order s")
        if s > MAX_ORDER:  # before factoring: 2^61 - 1 would take minutes
            raise FieldOverflowError(f"field order {s} exceeds {MAX_ORDER}")
        pm = prime_power(s)
        if pm is None:
            raise NotPrimeError(f"{s} is not a prime power")
        self.p, self.m = pm
        self.s = s
        self.irreducible, self.add_table, self.mul_table = self._build_tables()
        self.add_table.flags.writeable = False
        self.mul_table.flags.writeable = False

    def _build_tables(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        s, p, m = self.s, self.p, self.m
        weights = p ** np.arange(m)
        digits = np.arange(s)[:, None] // weights % p  # row a: the digits of a
        # addition is digit-wise mod p: each pass puts one more significant
        # digit, summed by the p x p table, above the table of the q = p^k
        # elements below it
        base = np.add.outer(np.arange(p), np.arange(p)) % p
        add = base
        for q in weights[1:].tolist():
            add = (base[:, None, :, None] * q + add[None, :, None, :]).reshape(p * q, p * q)
        # the modulus is the first monic x^m + (digits of low) whose root
        # alpha has order s - 1; its powers are then the antilog table.
        # a*alpha shifts the digits of a up one place and adds
        # alpha^m = -(digits of low) times the digit shifted out.  A zero
        # constant term makes x a factor, and then alpha is not a unit; a
        # unit's powers always come back to 1
        shifted = np.arange(s) % (s // p) * p
        for low in range(1, s):
            if low % p == 0:
                continue
            times_alpha = add[shifted, -digits[:, -1:] * digits[low] % p @ weights].tolist()
            powers, x = [1], times_alpha[1]
            while x != 1:
                powers.append(x)
                x = times_alpha[x]
            if len(powers) == s - 1:
                break
        else:
            raise InternalInvariantError(f"GF({s}) has no primitive polynomial")
        # log 0 points past the doubled antilog table into zeros, so a row
        # or column of 0 gives 0
        exp = np.array(powers, dtype=np.int64)
        log = np.empty(s, dtype=np.int64)
        log[exp] = np.arange(s - 1)
        log[0] = 2 * (s - 1)
        antilog = np.concatenate([exp, exp, np.zeros(2 * s, dtype=np.int64)])
        mul = antilog[np.add.outer(log, log)]
        return digits[low].tolist() + [1], add, mul

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


# a GF(4096) context holds 256 MiB of tables, so only the latest few are kept
_fields = lru_cache(maxsize=8)(FieldSpec)


def field_of_order(s: int) -> FieldSpec:
    """Return the GF(s) context, cached by s as an int since construction is deterministic."""
    return _fields(check_int(s, "field order s"))
