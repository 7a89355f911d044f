"""Finite field arithmetic GF(p^m).

Elements are plain integers in [0, s) with s = p^m.  The base-p digits of
an element's index, least significant first, are the coefficients of
1, alpha, ..., alpha^(m-1), so index 0 is the additive identity, index 1
the multiplicative identity, and GF(4) enumerates as 0, 1, a, a+1.

Addition is digit-wise mod p; multiplication is polynomial multiplication
reduced modulo a fixed irreducible.  The irreducible is the smallest monic
irreducible of degree m, where "smallest" reads the coefficient vector
(constant term as the least significant digit) as a base-p integer.  Both
operations are backed by precomputed s-by-s tables, which bounds the field
order at MAX_ORDER = 4096 (two 128 MiB tables); the multiplication table is
gathered from log/antilog tables over a primitive element (Hedayat, Sloane
and Stufken, *Orthogonal Arrays*, 1999, ch. 3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import FieldOverflowError, NotPrimeError

# the add and mul tables are s-by-s int64, 8*s^2 bytes each: 128 MiB at
# s = 4096 (at 65536 it would be 32 GiB)
MAX_ORDER = 1 << 12


def prime_power(s: int) -> tuple[int, int] | None:
    """Decompose s as p^m with p prime, or return None."""
    if s < 2:
        return None
    p = 2
    while p * p <= s:
        if s % p == 0:
            m = 0
            q = s
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
        p += 1
    return (s, 1)


def is_prime(p: int) -> bool:
    return prime_power(p) == (p, 1)


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division of coefficient lists (constant first) over GF(p); den monic."""
    num = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1]
        if coef == 0:
            continue
        quot[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - coef * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _monic_polys(degree: int, p: int):
    for low in range(p**degree):
        coeffs = []
        v = low
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


def _is_irreducible(poly: list[int], p: int) -> bool:
    degree = len(poly) - 1
    for deg in range(1, degree // 2 + 1):
        for den in _monic_polys(deg, p):
            _, rem = _poly_divmod(poly, den, p)
            if rem == [0]:
                return False
    return True


def _find_irreducible(p: int, m: int) -> list[int]:
    for poly in _monic_polys(m, p):
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


class FieldSpec:
    """Arithmetic context for GF(p^m).  Immutable after construction."""

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        s = p**m
        if s > MAX_ORDER:
            raise FieldOverflowError(f"field order {p}^{m} exceeds {MAX_ORDER}")
        self.p = p
        self.m = m
        self.s = s
        self.irreducible = _find_irreducible(p, m)
        self.add_table, self.mul_table = self._build_tables()
        self.add_table.flags.writeable = False
        self.mul_table.flags.writeable = False

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
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
        # log/antilog tables over a primitive element; log 0 points past the
        # doubled antilog table into zeros, so a row or column of 0 gives 0
        exp = self._primitive_powers(digits, add)
        log = np.empty(s, dtype=np.int64)
        log[exp] = np.arange(s - 1)
        log[0] = 2 * (s - 1)
        antilog = np.concatenate([exp, exp, np.zeros(2 * s, dtype=np.int64)])
        mul = antilog[np.add.outer(log, log)]
        return add, mul

    def _primitive_powers(self, digits: np.ndarray, add: np.ndarray) -> np.ndarray:
        """g^0, ..., g^(s-2) for the smallest primitive element g.

        The root alpha of the irreducible need not generate the
        multiplicative group, as the irreducible need not be primitive, so
        candidates g are tried in order.  a*g is linear in the digits of a,
        with the digits of g*alpha^k as rows; a*alpha shifts the digits of a
        up one place and adds alpha^m = -(lower irreducible coefficients)
        times the digit shifted out.
        """
        s, p, m = self.s, self.p, self.m
        weights = p ** np.arange(m)
        lower = np.array(self.irreducible[:-1])
        times_alpha = add[np.arange(s) % (s // p) * p, -digits[:, -1:] * lower % p @ weights]
        for g in range(1, s):
            rows = [g]  # g * alpha^k for k < m
            for _ in range(m - 1):
                rows.append(times_alpha[rows[-1]])
            times_g = (digits @ digits[rows] % p @ weights).tolist()
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = times_g[x]
            if len(powers) == s - 1:
                return np.array(powers, dtype=np.int64)
        raise AssertionError(f"GF({s}) has no primitive element")

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


# a GF(4096) context holds 256 MiB of tables, so only the latest few are kept
@lru_cache(maxsize=8)
def field_new(p: int, m: int) -> FieldSpec:
    """Return the GF(p^m) context; cached since construction is deterministic."""
    return FieldSpec(p, m)


def field_of_order(s: int) -> FieldSpec:
    pm = prime_power(s)
    if pm is None:
        raise NotPrimeError(f"{s} is not a prime power")
    return field_new(*pm)
