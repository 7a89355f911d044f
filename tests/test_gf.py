import re
import time

import numpy as np
import pytest

from noa.designs import level_dtype
from noa import gf
from noa.errors import FieldOverflowError, InternalInvariantError, NotPrimeError
from noa.gf import FieldSpec, field_of_order, prime_power

PRIME_POWERS_64 = [s for s in range(2, 65) if prime_power(s) is not None]


def test_gf2_irreducible_is_x():
    # x has root 0, which is not a unit; x + 1 has root 1, which generates GF(2)*
    assert field_of_order(2).irreducible == [1, 1]


def test_field_repr_names_its_characteristic_and_degree():
    assert repr(field_of_order(8)) == "FieldSpec(p=2, m=3)"


def test_gf4_irreducible_unique():
    # independent oracle: a monic quadratic over GF(2) is irreducible iff it
    # has no root; x^2, x^2+1, x^2+x all have one, x^2+x+1 does not
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))

    assert has_root(0, 0) and has_root(1, 0) and has_root(0, 1)
    assert not has_root(1, 1)
    assert field_of_order(4).irreducible == [1, 1, 1]


def test_not_prime():
    with pytest.raises(NotPrimeError):
        FieldSpec(6)


def test_extension_degree_must_be_positive():
    # degree 0 is order p^0 = 1, which is no prime power
    with pytest.raises(NotPrimeError, match="1 is not a prime power"):
        field_of_order(1)


def test_overflow():
    with pytest.raises(FieldOverflowError):
        FieldSpec(2**17)
    # 2^13 would need two 512 MiB tables; it is refused before any is built
    with pytest.raises(FieldOverflowError, match="field order 8192 exceeds 4096"):
        FieldSpec(2**13)


def test_overflow_is_refused_before_factoring():
    # trial division of the prime 2^61 - 1 would take minutes
    start = time.perf_counter()
    with pytest.raises(FieldOverflowError, match=f"field order {2**61 - 1} exceeds 4096"):
        field_of_order(2**61 - 1)
    assert time.perf_counter() - start < 0.1


def test_gf4_add_paper_values():
    add = field_of_order(4).add_table
    assert add[2, 3] == 1  # a + (a+1) = 1
    for x in range(4):
        assert add[x, 0] == x


def test_gf3_add():
    assert field_of_order(3).add_table[2, 2] == 1


def test_gf4_mul_paper_values():
    mul = field_of_order(4).mul_table
    assert mul[2, 2] == 3  # a*a = a+1
    assert mul[2, 3] == 1  # a*(a+1) = 1
    for x in range(4):
        assert mul[x, 1] == x
        assert mul[x, 0] == 0


@pytest.mark.parametrize("s", PRIME_POWERS_64)
def test_field_axioms_exhaustive(s):
    f = field_of_order(s)
    add, mul = f.add_table, f.mul_table
    idx = np.arange(s)
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    # associativity
    assert (add[add, :] == add[idx[:, None, None], add[None, :, :]]).all()
    assert (mul[mul, :] == mul[idx[:, None, None], mul[None, :, :]]).all()
    # distributivity: a*(b+c) == a*b + a*c
    lhs = mul[idx[:, None, None], add[None, :, :]]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert (lhs == rhs).all()
    # identities
    assert (add[:, 0] == idx).all()
    assert (mul[:, 1] == idx).all()
    assert (mul[:, 0] == 0).all()
    # additive inverses: every row of the addition table hits 0
    assert ((add == 0).sum(axis=1) == 1).all()
    # multiplicative inverses for nonzero elements
    assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()


def schoolbook_mul(f, a, b):
    """a*b by polynomial product of the digit vectors, reduced modulo the irreducible."""
    da = [a // f.p**k % f.p for k in range(f.m)]
    db = [b // f.p**k % f.p for k in range(f.m)]
    prod = [0] * (2 * f.m - 1)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % f.p
    # the modulus is monic: subtract lead * x^(k - m) * modulus, top term first
    for k in range(2 * f.m - 2, f.m - 1, -1):
        lead = prod[k]
        for i, c in enumerate(f.irreducible):
            prod[k - f.m + i] = (prod[k - f.m + i] - lead * c) % f.p
    return sum(c * f.p**k for k, c in enumerate(prod[: f.m]))


@pytest.mark.parametrize("s", PRIME_POWERS_64)
def test_mul_table_matches_schoolbook(s):
    f = field_of_order(s)
    expected = [[schoolbook_mul(f, a, b) for b in range(s)] for a in range(s)]
    assert f.mul_table.tolist() == expected


def digitwise_sum(p, m):
    """The addition table by definition: each base-p digit of a + b summed mod p."""
    elems = np.arange(p**m)
    add = np.zeros((p**m, p**m), dtype=np.int64)
    for k in range(m):
        digit = elems // p**k % p
        add += (digit[:, None] + digit[None, :]) % p * p**k
    return add


@pytest.mark.parametrize("m", range(1, 9))
def test_binary_add_table_is_digitwise(m):
    assert np.array_equal(field_of_order(2**m).add_table, digitwise_sum(2, m))


@pytest.mark.parametrize("s", [s for s in PRIME_POWERS_64 if s % 2] + [3**7, 7**4])
def test_add_table_is_digitwise(s):
    f = FieldSpec(s)  # not field_of_order: the cache would keep 3^7 and 7^4
    assert np.array_equal(f.add_table, digitwise_sum(f.p, f.m))


def test_gf256_modulus_is_primitive():
    # the smaller irreducible x^8+x^4+x^3+x+1 (the AES modulus) is passed
    # over: its root has order 51, not 255
    f = field_of_order(256)
    assert f.irreducible == [1, 0, 1, 1, 1, 0, 0, 0, 1]
    x, order = 2, 1
    while x != 1:
        x, order = f.mul_table[x, 2], order + 1
    assert order == 255
    assert ((f.mul_table[1:, 1:] == 1).sum(axis=1) == 1).all()


def root_order(poly, p):
    """Order of x in GF(p)[x]/poly for a monic poly with nonzero constant term.

    Plain arithmetic on coefficient lists (constant first): multiplying by x
    shifts the coefficients up and reduces x^m by the monic poly.
    """
    m = len(poly) - 1
    one = [1] + [0] * (m - 1)
    power, order = one, 0
    while True:
        top = power[-1]
        power = [(lo - top * c) % p for lo, c in zip([0] + power[:-1], poly)]
        order += 1
        if power == one:
            return order


def monic_polys(p, m):
    """x^m + c_(m-1) x^(m-1) + ... + c_0 with the base-p integer c_0 + c_1 p + ... rising."""
    for low in range(p**m):
        yield [low // p**k % p for k in range(m)] + [1]


@pytest.mark.parametrize("s", PRIME_POWERS_64 + [256])
def test_modulus_is_the_first_primitive_polynomial(s):
    p, m = prime_power(s)
    first = next(c for c in monic_polys(p, m) if c[0] and root_order(c, p) == s - 1)
    assert field_of_order(s).irreducible == first


@pytest.mark.parametrize("s", PRIME_POWERS_64)
def test_characteristic(s):
    f = field_of_order(s)
    for a in range(s):
        acc = 0
        for _ in range(f.p):
            acc = f.add_table[acc, a]
        assert acc == 0


def test_field_cache_is_bounded():
    # a GF(4096) context holds 256 MiB of tables, so the cache keeps only a few
    maxsize = gf._fields.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize < len(PRIME_POWERS_64)
    gf._fields.cache_clear()
    for s in PRIME_POWERS_64:
        field_of_order(s)
    assert gf._fields.cache_info().currsize == maxsize


def test_field_cache_keeps_one_entry_per_field():
    # the cache is keyed by the checked int, so an equal numpy order finds its entry
    gf._fields.cache_clear()
    field = field_of_order(8)
    assert field_of_order(np.int64(8)) is field
    info = gf._fields.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_modulus_search_failure_is_an_internal_invariant(monkeypatch):
    # no field order reaches the search's end, so an empty search stands in for a bug
    monkeypatch.setattr(gf, "range", lambda *args: (), raising=False)
    with pytest.raises(InternalInvariantError, match=r"GF\(4\) has no primitive polynomial"):
        FieldSpec(4)


def test_deterministic_construction():
    a = FieldSpec(8)
    b = FieldSpec(8)
    assert a.irreducible == b.irreducible
    assert (a.mul_table == b.mul_table).all()


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(np.int64(7)) == (7, 1) and type(prime_power(np.int64(7))[0]) is int
    with pytest.raises(ValueError, match="s=7.5 must be an integer"):
        prime_power(7.5)  # not taken for a prime


def test_field_of_order_rejects_non_prime_power():
    with pytest.raises(NotPrimeError):
        field_of_order(12)


@pytest.mark.parametrize("s", [np.int64(8), np.int64(7), np.uint16(9)])
def test_field_of_a_numpy_integer_order_holds_python_ints(s):
    gf._fields.cache_clear()  # so FieldSpec, not a cached field, answers
    field = field_of_order(s)
    assert (type(field.p), type(field.m), type(field.s)) == (int, int, int)
    assert level_dtype(field.s) == np.uint8
    assert field_of_order(int(s)) is field  # the cache keeps one field for both orders


@pytest.mark.parametrize("s", [8.0, 7.5, "8", pytest.param(np.float64(8.0), id="float64-8.0")])
def test_field_order_must_be_an_integer(s):
    field_of_order(8)  # refused even when GF(8) is cached,
    field_of_order(np.int64(8))  # also under a numpy order, which 8.0 equals
    with pytest.raises(ValueError, match=re.escape(f"field order s={s!r} must be an integer")):
        field_of_order(s)
