import itertools

import numpy as np
import pytest

from noa import bush, cli, gf
from noa.bush import bush_construct, bush_ladder
from noa.designs import Design, check_strength
from noa.errors import FieldOverflowError, StrengthError
from noa.gf import field_of_order
from noa.nested import construct, plan

PRIME_POWERS_9 = [2, 3, 4, 5, 7, 8, 9]


def test_gf2_strength2_rows_in_order():
    d = bush_construct(field_of_order(2), 2)
    assert d.matrix.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_gf4_strength2_row_for_ax_plus_a1():
    # row 2*4+3 = 11 carries the polynomial a*x + (a+1)
    d = bush_construct(field_of_order(4), 2)
    assert d.matrix[11].tolist() == [2, 3, 1, 0, 2]


def test_gf2_strength3_bijection():
    # row for digits (c2, c1, c0) must be (c2, c0, c2 xor c1 xor c0)
    d = bush_construct(field_of_order(2), 3)
    assert d.matrix.shape == (8, 3)
    for i, row in enumerate(d.matrix):
        c0, c1, c2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
        assert row.tolist() == [c2, c0, c2 ^ c1 ^ c0]
    rep = check_strength(d, 3)
    assert rep.ok and rep.lam == 1


@pytest.mark.parametrize("s", PRIME_POWERS_9)
@pytest.mark.parametrize("t", [2, 3])
def test_strength_index_unity(s, t):
    d = bush_construct(field_of_order(s), t)
    assert (d.n, d.d) == (s**t, s + 1)
    rep = check_strength(d, t)
    assert rep.ok and rep.lam == 1


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [2, 3])
def test_leading_coefficient_blocks(s, t):
    # rows sharing a leading coefficient are contiguous, and their remaining
    # columns form a strength t-1 array of index 1
    d = bush_construct(field_of_order(s), t)
    block = s ** (t - 1)
    for v in range(s):
        rows = d.matrix[v * block : (v + 1) * block]
        assert (rows[:, 0] == v).all()
        sub = Design(rows[:, 1:], s=s)
        rep = check_strength(sub, t - 1)
        assert rep.ok and rep.lam == 1


def test_any_t_columns_complete_factorial():
    s, t = 3, 2
    d = bush_construct(field_of_order(s), t)
    for cols in itertools.combinations(range(s + 1), t):
        tuples = {tuple(row) for row in d.matrix[:, cols]}
        assert len(tuples) == s**t


def test_strength1():
    d = bush_construct(field_of_order(4), 1)
    assert d.matrix.shape == (4, 5)
    for j in range(5):
        assert sorted(d.matrix[:, j]) == [0, 1, 2, 3]


def test_strength_out_of_range():
    f = field_of_order(3)
    for t, d, error in [
        (4, None, StrengthError),
        (0, None, StrengthError),
        (2, 0, ValueError),
        (2, 5, ValueError),
    ]:
        with pytest.raises(error):
            bush_construct(f, t, d)


def test_size_refused_before_allocation(monkeypatch):
    # GF(512) at strength 3 has 2^27 rows x 513 columns: about 513 GiB
    with pytest.raises(FieldOverflowError, match="exceeds"):
        bush_construct(field_of_order(512), 3)
    monkeypatch.setattr(bush, "MAX_ENTRIES", 32)
    assert bush_construct(field_of_order(4), 2, 2).matrix.size == 32
    with pytest.raises(FieldOverflowError):
        bush_construct(field_of_order(4), 2, 3)


@pytest.mark.parametrize(
    "s,t,d", [(np.int64(4), 2, 3), (4, np.uint8(2), np.int64(3)), (4.0, 2, 3), (4, 2.0, 3), (4, 2, 3.0)]
)
def test_bush_sizes_must_be_integers(s, t, d):
    bad = [f"{what}={v!r}" for what, v in (("level count s", s), ("strength t", t), ("d", d))
           if not isinstance(v, (int, np.integer))]
    if bad:  # a float is refused, not met by numpy's own TypeError
        with pytest.raises(ValueError, match=f"{bad[0]} must be an integer"):
            bush_ladder(s, t, d)  # the check of every Bush array's sizes
        if isinstance(s, int):  # bush_construct takes s from its field
            with pytest.raises(ValueError, match=f"{bad[0]} must be an integer"):
                bush_construct(field_of_order(4), t, d)
        return
    # a numpy integer passes, and the rung and an oa2 design keep s as an int
    (rung,) = bush_ladder(s, t, d)
    assert rung == (4, 2) and (type(rung[0]), type(rung[1])) == (int, int)
    design = construct(plan("oa2", s * s, d), 0)
    assert type(design.s) is int
    assert np.array_equal(design.matrix, construct(plan("oa2", 16, 3), 0).matrix)
    assert np.array_equal(bush_construct(field_of_order(4), t, d).matrix,
                          bush_construct(field_of_order(4), 2, 3).matrix)


def test_inputs_refused_before_the_field_is_built(monkeypatch, capsys):
    # GF(4096)'s tables take 256 MiB: a Bush array refused anyway is refused
    # before any field is built, so no field is needed to refuse it
    monkeypatch.setattr(gf, "_fields", None)
    with pytest.raises(FieldOverflowError, match="4096\\^2 rows x 9 columns exceeds"):
        plan("oa2", 4096**2, 9)
    assert cli.main(["gen", "--kind", "bush", "--s", "4096", "--t", "4"]) == 2
    assert capsys.readouterr().err == "error: strength t=4 outside supported range [1, 3]\n"
    with pytest.raises(ValueError, match="s \\+ 1 = 4097 columns at s=4096 levels, got d=4098"):
        plan("oa2", 4096**2, 4098)


def horner_rows(field, t, d):
    """The first d Bush columns, one polynomial at a time by the add and mul tables."""
    s = field.s
    rows = []
    for i in range(s**t):
        coeffs = [i // s**k % s for k in range(t)]  # constant term first
        row = [coeffs[-1]]
        for x in range(d - 1):
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = int(field.add_table[field.mul_table[acc, x], c])
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("s", PRIME_POWERS_9)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_columns_match_horner_oracle(s, t):
    field = field_of_order(s)
    for d in sorted({1, 2, s + 1}):
        assert bush_construct(field, t, d).matrix.tolist() == horner_rows(field, t, d)


def test_deterministic():
    a = bush_construct(field_of_order(5), 2)
    b = bush_construct(field_of_order(5), 2)
    assert (a.matrix == b.matrix).all()
