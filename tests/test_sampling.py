import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noa import designs, sampling
from noa.bush import bush_construct
from noa.designs import Design, check_strength, load_design
from noa.errors import FormatError
from noa.gf import field_of_order
from noa.nested import construct, plan
from noa.sampling import PointSet, _place, format_points, load_points, parse_points, to_points


def test_midpoint_values():
    d = Design(np.array([[3], [0]]), s=4)
    pts = to_points(d, "midpoint").points
    assert pts[0, 0] == 0.875
    d2 = Design(np.array([[0]]), s=2)
    assert to_points(d2, "midpoint").points[0, 0] == 0.25


def test_stratum_recovery_uniform():
    design = construct(plan("lhs", 16, 3), 2)
    pts = to_points(design, "uniform", seed=4)
    assert (np.floor(pts.points * design.s).astype(int) == design.matrix).all()


def test_stratum_recovery_midpoint():
    design = bush_construct(field_of_order(3), 2)
    pts = to_points(design, "midpoint")
    assert (np.floor(pts.points * design.s).astype(int) == design.matrix).all()


def test_uniform_deterministic():
    design = construct(plan("lhs", 8, 2), 0)
    a = to_points(design, "uniform", seed=5).points
    b = to_points(design, "uniform", seed=5).points
    assert (a == b).all()
    c = to_points(design, "uniform", seed=6).points
    assert (a != c).any()


def test_bad_mode():
    with pytest.raises(ValueError):
        to_points(construct(plan("lhs", 2, 2), 0), "center")


def centered_product_mean(pts, cols):
    terms = np.ones(pts.shape[0])
    for j in cols:
        terms = terms * (pts[:, j] - 0.5)
    return math.fsum(terms) / pts.shape[0]


def test_midpoint_exactness_strength2():
    design = bush_construct(field_of_order(4), 2)
    pts = to_points(design, "midpoint").points
    for size in (1, 2):
        for cols in itertools.combinations(range(design.d), size):
            assert abs(centered_product_mean(pts, cols)) <= 1e-12


def test_midpoint_exactness_noa_ladder():
    chosen = plan("noa3", 64, 3)
    design = construct(chosen, 2)
    from noa.designs import collapse

    for levels, t in chosen.ladder:
        rung = collapse(design, levels)
        assert check_strength(rung, t).ok
        pts = to_points(rung, "midpoint").points
        for size in range(1, t + 1):
            for cols in itertools.combinations(range(rung.d), size):
                assert abs(centered_product_mean(pts, cols)) <= 1e-12


def test_points_csv_round_trip_exact():
    # past 12 x 3, the edges of format_table's blocks of 2^15 entries: a row
    # fewer and more than a block, one column, a row wider than a block, no rows
    shapes = [(12, 3), (4095, 8), (4097, 8), (2**15 + 1, 1), (2, 2**15 + 1), (0, 3)]
    for n, d in shapes:
        if n == 12:
            ps = to_points(construct(plan("lhs", 12, 3), 7), "uniform", seed=1)
        else:
            ps = PointSet(np.random.default_rng(n).random((n, d)))
        text = format_points(ps)
        rows = "".join(",".join(map("{:.17g}".format, row)) + "\n" for row in ps.points.tolist())
        assert text == f"# noa-points v1 n={n} d={d}\n" + rows
        loaded = parse_points(text)
        assert loaded.points.shape == (n, d) and (loaded.points == ps.points).all()


def test_saving_holds_a_block_not_the_table(tmp_path):
    # files are written a block of at most 2^15 entries at a time, so the
    # peak is one block's text and objects (about 1.9 MiB) at any row count;
    # rendering the whole 32768 x 8 body at once held 15.2 MiB for the 2 MiB
    # points and 12.7 MiB for the 0.5 MiB uint16 design (twice that at 65536 rows)
    rng = np.random.default_rng(5)
    points = PointSet(rng.random((32768, 8)))
    design = Design(rng.integers(0, 65536, (32768, 8)), s=65536)
    assert design.matrix.dtype == np.uint16
    for save, table, format_ in (
        (sampling.save_points, points, format_points),
        (designs.save_design, design, designs.format_design),
    ):
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            save(table, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, save.__name__
        assert path.read_text() == format_(table)


def test_points_csv_bad_header():
    with pytest.raises(FormatError):
        parse_points("0.5,0.5\n")


def test_points_csv_bad_row_and_header_token():
    with pytest.raises(FormatError, match="'abc'"):
        parse_points("# noa-points v1 n=1 d=2\n0.5,abc\n")
    with pytest.raises(FormatError):
        parse_points("# noa-points v1 n=1 d=2 junk\n0.5,0.5\n")
    with pytest.raises(FormatError):
        parse_points("# noa-points v1 n=1 d=2\n0.5,nan\n")


@pytest.mark.parametrize("load", [load_points, load_design])
def test_undecodable_file_is_format_error(tmp_path, load):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xff\xfe# noa-points v1 n=1 d=1\n0.5\n")
    with pytest.raises(FormatError, match="byte 0"):
        load(path)


@pytest.mark.parametrize(
    "points",
    [pytest.param([[0.5, v]], id=str(v)) for v in (np.nan, np.inf, -np.inf, 1.0, -0.25)]
    # a 1-d array, and no columns, which a points file cannot hold (its header needs d >= 1)
    + [pytest.param(np.zeros(3), id="1-d"), pytest.param(np.empty((3, 0)), id="0-columns")]
    # not real numbers: numpy's own exceptions, or its string parser, without the check
    + [pytest.param(v, id=f"{type(v[0][0]).__name__}") for v in ([[0.5 + 0.5j]], [["0.5"]])],
)
def test_pointset_rejects_non_finite_and_out_of_range(points):
    with pytest.raises(ValueError):
        PointSet(np.asarray(points))
    if not isinstance(points, np.ndarray):  # and as the list itself
        with pytest.raises(ValueError):
            PointSet(points)


@pytest.mark.parametrize("s", [3, 49, 2**18])
@pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 0.0])
def test_placement_stays_inside_stratum(s, u):
    # (m + u) / s rounds to (m + 1) / s for u one ulp below 1, and
    # floor(m / s * s) can fall to m - 1 (1/49 * 49 < 1)
    levels = np.array([[0, 1, 2, 5, s - 2, s - 1]]) % s
    offsets = np.full(levels.shape, u)
    x = _place(levels, offsets, s, np.empty_like(offsets))
    assert x is offsets  # the points overwrite the offsets
    assert (np.floor(x * s) == levels).all()
    assert (x < 1.0).all()
    for xv, m in zip(x.ravel(), levels.ravel()):
        assert Fraction(float(xv)) < Fraction(int(m) + 1, s)


# offsets on and beside the stratum edges: 0, the largest double below 1 and one two
# steps below that, the least positive double, and 0.5
EDGE_OFFSETS = np.array(
    [0.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0) - 2.0**-52]
)


class EdgeJitter:
    """Stands in for the jitter generator: EDGE_OFFSETS over and over, in draw order."""

    def __init__(self):
        self.drawn = 0

    def random(self, out):
        k = np.arange(self.drawn, self.drawn + out.size) % len(EDGE_OFFSETS)
        out[...] = EDGE_OFFSETS[k].reshape(out.shape)
        self.drawn += out.size
        return out


def whole_array_points(levels, offsets, s):
    """(levels + offsets) / s over the whole array at once, stepped inside each stratum: the reference."""
    x = (levels + offsets) / s
    while (off := np.floor(x * s) != levels).any():
        cell = np.floor(x[off] * s)
        x[off] = np.nextafter(x[off], np.where(cell > levels[off], 0.0, 1.0))
    return x


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("s", [49, 2**16 + 2**14 + 7])
def test_to_points_places_edge_offsets_as_one_whole_array(monkeypatch, cpus, s):
    # more than one 2^16-row block and a partial last block: with two CPUs the
    # offsets are written on the helper lane, with one in the calling thread
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    monkeypatch.setattr(sampling, "stream", lambda seed, stage: EdgeJitter())
    n = 2**16 + 2**14 + 7
    levels = np.random.default_rng(s).integers(0, s, (n, 3))
    points = to_points(Design(levels, s=s), "uniform", 0).points
    offsets = EdgeJitter().random(np.empty((n, 3)))
    assert points.tobytes() == whole_array_points(levels, offsets, s).tobytes()
    assert (np.floor(points * s) == levels).all()


def test_to_points_memory_is_the_output_plus_columns():
    # the output is the one n x d array built, beside one block's levels and scratch
    design = construct(plan("lhs", 2**18, 8), 0)
    tracemalloc.start()
    try:
        points = to_points(design, "uniform", 1).points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * points.nbytes


def test_to_points_recovers_levels_up_to_2_pow_53():
    s = 1 << 53
    levels = np.array([[0, s - 1], [s // 2 + 1, s - 2], [s - 1, 1], [3, s // 3]], dtype=np.uint64)
    for mode in ("uniform", "midpoint"):
        points = to_points(Design(levels, s=s), mode, seed=3).points
        assert (np.floor(points * s).astype(np.uint64) == levels).all()


@pytest.mark.parametrize("mode", ["uniform", "midpoint"])
@pytest.mark.parametrize(
    "seed, message",
    [
        (1.5, "seed=1.5 must be an integer"),
        ("x", "seed='x' must be an integer"),
        (None, "seed=None must be an integer"),
        (-1, "seed must be in [0, 2^64), got -1"),
        (1 << 70, f"seed must be in [0, 2^64), got {1 << 70}"),
    ],
)
def test_to_points_refuses_a_bad_seed_in_either_mode(mode, seed, message):
    # a midpoint draws nothing, yet its seed is checked as uniform mode's is
    design = Design(np.array([[0, 1], [1, 0]]), s=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        to_points(design, mode, seed)


@pytest.mark.parametrize("s", [(1 << 53) + 1, (1 << 53) + 2])
def test_to_points_refuses_more_than_2_pow_53_levels(s):
    # float64 cannot hold every level past 2^53: at 2^53 + 2 the points
    # landed in other strata, at 2^53 + 1 one landed on 1.0
    with pytest.raises(ValueError, match=f"s={s} levels exceed 2\\^53"):
        to_points(Design(np.array([[0], [s - 1]], dtype=np.uint64), s=s))

