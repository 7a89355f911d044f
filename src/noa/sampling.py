"""Turn integer designs into point sets in the unit cube.

Each level becomes a stratum of width 1/s; points land uniformly at random
inside their stratum (default) or exactly at its midpoint.  Midpoint mode
turns the balance properties of a strength-t design into exact zeros of
low-order centered product integrands, which the tests rely on.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .designs import Design, format_table, parse_table, pipeline, read_text, real_array
from .errors import FormatError
from .rng import STAGE_JITTER, check_seed, stream


@dataclass(frozen=True, eq=False)
class PointSet:
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(real_array(self.points, "coordinates"), dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 1:  # 0 rows is valid, 0 columns does not load back
            raise ValueError("points must be 2-d with at least one column")
        # written so that NaN (which min() propagates) fails the test too
        if pts.size and not (pts.min() >= 0.0 and pts.max() < 1.0):
            bad = pts[~((pts >= 0.0) & (pts < 1.0))][0]
            raise ValueError(f"coordinates must be finite and lie in [0, 1), got {float(bad)!r}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


_POINT_ROWS = 1 << 14  # rows per block of to_points: 128 KiB of offsets per column


def to_points(design: Design, mode: str = "uniform", seed: int = 0) -> PointSet:
    """Place one point per design row; floor(x * s) recovers the design.

    The rows run on designs.pipeline a block of _POINT_ROWS at a time: the
    producer writes a block's offsets (uniform jitter, or 0.5) straight into
    the C-order output, and the consumer casts the block's levels, once,
    into a C-order float64 buffer and places that block's points, so every
    step of _place runs on contiguous arrays of one dtype.  The jitter is
    drawn in row order either way, so it is the stream of one whole-array
    draw, and the points are the same with one lane or two.
    """
    if mode not in ("uniform", "midpoint"):
        raise ValueError(f"mode must be 'uniform' or 'midpoint', got {mode!r}")
    check_seed(seed)  # in both modes, though a midpoint draws nothing
    n, s = design.n, design.s
    if s > 1 << 53:  # _place computes in float64, which holds every level exactly only up to 2^53
        raise ValueError(f"s={s} levels exceed 2^53, past which float64 points merge strata")
    x = np.empty(design.matrix.shape)  # the C-order output, filled with the offsets
    rng = stream(seed, STAGE_JITTER) if mode == "uniform" else None
    # the consumer's block buffers: the levels as floats, and _place's scratch
    levels = np.empty((min(n, _POINT_ROWS), design.d))
    scratch = np.empty_like(levels)

    def produce(i, stop):
        block = x[i * _POINT_ROWS : (i + 1) * _POINT_ROWS]
        if rng is None:
            block.fill(0.5)
        else:
            rng.random(out=block)
        return block

    def consume(i, block):
        rows = len(block)
        levels[:rows] = design.matrix[i * _POINT_ROWS : (i + 1) * _POINT_ROWS]
        _place(levels[:rows], block, s, scratch[:rows])

    pipeline(n, -(-n // _POINT_ROWS), produce, consume)
    return PointSet(x)


def _place(levels: np.ndarray, x: np.ndarray, s: int, scratch: np.ndarray) -> np.ndarray:
    """Turn offsets x into points (levels + x) / s in place, with floor(x * s) == levels.

    For offset near 1 (or 0), (m + u) / s can round onto the stratum's upper
    (or lower) edge, e.g. to (m + 1) / s, which is 1.0 for m = s - 1.  Such
    points are stepped one ulp at a time back inside their stratum.  As
    m + 1 is a double, the floor implies x < (m + 1) / s exactly, so x < 1.
    The stratum test computes floor(x * s) in scratch, an array of x's shape
    and dtype.  Every step is elementwise, so a row block gives the points
    of the whole.
    """
    x += levels
    x /= s
    while (off := np.floor(np.multiply(x, s, out=scratch), out=scratch) != levels).any():
        cell = scratch[off]
        x[off] = np.nextafter(x[off], np.where(cell > levels[off], 0.0, 1.0))
    return x


# --- points CSV format -------------------------------------------------------
#
# First line:  # noa-points v1 n=<n> d=<d>
# Then n lines of d floats at 17 significant digits (round-trip exact).

_MAGIC = "# noa-points v1"


def points_text(ps: PointSet) -> Iterator[str]:
    """The points file's text: its header line, then blocks of rows (designs.format_table)."""
    return format_table(_MAGIC, [("n", ps.n), ("d", ps.d)], ps.points, "%.17g")


def format_points(ps: PointSet) -> str:
    return "".join(points_text(ps))


def save_points(ps: PointSet, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(points_text(ps))


def parse_points(text: str) -> PointSet:
    points = parse_table(text, _MAGIC, ("n", "d"), np.float64)[0]
    try:
        return PointSet(points)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_points(path) -> PointSet:
    return parse_points(read_text(path))
