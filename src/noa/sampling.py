"""Turn integer designs into point sets in the unit cube.

Each level becomes a stratum of width 1/s; points land uniformly at random
inside their stratum (default) or exactly at its midpoint.  Midpoint mode
turns the balance properties of a strength-t design into exact zeros of
low-order centered product integrands, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design, format_table, parse_table, read_text
from .errors import FormatError
from .rng import STAGE_JITTER, stream


@dataclass(frozen=True, eq=False)
class PointSet:
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be 2-d")
        # written so that NaN (which min() propagates) fails the test too
        if pts.size and not (pts.min() >= 0.0 and pts.max() < 1.0):
            raise ValueError("coordinates must be finite and lie in [0, 1)")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def to_points(design: Design, mode: str = "uniform", seed: int = 0) -> PointSet:
    """Place one point per design row; floor(x * s) recovers the design."""
    if mode == "midpoint":
        offset = 0.5
    elif mode == "uniform":
        offset = stream(seed, STAGE_JITTER).random(design.matrix.shape)
    else:
        raise ValueError(f"mode must be 'uniform' or 'midpoint', got {mode!r}")
    return PointSet(_place(design.matrix, offset, design.s))


def _place(levels: np.ndarray, offset, s: int) -> np.ndarray:
    """Points (levels + offset) / s with floor(x * s) == levels.

    For offset near 1 (or 0), (m + u) / s can round onto the stratum's upper
    (or lower) edge, e.g. to (m + 1) / s, which is 1.0 for m = s - 1.  Such
    points are stepped one ulp at a time back inside their stratum.  As
    m + 1 is a double, the floor implies x < (m + 1) / s exactly, so x < 1.
    """
    x = (levels + offset) / s
    while True:
        cell = x * s
        np.floor(cell, out=cell)
        off = cell != levels
        if not off.any():
            return x
        x[off] = np.nextafter(x[off], np.where(cell[off] > levels[off], 0.0, 1.0))


# --- points CSV format -------------------------------------------------------
#
# First line:  # noa-points v1 n=<n> d=<d>
# Then n lines of d floats at 17 significant digits (round-trip exact).

_MAGIC = "# noa-points v1"


def format_points(ps: PointSet) -> str:
    return format_table(_MAGIC, [("n", ps.n), ("d", ps.d)], ps.points, "%.17g")


def save_points(ps: PointSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_points(ps))


def parse_points(text: str) -> PointSet:
    points, _meta = parse_table(text, _MAGIC, ("n", "d"), np.float64)
    try:
        return PointSet(points)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_points(path) -> PointSet:
    return parse_points(read_text(path))
