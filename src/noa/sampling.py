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


def to_points(design: Design, mode: str = "uniform", seed: int = 0) -> PointSet:
    """Place one point per design row; floor(x * s) recovers the design."""
    x = np.empty(design.matrix.shape)  # the C-order output, filled with the offsets
    if mode == "midpoint":
        x.fill(0.5)
    elif mode == "uniform":
        stream(seed, STAGE_JITTER).random(out=x)
    else:
        raise ValueError(f"mode must be 'uniform' or 'midpoint', got {mode!r}")
    return PointSet(_place(design.matrix, x, design.s))


def _place(levels: np.ndarray, x: np.ndarray, s: int) -> np.ndarray:
    """Turn offsets x into points (levels + x) / s in place, with floor(x * s) == levels.

    For offset near 1 (or 0), (m + u) / s can round onto the stratum's upper
    (or lower) edge, e.g. to (m + 1) / s, which is 1.0 for m = s - 1.  Such
    points are stepped one ulp at a time back inside their stratum.  As
    m + 1 is a double, the floor implies x < (m + 1) / s exactly, so x < 1.
    """
    x += levels
    x /= s
    for col, lev in zip(x.T, levels.T):  # a column at a time: temporaries are one column
        while (off := np.floor(col * s) != lev).any():
            cell = np.floor(col[off] * s)
            col[off] = np.nextafter(col[off], np.where(cell > lev[off], 0.0, 1.0))
    return x


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
