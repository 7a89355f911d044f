"""Monte Carlo integration benchmarks across design families.

Compares estimator variance over repeated randomized constructions of each
design kind: iid sampling, Latin hypercube, a coarse strength-2 orthogonal
array, the strength-2 nested design, and the strength-3 nested design.
Per-replication seeds are derived from the master seed by (kind, index), so
reports are identical regardless of execution order.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import nested
from .designs import MAX_ENTRIES, check_size
from .errors import (
    ConstructionError, DesignError, DimensionMismatchError, FieldOverflowError
)
from .rng import STAGE_BENCH, STAGE_IID, derive_seed, stream
from .sampling import PointSet, to_points

E = math.e


@dataclass(frozen=True)
class Integrand:
    """An integrand on [0,1)^d; fn maps each row of an (m, d) array on its own, to (m,).

    A row's value may be formed a column at a time (PROD-EXP's is), but
    depends on that row alone, so any split of the rows into blocks gives
    the same bits.
    """

    name: str
    d: int
    fn: Callable[[np.ndarray], np.ndarray]
    true_integral: float


def make_integrand(name: str, d: int) -> Integrand:
    """Built-in test integrands on [0,1)^d with analytic integrals."""
    if name == "ADD-LIN":
        return Integrand(name, d, lambda x: (x - 0.5).sum(axis=1), 0.0)
    if name == "ADD-EXP":
        return Integrand(name, d, lambda x: np.exp(x).sum(axis=1), d * (E - 1.0))
    if name == "BILIN":
        if d < 2:
            raise ValueError("BILIN needs d >= 2")
        return Integrand(name, d, lambda x: (x[:, 0] - 0.5) * (x[:, 1] - 0.5), 0.0)
    if name == "TRILIN":
        if d < 3:
            raise ValueError("TRILIN needs d >= 3")
        return Integrand(
            name, d, lambda x: (x[:, 0] - 0.5) * (x[:, 1] - 0.5) * (x[:, 2] - 0.5), 0.0
        )
    if name == "PROD-EXP":
        if d > 709:  # past it, e^d, which bounds the integrand and its integral, overflows a float
            raise ValueError("PROD-EXP needs d <= 709")
        if d < 1:  # its product starts from the first column
            raise ValueError("PROD-EXP needs d >= 1")
        return Integrand(name, d, _prod_exp, (E - 1.0) ** d)
    raise ValueError(f"unknown integrand {name!r}, expected one of {', '.join(INTEGRANDS)}")


def _prod_exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x).prod(axis=1), bit for bit, a column at a time (x has d >= 1 columns).

    That reduction multiplies each row's factors in column order, as these
    in-place products of whole columns do, but its loop over a short
    contiguous axis is about twice as slow on a block of 8192 x 8.
    """
    e = np.exp(x)
    out = e[:, 0].copy()
    for col in e.T[1:]:
        out *= col
    return out


# the most point coordinates, reps * n * d, one kind's run may draw:
# about 1.5 hours of noa3 replications at n = 64, d = 3, 5 minutes at n = 2^18, d = 8
MAX_DRAWN = 1 << 31

INTEGRANDS = ("ADD-LIN", "ADD-EXP", "BILIN", "TRILIN", "PROD-EXP")
_BLOCK_ROWS = 8192  # rows per integrand call: temporaries of one block, not of n x d


def estimate(points: PointSet, f: Integrand) -> float:
    if not points.n:  # the mean of no values is nan
        raise ValueError("cannot estimate from an empty point set")
    if points.d != f.d:
        raise DimensionMismatchError(f"points have d={points.d}, integrand d={f.d}")
    values = np.empty(points.n)
    for i in range(0, points.n, _BLOCK_ROWS):
        values[i:i + _BLOCK_ROWS] = f.fn(points.points[i:i + _BLOCK_ROWS])
    return float(np.mean(values))


# --- design kinds ------------------------------------------------------------

KINDS = ("iid", "lhs", "oa2", "tang", "noa3")
_KIND_ID = {k: i for i, k in enumerate(KINDS)}


def kind_points(kind: str, n: int, d: int, seed: int, plan: nested.Plan | None) -> PointSet:
    """One randomized point set of the given kind, a pure function of seed.

    plan is nested.plan(kind, n, d), or None for iid, which has none.
    """
    if kind == "iid":
        return PointSet(stream(seed, STAGE_IID).random((n, d)))
    return to_points(nested.construct(plan, seed), "uniform", seed)


# --- benchmark driver --------------------------------------------------------


@contextmanager
def _labelled(kind: str, n: int, d: int):
    """Re-raise a kind's design or value error as a ConstructionError that names it."""
    try:
        yield
    except (DesignError, ValueError) as exc:
        raise ConstructionError(f"kind {kind!r} failed for n={n}, d={d}: {exc}") from exc


def check_inputs(ns, d: int, kinds, reps: int) -> dict:
    """Refuse bad run counts, sizes, kind lists or plans before any replication is built.

    A run of more than MAX_ENTRIES replications, or of more than MAX_DRAWN
    point coordinates (reps * n * d) per kind, is refused with
    FieldOverflowError.

    Returns nested.plan(kind, n, d) (None for iid) keyed by (kind, n), for
    every kind and n.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if reps > MAX_ENTRIES:  # one 8-byte estimate is kept per replication
        raise FieldOverflowError(f"{reps} replications exceed {MAX_ENTRIES} kept estimates")
    for n in ns:
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        check_size(n, d)
        if reps * n * d > MAX_DRAWN:
            raise FieldOverflowError(
                f"{reps} replications of {n} x {d} points exceed {MAX_DRAWN} drawn coordinates"
            )
    if not kinds:
        raise ValueError("kinds must name at least one design kind")
    for kind in kinds:
        if kind not in _KIND_ID:
            raise ValueError(f"unknown design kind {kind!r}")
    plans = {}
    for kind in kinds:
        for n in ns:
            with _labelled(kind, n, d):
                plans[kind, n] = None if kind == "iid" else nested.plan(kind, n, d)
    return plans


@dataclass(frozen=True)
class KindStats:
    mean: float
    var: float
    mse: float
    estimates: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BenchReport:
    n: int
    d: int
    reps: int
    seed: int
    integrand: str
    true_integral: float
    results: dict[str, KindStats]
    degenerate_reps: bool

    def to_dict(self) -> dict:
        out = {
            kind: {
                "mean": st.mean,
                "var": st.var,
                "mse": st.mse,
                "r": self.reps,
                "n": self.n,
                "d": self.d,
            }
            for kind, st in self.results.items()
        }
        return {
            "integrand": self.integrand,
            "true_integral": self.true_integral,
            "seed": self.seed,
            "degenerate_reps": self.degenerate_reps,
            "kinds": out,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_bench(
    n: int,
    d: int,
    kinds,
    integrand: str,
    reps: int,
    seed: int,
) -> BenchReport:
    """Estimate the integrand with `reps` fresh designs of each kind, inputs checked first.

    A kind named more than once is run once.
    """
    kinds = list(dict.fromkeys(kinds))
    plans = check_inputs((n,), d, kinds, reps)
    f = make_integrand(integrand, d)
    results: dict[str, KindStats] = {}
    for kind in kinds:
        ests = np.empty(reps)
        with _labelled(kind, n, d):
            for r in range(reps):
                rep_seed = derive_seed(seed, STAGE_BENCH, _KIND_ID[kind], r)
                ests[r] = estimate(kind_points(kind, n, d, rep_seed, plans[kind, n]), f)
        mean = float(ests.mean())
        var = float(ests.var(ddof=1)) if reps > 1 else 0.0
        bias = mean - f.true_integral
        # MSE reported via the decomposition, so the identity holds exactly
        mse = var + bias * bias
        results[kind] = KindStats(mean=mean, var=var, mse=mse, estimates=ests)
    return BenchReport(
        n=n,
        d=d,
        reps=reps,
        seed=seed,
        integrand=f.name,
        true_integral=f.true_integral,
        results=results,
        degenerate_reps=reps < 2,
    )


@dataclass(frozen=True)
class RateFit:
    kind: str
    ns: tuple[int, ...]
    variances: tuple[float, ...]
    slope: float | None
    degenerate: bool


def fit_rate(ns, d: int, kind: str, integrand: str, reps: int, seed: int) -> RateFit:
    """Least-squares slope of log variance against log n, every run count checked first."""
    ns = tuple(int(v) for v in ns)
    if len(set(ns)) < 3:
        raise ValueError(f"need at least 3 distinct run counts, got {ns}")
    check_inputs(ns, d, (kind,), reps)
    variances = []
    for n in ns:
        rep = run_bench(n, d, [kind], integrand, reps, seed)
        variances.append(rep.results[kind].var)
    if any(v <= 0.0 for v in variances):
        return RateFit(kind, ns, tuple(variances), None, True)
    slope = float(np.polyfit(np.log(ns), np.log(variances), 1)[0])
    return RateFit(kind, ns, tuple(variances), slope, False)


def format_estimates_csv(report: BenchReport) -> str:
    """Per-replication estimates for external plotting."""
    lines = ["kind,rep,estimate"]
    for kind, st in report.results.items():
        for r, v in enumerate(st.estimates):
            lines.append(f"{kind},{r},{v:.17g}")
    return "\n".join(lines) + "\n"
