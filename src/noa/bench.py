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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import nested
from .designs import MAX_ENTRIES, check_int, check_size
from .errors import (
    ConstructionError, DesignError, DimensionMismatchError, FieldOverflowError
)
from .rng import STAGE_BENCH, STAGE_IID, check_seed, derive_seed, stream
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


def kind_points(plan: nested.Plan, seed: int) -> PointSet:
    """One randomized point set of plan's kind, n and d, a pure function of seed."""
    if plan.kind == "iid":
        return PointSet(stream(seed, STAGE_IID).random((plan.n, plan.d)))
    return to_points(nested.construct(plan, seed), "uniform", seed)


# --- benchmark driver --------------------------------------------------------


def check_inputs(ns, d: int, kinds, reps: int, integrand: str, seed: int) -> tuple[dict, Integrand]:
    """Refuse a bad integrand, run count, size, seed, kind list or plan before any replication.

    Each n, d and reps must be an integer (check_int: a numpy integer
    passes, a float is a ValueError).  A run of more than MAX_ENTRIES
    replications, or of more than MAX_DRAWN point coordinates (reps * n * d)
    per kind, is refused with FieldOverflowError; a kind with no plan for an
    n, with a ConstructionError that names it.

    Returns (plans, f): plans[kind][n] is nested.plan(kind, n, d) (for iid,
    Plan("iid", n, d, ()), which has no rungs), with each kind once, in the
    order first named, and f is the integrand.
    """
    ns = [check_int(n, "n") for n in ns]
    d, reps = check_int(d, "d"), check_int(reps, "reps")
    f = make_integrand(integrand, d)
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
    check_seed(seed)
    plans = {kind: {} for kind in kinds}  # each kind once, in the order first named
    if not plans:
        raise ValueError("kinds must name at least one design kind")
    for kind in plans:
        if kind not in _KIND_ID:
            raise ValueError(f"unknown design kind {kind!r}")
    for kind, by_n in plans.items():
        for n in ns:
            try:
                by_n[n] = (  # iid's points are drawn, not built: its plan has no rungs
                    nested.Plan(kind, n, d, ()) if kind == "iid" else nested.plan(kind, n, d)
                )
            except (DesignError, ValueError) as exc:
                raise ConstructionError(f"kind {kind!r} failed for n={n}, d={d}: {exc}") from exc
    return plans, f


@dataclass(frozen=True)
class KindStats:
    mean: float
    var: float
    mse: float
    estimates: np.ndarray = field(repr=False)


def _kind_stats(plan: nested.Plan, f: Integrand, reps: int, seed: int) -> KindStats:
    """Estimate f with `reps` fresh point sets, each drawn from plan."""
    ests = np.empty(reps)
    for r in range(reps):
        rep_seed = derive_seed(seed, STAGE_BENCH, _KIND_ID[plan.kind], r)
        ests[r] = estimate(kind_points(plan, rep_seed), f)
    mean = float(ests.mean())
    var = float(ests.var(ddof=1)) if reps > 1 else 0.0
    bias = mean - f.true_integral
    # MSE reported via the decomposition, so the identity holds exactly
    mse = var + bias * bias
    return KindStats(mean=mean, var=var, mse=mse, estimates=ests)


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
    # as ints, so the report holds no numpy integer that json cannot take
    n, d, reps = check_int(n, "n"), check_int(d, "d"), check_int(reps, "reps")
    plans, f = check_inputs((n,), d, kinds, reps, integrand, seed)
    results = {kind: _kind_stats(by_n[n], f, reps, seed) for kind, by_n in plans.items()}
    return BenchReport(
        n=n,
        d=d,
        reps=reps,
        seed=check_seed(seed),
        integrand=f.name,
        true_integral=f.true_integral,
        results=results,
        degenerate_reps=reps < 2,
    )


@dataclass(frozen=True)
class RateFit:
    ns: tuple[int, ...]
    variances: tuple[float, ...]
    slope: float | None
    degenerate: bool


def fit_rate(ns, d: int, kinds, integrand: str, reps: int, seed: int) -> dict[str, RateFit]:
    """Least-squares slope of log variance against log n for each kind, inputs checked first.

    A kind or a run count named more than once is fitted, or run, once.
    """
    ns = tuple(check_int(v, "n") for v in ns)
    plans, f = check_inputs(ns, d, kinds, reps, integrand, seed)
    if len(set(ns)) < 3:
        raise ValueError(f"need at least 3 distinct run counts, got {ns}")
    fits = {}
    for kind, by_n in plans.items():  # by_n has each run count once, in the order first named
        variances = tuple(_kind_stats(p, f, reps, seed).var for p in by_n.values())
        degenerate = any(v <= 0.0 for v in variances)
        slope = None if degenerate else float(np.polyfit(np.log([*by_n]), np.log(variances), 1)[0])
        fits[kind] = RateFit(tuple(by_n), variances, slope, degenerate)
    return fits


def format_estimates_csv(report: BenchReport) -> str:
    """Per-replication estimates for external plotting."""
    lines = ["kind,rep,estimate"]
    for kind, st in report.results.items():
        for r, v in enumerate(st.estimates):
            lines.append(f"{kind},{r},{v:.17g}")
    return "\n".join(lines) + "\n"
