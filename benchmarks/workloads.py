"""The benchmark's three workloads: set-up, one op, and the correctness gate.

Every call into noa goes through a name in ``noa.__all__`` or through the
``noa`` command line, so changes inside the package are measured without
editing this file.  The gates do not depend on the exact random stream:
they check exact design properties and statistical bounds that a correct
program breaks with probability below 1e-6 per check.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from noa import (
    check_strength,
    collapse,
    construct_noa,
    estimate,
    make_integrand,
    plan_noa,
    run_bench,
    to_points,
)
from tracing import span_of

KINDS = ("iid", "lhs", "oa2", "tang", "noa3")

# Two-sided Student t with 199 degrees of freedom (200 replications) exceeds
# 5.5 with probability 1.2e-7; a normal mean exceeds 5.5 sd with 3.8e-8.
Z_MAX = 5.5
VAR_RATIO_MAX = 0.1
CHILD_TIMEOUT_S = 120


def python_cmd() -> list[str]:
    """This interpreter, with the same -O level as the benchmark itself."""
    return [sys.executable, *["-O"] * sys.flags.optimize]


def child_env(root: Path) -> dict[str, str]:
    """Environment that makes ``python -m noa.cli`` import the checkout's noa."""
    env = dict(os.environ)
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def cells_counted(d: int, ladder) -> int:
    """(column tuple, cell) counts that check_strength makes over a ladder."""
    return sum(math.comb(d, t) * levels**t for levels, t in ladder)


def plan_problems(plan, **want) -> list[str]:
    got = {k: getattr(plan, k) for k in want}
    return [] if got == want else [f"workload shape changed: plan {got}, expected {want}"]


def ladder_problems(n: int, got, want) -> list[str]:
    """``got`` holds (levels, t, lambda); each lambda must be n / levels^t."""
    if [(lv, t) for lv, t, _ in got] != list(want):
        return [f"workload shape changed: ladder {got}, expected rungs {list(want)}"]
    return [
        f"rung ({lv},{t}) has lambda {lam}, expected {n // lv**t}"
        for lv, t, lam in got
        if lam != n // lv**t
    ]


class McN64:
    """``run_bench`` at n=64, d=3: the ``noa bench`` use case.

    The arrays are tiny, so fixed per-replication cost dominates.
    """

    name = "mc-n64"
    n, d, reps, integrand = 64, 3, 200, "ADD-EXP"
    setup_probes = 4
    sweep_ops = 2

    def counts(self) -> dict:
        rows = len(KINDS) * self.reps * self.n
        return {"rows": rows, "entries": rows * self.d, "points_bytes_computed": rows * self.d * 8}

    def setup(self, seed: int, warm: bool = True) -> list[float]:
        self.plan = plan_noa(self.n, self.d)
        self.problems = plan_problems(self.plan, s3=4, s2=8)
        # one replication of every kind fills the field, Bush and plan caches
        run_bench(self.n, self.d, KINDS, self.integrand, 2, seed)
        return []

    def op(self, seed: int, tracer=None):
        if tracer is None:
            return run_bench(self.n, self.d, KINDS, self.integrand, self.reps, seed).results
        # Traced: one call per kind, so each kind's cost is its own span.
        # Replication seeds depend on (seed, kind, index) only, so the
        # results are those of the single call.
        results = {}
        for kind in KINDS:
            with tracer.span(f"bench.run_bench.{kind}"):
                rep = run_bench(self.n, self.d, [kind], self.integrand, self.reps, seed)
            results[kind] = rep.results[kind]
        return results

    def check(self, results) -> list[str]:
        problems = []
        true = self.d * (math.e - 1.0)
        for kind in KINDS:
            st = results[kind]
            if not (math.isfinite(st.mean) and st.var > 0.0):
                problems.append(f"{kind}: mean {st.mean}, var {st.var}")
                continue
            z = (st.mean - true) / math.sqrt(st.var / self.reps)
            if abs(z) >= Z_MAX:
                problems.append(f"{kind}: |z| = {abs(z):.2f} >= {Z_MAX}")
        for kind in ("lhs", "noa3"):
            if not results[kind].var < VAR_RATIO_MAX * results["iid"].var:
                problems.append(
                    f"Var({kind}) = {results[kind].var:.3g} not below "
                    f"{VAR_RATIO_MAX} * Var(iid) = {results['iid'].var:.3g}"
                )
        return problems


class DesignN262144:
    """One large strength-3 nested design, checked rung by rung as ``noa gen`` does.

    Per-element work dominates: 2.1M entries, 512-level expansion, and
    56 strength-3 triple counts over 262144 rows.
    """

    name = "design-n262144"
    n, d, integrand = 262144, 8, "PROD-EXP"
    ladder = ((262144, 1), (512, 2), (64, 3))
    setup_probes = 2
    sweep_ops = 1

    def counts(self) -> dict:
        entries = self.n * self.d
        return {
            "rows": self.n,
            "entries": entries,
            "cells_counted": cells_counted(self.d, self.ladder),
            "matrix_bytes_computed": entries * 8,
            "points_bytes_computed": entries * 8,
        }

    def setup(self, seed: int, warm: bool = True) -> list[float]:
        self.plan = plan_noa(self.n, self.d)
        self.problems = plan_problems(self.plan, s3=64, s2=512)
        self.f = make_integrand(self.integrand, self.d)
        # standard deviation of an iid estimate with n points
        var_iid = ((math.e**2 - 1.0) / 2.0) ** self.d - (math.e - 1.0) ** (2 * self.d)
        self.sd_iid = math.sqrt(var_iid / self.n)
        # the first op builds the field tables and the Bush arrays
        self.problems += [f"warm-up op: {p}" for p in self.check(self.op(seed))]
        return []

    def op(self, seed: int, tracer=None):
        span = span_of(tracer)
        with span("nested.construct_noa.n262144"):
            nd = construct_noa(self.plan, seed)
        rungs = []
        for levels, t in nd.ladder:
            with span("designs.collapse"):
                rung = collapse(nd.design, levels)
            with span(f"designs.check_strength.{levels}-{t}"):
                report = check_strength(rung, t)
            rungs.append((levels, t, report.lam if report.ok else None))
        with span("sampling.to_points"):
            points = to_points(nd.design, "uniform", seed)
        with span("bench.estimate.n262144"):
            est = estimate(points, self.f)
        self.last_design = nd.design
        return nd.design.matrix.shape, rungs, points.points.shape, est

    def check(self, outcome) -> list[str]:
        shape, rungs, points_shape, est = outcome
        problems = ladder_problems(self.n, rungs, self.ladder)
        if shape != (self.n, self.d) or points_shape != (self.n, self.d):
            problems.append(f"design {shape} / points {points_shape}, expected {(self.n, self.d)}")
        z = (est - self.f.true_integral) / self.sd_iid
        if not abs(z) < Z_MAX:
            problems.append(f"estimate {est} is {z:.2f} iid sd from {self.f.true_integral}")
        return problems


class CliFiles:
    """One session of fresh ``python -m noa.cli`` processes over CSV files.

    Each process pays interpreter start-up and the numpy import, rebuilds
    its field tables and Bush arrays, and formats or parses 1-3 MB of CSV.
    """

    name = "cli-files"
    n, d, tang_n, tang_d = 32768, 5, 65536, 3
    ladder = ((32768, 1), (128, 2), (32, 3))
    tang_ladder = ((65536, 1), (256, 2))
    step_names = ("cli.gen_noa3", "cli.verify_t2", "cli.verify_t3", "cli.sample", "cli.gen_tang")
    setup_sessions = 3
    setup_probes = 0
    sweep_ops = 1

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.env = child_env(root)
        self.design = workdir / "design.csv"
        self.points = workdir / "points.csv"
        self.tang = workdir / "tang.csv"

    def counts(self) -> dict:
        """Rows and entries written per session, and the file sizes last written."""
        out = {"rows": 2 * self.n + self.tang_n, "entries": 2 * self.n * self.d + self.tang_n * self.tang_d}
        for key, path in (("design", self.design), ("points", self.points), ("tang", self.tang)):
            if path.exists():
                out[f"{key}_csv_bytes"] = path.stat().st_size
        return out

    def steps(self, seed: int):
        n, d, tn, td = (str(v) for v in (self.n, self.d, self.tang_n, self.tang_d))
        s, design = str(seed), str(self.design)
        args = (
            ["gen", "--kind", "noa3", "--n", n, "--d", d, "--seed", s, "--out", design],
            ["verify", "--in", design, "--collapse", "128", "--t", "2"],
            ["verify", "--in", design, "--collapse", "32", "--t", "3"],
            ["sample", "--in", design, "--seed", s, "--out", str(self.points)],
            ["gen", "--kind", "tang", "--n", tn, "--d", td, "--seed", s, "--out", str(self.tang)],
        )
        return zip(self.step_names, args)

    def setup(self, seed: int, warm: bool = True) -> list[float]:
        """Untimed sessions; the first one's gate is also the workload shape guard."""
        self.plan = plan_noa(self.n, self.d)
        self.problems = plan_problems(self.plan, s3=32, s2=128)
        times = []
        for i in range(self.setup_sessions if warm else 0):
            t0 = time.perf_counter()
            outcome = self.op(seed + i)
            times.append(time.perf_counter() - t0)
            if i == 0:
                self.problems += [f"set-up session: {p}" for p in self.check(outcome)]
        return times

    def op(self, seed: int, tracer=None):
        span = span_of(tracer)
        for path in (self.design, self.points, self.tang):
            path.unlink(missing_ok=True)  # the gate must read this session's files
        results = []
        for name, args in self.steps(seed):
            with span(name):
                proc = subprocess.run(
                    [*python_cmd(), "-m", "noa.cli", *args],
                    cwd=self.root,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
            results.append((name, proc.returncode, proc.stdout.strip(), proc.stderr.strip()))
        return results

    def check(self, results) -> list[str]:
        problems = [
            f"{name} exited {code}: {err.splitlines()[-1] if err else ''}"
            for name, code, _, err in results
            if code != 0
        ]
        if problems:
            return problems
        out = {name: text for name, _, text, _ in results}
        problems += ladder_problems(self.n, _triples(out["cli.gen_noa3"]), self.ladder)
        problems += ladder_problems(self.tang_n, _triples(out["cli.gen_tang"]), self.tang_ladder)
        for name, (levels, t) in (("cli.verify_t2", (128, 2)), ("cli.verify_t3", (32, 3))):
            want = f"ok lambda={self.n // levels**t}"
            if out[name] != want:
                problems.append(f"{name} printed {out[name]!r}, expected {want!r}")
        design = _read_csv(self.design, np.int64)
        points = _read_csv(self.points, np.float64)
        if design.shape != (self.n, self.d) or points.shape != (self.n, self.d):
            problems.append(f"files hold {design.shape} and {points.shape}, expected {(self.n, self.d)}")
        elif not np.array_equal(np.floor(points * self.n).astype(np.int64), design):
            problems.append("floor(x*n) of the sampled points does not recover the design")
        with open(self.tang) as fh:
            rows = sum(1 for line in fh if line.strip() and not line.startswith("#"))
        if rows != self.tang_n:
            problems.append(f"tang design has {rows} rows, expected {self.tang_n}")
        return problems


def _triples(text: str):
    return [tuple(int(v) for v in part.split(",")) for part in text.split()]


def _read_csv(path: Path, dtype) -> np.ndarray:
    """Read a noa CSV with numpy, independently of the package's parser."""
    return np.loadtxt(path, delimiter=",", comments="#", dtype=dtype, ndmin=2)


WORKLOADS = {cls.name: cls for cls in (McN64, DesignN262144, CliFiles)}


def make(name: str, root: Path, workdir: Path):
    cls = WORKLOADS[name]
    return cls(root, workdir) if cls is CliFiles else cls()
