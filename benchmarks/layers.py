"""Per-layer probes for the traced run.

``layer_calls`` times public calls that no workload op makes on its own:
planning, the n=64 constructions, ``estimate`` at n=64, ``expand_to_lhs``,
the CSV formats at the ``cli-files`` size and interpreter start-up.
``cold_probe`` runs in a fresh process, so its field tables and Bush arrays
are built by the first call, as in every ``noa`` command.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

from noa import (
    bush_construct,
    collapse,
    construct_lhs,
    construct_noa,
    construct_tang,
    estimate,
    expand_to_lhs,
    field_of_order,
    load_design,
    load_points,
    make_integrand,
    plan_noa,
    save_design,
    save_points,
    to_points,
)
from workloads import CHILD_TIMEOUT_S, child_env, python_cmd

# (field order, strength) of every Bush array the workloads build at s >= 8
BUSH_ARRAYS = ((8, 2), (32, 3), (64, 3), (256, 2))
PLAN_CALLS = 100
N64_CALLS = 30
STARTUP_CALLS = 3


def cold_probe() -> list[dict]:
    """First-call spans for every field order and Bush array the workloads use."""
    spans = []
    for s, t in BUSH_ARRAYS:
        t0 = time.perf_counter()
        field = field_of_order(s)
        t1 = time.perf_counter()
        bush_construct(field, t)
        t2 = time.perf_counter()
        spans.append({"name": f"gf.field_build.{s}", "start": t0, "end": t1})
        spans.append({"name": f"bush.construct.{s}-{t}", "start": t1, "end": t2})
    return spans


def layer_calls(tracer, root: Path, workdir: Path, design262144, seed: int) -> tuple[dict, list[str]]:
    """Trace the extra layer calls; return exact counts and gate problems."""
    span = tracer.span
    problems = []
    for _ in range(PLAN_CALLS):
        with span("nested.plan"):
            plan_noa(262144, 8)

    plan64 = plan_noa(64, 3)
    f64 = make_integrand("ADD-EXP", 3)
    for i in range(N64_CALLS):
        s = seed + i
        with span("nested.construct_noa.n64"):
            nd = construct_noa(plan64, s)
        with span("nested.construct_tang.n64"):
            construct_tang(64, 3, s)
        with span("nested.construct_lhs.n64"):
            construct_lhs(64, 3, s)
        points = to_points(nd.design, "uniform", s)
        with span("bench.estimate.n64"):
            estimate(points, f64)

    with span("nested.expand_to_lhs"):
        lhs = expand_to_lhs(collapse(design262144, 512), seed)
    if not np.array_equal(collapse(lhs, 512).matrix, collapse(design262144, 512).matrix):
        problems.append("expand_to_lhs does not collapse back to its input")

    nd = construct_noa(plan_noa(32768, 5), seed)
    points = to_points(nd.design, "uniform", seed)
    dpath, ppath = workdir / "layer-design.csv", workdir / "layer-points.csv"
    with span("designs.save_design"):
        save_design(nd.design, dpath, {"seed": str(seed)})
    with span("designs.load_design"):
        loaded, _ = load_design(dpath)
    with span("sampling.save_points"):
        save_points(points, ppath)
    with span("sampling.load_points"):
        loaded_points = load_points(ppath)
    if not np.array_equal(loaded.matrix, nd.design.matrix):
        problems.append("design CSV round trip changed the design")
    if not np.array_equal(loaded_points.points, points.points):
        problems.append("points CSV round trip changed the points")
    counts = {
        "designs.csv_bytes": os.path.getsize(dpath),
        "sampling.csv_bytes": os.path.getsize(ppath),
    }

    env = child_env(root)
    for _ in range(STARTUP_CALLS):
        with span("cli.startup"):
            proc = _run([*python_cmd(), "-c", "import noa.cli"], root, env)
        if proc.returncode != 0:
            problems.append(f"import noa.cli exited {proc.returncode}")

    with span("python.cold_probe"):
        proc = _run([*python_cmd(), str(Path(__file__).with_name("run.py")), "--cold-probe"], root, env)
        if proc.returncode == 0:
            for s in json.loads(proc.stdout.splitlines()[-1]):
                tracer.add(s["name"], s["start"], s["end"])
    if proc.returncode != 0:
        problems.append(f"cold probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return counts, problems


def _run(cmd, root: Path, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
