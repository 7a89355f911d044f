"""Benchmark of the noa package: three closed-loop workloads with one client.

Run from the repository root:

    python3 benchmarks/run.py --workload design-n262144 --seed 1 --seconds 40 --trace 0

Workloads: mc-n64, design-n262144, cli-files (see workloads.py).  The
benchmark imports noa from ./src and runs the CLI as ``python -m noa.cli``
against the same tree, never an installed copy.

``--trace 0`` sets up, runs ops for ``--seconds`` untraced and prints the
end-to-end metrics, with every time scaled to a reference machine speed
by a calibration kernel timed between the ops (see speed.py).
``--trace 1`` alternates untraced and traced ops for ``--seconds``, then
traces a few ops of the other workloads and the calls in layers.py, and
prints the per-layer metrics.  Every op passes through the workload's
correctness gate.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans are written to
.bench_out/trace-<workload>-seed<seed>.jsonl.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_noa() -> None:
    """Import noa from this checkout's src/, or exit with a nonzero code."""
    if not (SRC / "noa" / "__init__.py").is_file():
        sys.exit(f"benchmarks/run.py: no noa package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noa

    if SRC.resolve() not in Path(noa.__file__).resolve().parents:
        sys.exit(f"benchmarks/run.py: imported noa from {noa.__file__}, not from {SRC}")


import_noa()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.cold_probe:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@dataclass
class Loop:
    """Ops of one closed loop."""

    latencies: list[float] = field(default_factory=list)
    passed: list[bool] = field(default_factory=list)
    op_spans: list[int] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def ok_latencies(self) -> list[float]:
        """Latencies of the ops that passed, or of all ops when none did."""
        return [t for t, ok in zip(self.latencies, self.passed) if ok] or self.latencies


def run_op(wl, rng, loop: Loop, tracer=None) -> None:
    """Run one op, pass its outcome through the gate and record it in ``loop``."""
    seed = rng.getrandbits(32)
    outcome, problems = None, []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = wl.op(seed)
        else:
            tracer.op = f"{wl.name}/{loop.attempted}"
            loop.op_spans.append(len(tracer.spans))
            with tracer.span(f"op.{wl.name}"):
                outcome = wl.op(seed, tracer)
    except Exception:
        problems = [traceback.format_exc()]
    t1 = time.perf_counter()
    if not problems:
        try:
            problems = wl.problems + wl.check(outcome)
        except Exception:
            problems = [traceback.format_exc()]
    loop.latencies.append(t1 - t0)
    loop.passed.append(not problems)
    if problems:
        report_failure(f"{wl.name} op {loop.attempted} (seed {seed})", problems)


def run_loop(wl, rng, seconds: float) -> Loop:
    """Run untraced ops one after another until ``seconds`` have passed.

    The calibration kernel runs before the first op and after every op.
    """
    loop = Loop()
    start = time.perf_counter()
    loop.kernel.append(speed.kernel_s())
    while not loop.attempted or time.perf_counter() - start < seconds:
        run_op(wl, rng, loop)
        loop.kernel.append(speed.kernel_s())
    return loop


def report_failure(what: str, problems) -> None:
    print(f"FAIL {what}:", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)


def tail(latencies):
    """The highest percentile with at least ten ops beyond it, and that percentile.

    With fewer than 21 ops no percentile above the median has ten ops
    beyond it; the median is reported then, labelled p50.
    """
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def git_revision() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "optimize": sys.flags.optimize,
    }


def setup_probe(args) -> float:
    """Import plus warm-up in a fresh process, as that process measured it."""
    proc = subprocess.run(
        [*workloads.python_cmd(), str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(wl, loop: Loop, setup_samples) -> dict:
    """End-to-end metrics, every time scaled to the reference machine speed."""
    lat = loop.ok_latencies()
    tail_s, pct = tail(lat)
    factor = speed.factor(loop.kernel)
    rss_who = resource.RUSAGE_CHILDREN if wl.name == "cli-files" else resource.RUSAGE_SELF
    print(f"# ops {loop.attempted} attempted, {loop.failed} failed; op_tail_ms is p{pct:.4g} "
          f"of {len(lat)} ops; setup_s is the median of {[round(s, 4) for s in setup_samples]}")
    print(f"# calibration kernel: median {statistics.median(loop.kernel) * 1e3:.4g} ms over "
          f"{len(loop.kernel)} runs, reference {speed.REFERENCE_S * 1e3:.4g} ms, so times are "
          f"scaled by {factor:.4g}; unscaled op_p50_ms {statistics.median(lat) * 1e3:.6g}")
    print(f"{'fail_ratio':<40} {loop.failed / loop.attempted:.6g} ratio (1 - ok_ratio)")
    return {
        "setup_s": (statistics.median(setup_samples) * factor, "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / (sum(loop.latencies) * factor), "1/s"),
        "op_p50_ms": (statistics.median(lat) * factor * 1e3, "ms"),
        "op_tail_ms": (tail_s * factor * 1e3, "ms"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(rss_who).ru_maxrss / 1024.0, "MiB"),
    }


def span_metrics() -> dict:
    """Per-layer metric -> (span name, unit, factor on the median self time in s)."""
    ms, us = ("ms", 1e3), ("us", 1e6)
    table = {f"bench.rep_us.{k}": (f"bench.run_bench.{k}", "us", 1e6 / workloads.McN64.reps)
             for k in workloads.KINDS}
    table["bench.estimate_us"] = ("bench.estimate.n64", *us)
    for kind, fn in (("noa3", "noa"), ("tang", "tang"), ("lhs", "lhs")):
        table[f"nested.construct_ms.{kind}-n64"] = (f"nested.construct_{fn}.n64", *ms)
    table["nested.construct_ms.noa3-n262144"] = ("nested.construct_noa.n262144", *ms)
    table["nested.plan_ms"] = ("nested.plan", *ms)
    table["nested.expand_ms"] = ("nested.expand_to_lhs", *ms)
    table["designs.collapse_ms"] = ("designs.collapse", *ms)
    for lv, t in workloads.DesignN262144.ladder:
        table[f"designs.check_strength_ms.{lv}-{t}"] = (f"designs.check_strength.{lv}-{t}", *ms)
    table["sampling.to_points_ms"] = ("sampling.to_points", *ms)
    for s, t in layers.BUSH_ARRAYS:
        table[f"gf.field_build_ms.{s}"] = (f"gf.field_build.{s}", *ms)
    for s, t in layers.BUSH_ARRAYS:
        table[f"bush.construct_ms.{s}-{t}"] = (f"bush.construct.{s}-{t}", *ms)
    table["designs.save_ms"] = ("designs.save_design", *ms)
    table["designs.load_ms"] = ("designs.load_design", *ms)
    table["sampling.save_ms"] = ("sampling.save_points", *ms)
    table["sampling.load_ms"] = ("sampling.load_points", *ms)
    table["cli.startup_ms"] = ("cli.startup", *ms)
    for name in workloads.CliFiles.step_names:
        table[f"{name}_ms"] = (name, *ms)
    return table


def per_layer(wl, tracer, untraced: Loop, traced: Loop, counts: dict) -> tuple[dict, list]:
    self_t = tracer.self_times()
    by_name = defaultdict(list)
    for span, st in zip(tracer.spans, self_t):
        by_name[span.name].append(st)
    metrics, problems = {}, []
    for metric, (span_name, unit, factor) in span_metrics().items():
        vals = by_name.get(span_name)
        if not vals:
            problems.append(f"no span {span_name} for {metric}")
        metrics[metric] = (statistics.median(vals) * factor if vals else 0.0, unit)
    d = workloads.DesignN262144
    metrics["designs.cells_counted"] = (workloads.cells_counted(d.d, d.ladder), "count")
    metrics["designs.csv_bytes"] = (counts["designs.csv_bytes"], "B")
    metrics["sampling.csv_bytes"] = (counts["sampling.csv_bytes"], "B")
    p50_traced = statistics.median(traced.ok_latencies())
    p50_untraced = statistics.median(untraced.ok_latencies())
    metrics["trace.op_p50_ms"] = (p50_traced * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((p50_traced - p50_untraced) * 1e3, "ms")
    metrics["trace.unattributed_ms"] = (
        statistics.median(self_t[i] for i in traced.op_spans) * 1e3, "ms")

    # human-readable: median self time per op of each module, this workload only
    per_op = defaultdict(lambda: defaultdict(float))
    for span, st in zip(tracer.spans, self_t):
        if span.op.startswith(wl.name + "/"):
            per_op[span.module][span.op] += st
    n_ops = len(traced.op_spans)
    for module, by_op in sorted(per_op.items()):
        vals = list(by_op.values()) + [0.0] * (n_ops - len(by_op))
        label = "unattributed" if module == "op" else module
        print(f"# self time per traced {wl.name} op: {label:<12} {statistics.median(vals) * 1e3:.6g} ms")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cold_probe:
        print(json.dumps(layers.cold_probe()))
        return 0
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    rng = random.Random(args.seed)
    wl = workloads.make(args.workload, ROOT, workdir)
    setup_samples = wl.setup(rng.getrandbits(32), warm=args.trace == 0)
    main_setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": main_setup_s}))
        return 0

    print("# meta", json.dumps(metadata(args)))
    print(f"# plan {wl.name}: {wl.plan}")
    for p in wl.problems:
        report_failure(f"{wl.name} set-up", [p])
    extra_attempted, extra_failed = 0, 0

    if args.trace == 0:
        loop = run_loop(wl, rng, args.seconds)
        attempted, failed = loop.attempted, loop.failed
        if not setup_samples:
            setup_samples = [main_setup_s]
            for _ in range(wl.setup_probes):
                extra_attempted += 1
                try:
                    setup_samples.append(setup_probe(args))
                except (RuntimeError, subprocess.SubprocessError) as exc:
                    extra_failed += 1
                    report_failure("set-up probe", [str(exc)])
        metrics = end_to_end(wl, loop, setup_samples)
    else:
        # untraced and traced ops alternate, so drift in machine speed
        # does not enter the tracing overhead
        tracer, untraced, traced = Tracer(), Loop(), Loop()
        start = time.perf_counter()
        while not traced.attempted or time.perf_counter() - start < args.seconds:
            run_op(wl, rng, untraced)
            run_op(wl, rng, traced, tracer)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        instances = {wl.name: wl}
        for name in WORKLOAD_NAMES:
            if name == wl.name:
                continue
            other = instances[name] = workloads.make(name, ROOT, workdir)
            other.setup(rng.getrandbits(32), warm=False)
            sweep = Loop()
            for _ in range(other.sweep_ops):
                run_op(other, rng, sweep, tracer)
            attempted += sweep.attempted
            failed += sweep.failed
        tracer.op = "layers"
        counts, problems = layers.layer_calls(
            tracer, ROOT, workdir, instances["design-n262144"].last_design, rng.getrandbits(32))
        metrics, missing = per_layer(wl, tracer, untraced, traced, counts)
        extra_attempted, extra_failed = 1, int(bool(problems + missing))
        if problems + missing:
            report_failure("layer calls", problems + missing)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")

    attempted += extra_attempted
    failed += extra_failed
    print(f"# exact counts per {wl.name} op: {json.dumps(wl.counts())}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
