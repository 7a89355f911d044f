"""Record benchmark runs in BENCH_<short-rev>.json files.

Runs each checkout's ``benchmarks/run.py`` as a child process, once per
seed, taking the checkouts in turn for every seed and reversing their
order from one seed to the next (so a parent and a change are measured in
pairs that alternate which side runs first), and writes one
``BENCH_<short-rev>.json`` per checkout into ``--out-dir``.  Each run
keeps the child's ``# meta`` line and its final JSON line as printed; the
file also holds, per workload and metric, every run's value and their
median.  A run also keeps, under ``calibration``, the numbers of the
child's ``# calibration kernel`` line: the factor that scaled its times,
and the kernel and unscaled op times it came from.  Runs are added to a
file that already exists.  Nothing under ``benchmarks/`` is edited.

Given two checkouts, it then prints one line per metric that every run of
both sides recorded and the first checkout's ``BENCHMARK.json`` (read,
never written) gives a ``better`` direction: each side's median over these
runs, the first side's quartiles, in how many pairs the second side was
better, and the verdict of the gain rule and, where the metric has one, of
its bound (see ``compare``).  A metric that some run did not record gets a
line saying how many runs of each side did, and is not compared.

    python3 tools/record_bench.py --workload design-n262144 --seeds 1,2,3 \\
        --seconds 40 --out-dir . PARENT_CHECKOUT CHANGE_CHECKOUT

A checkout with uncommitted changes is recorded as ``<short-rev>-dirty``.
Runs are kept by checkout, not by revision: checkouts of one revision (an
A/A run, which measures the noise) write ``BENCH_<short-rev>-<position>.json``,
position counted from 1, and two of them are compared as any two are.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

META = "# meta "
CALIBRATION = re.compile(
    r"# calibration kernel: median (?P<kernel_median_ms>\S+) ms over (?P<kernel_runs>\d+) runs, "
    r"reference (?P<reference_ms>\S+) ms, so times are scaled by (?P<factor>[^\s;]+); "
    r"unscaled op_p50_ms (?P<unscaled_op_p50_ms>\S+)$"
)


def short_rev(checkout: Path) -> str:
    """The checkout's short HEAD revision, with -dirty when its tree has uncommitted changes."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    rev = git("rev-parse", "--short", "HEAD")
    return rev + "-dirty" if git("status", "--porcelain", "--untracked-files=no") else rev


def parse_run(stdout: str) -> tuple[dict, dict, dict | None]:
    """The child's ``# meta`` object, its final JSON line, and its calibration numbers.

    The calibration is None when the child prints no ``# calibration kernel`` line.
    """
    lines = stdout.splitlines()
    metas = [json.loads(ln[len(META):]) for ln in lines if ln.startswith(META)]
    if len(metas) != 1 or not lines:
        raise ValueError(f"expected one '# meta' line, found {len(metas)}")
    match = next(filter(None, map(CALIBRATION.match, lines)), None)
    calibration = None if match is None else {
        k: (int if k == "kernel_runs" else float)(v) for k, v in match.groupdict().items()
    }
    return metas[0], json.loads(lines[-1]), calibration


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    meta, result, calibration = parse_run(proc.stdout)
    run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "meta": meta, "result": result}
    if calibration is not None:
        run["calibration"] = calibration
    return run


def summary(runs: list[dict]) -> dict:
    """Per workload and trace mode, each metric's values in run order and their median."""
    out: dict = {}
    for run in runs:
        key = f"{run['workload']} trace={run['trace']}"
        for name, metric in run["result"]["metrics"].items():
            entry = out.setdefault(key, {}).setdefault(
                name, {"unit": metric["unit"], "values": []}
            )
            entry["values"].append(metric["value"])
    for metrics in out.values():
        for entry in metrics.values():
            entry["median"] = statistics.median(entry["values"])
    return out


def record(path: Path, rev: str, runs: list[dict]) -> None:
    old = json.loads(path.read_text())["runs"] if path.exists() else []
    runs = old + runs
    path.write_text(json.dumps(
        {"revision": rev, "runs": runs, "summary": summary(runs)}, indent=1
    ) + "\n")


def metrics(benchmark: dict) -> dict[str, dict]:
    """Each metric's BENCHMARK.json entry, by name: its better direction, "lower"
    or "higher", and for an end-to-end metric its bound."""
    return {m["name"]: m for group in ("end_to_end", "per_layer") for m in benchmark.get(group, [])}


def compare(first: list[dict], second: list[dict], entries: dict[str, dict]) -> list[str]:
    """One line per metric with a better direction, over runs paired in order.

    Only a metric that every run of both sides recorded is compared; one
    that some run lacks (a metric added or dropped by the second side) gets
    a line counting the runs of each side that recorded it, direction or not.

    A compared metric's line gives both sides' medians, the first side's
    quartiles (statistics.quantiles' default, exclusive method; a single run
    is its own quartiles) and how many pairs the second side won: a pair is won
    when its value is lower, or higher, as the metric's direction says, so
    a tie wins nothing.  Then the verdicts: "claim met" when there are at
    least 10 pairs, the second side won at least 9 in 10 of them and its
    median is better than the first's by more than the first's
    interquartile range, else "claim not met"; and for a metric with a
    bound, "worse than bound" when the second median is worse than the
    first by more than that fraction of the first, else "within bound".
    """
    lines = []
    sides = (first, second)
    held = [Counter(name for run in side for name in run["result"]["metrics"]) for side in sides]
    for name in dict.fromkeys(name for side in held for name in side):
        if [count[name] for count in held] != [len(side) for side in sides]:
            lines.append(f"{name}: recorded by {held[0][name]} of {len(first)} first runs and "
                         f"{held[1][name]} of {len(second)} second runs; not compared")
            continue
        if name not in entries:
            continue
        entry = entries[name]
        lower = entry["better"] == "lower"
        xs, ys = ([run["result"]["metrics"][name]["value"] for run in side] for side in sides)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        won = sum(y < x if lower else y > x for x, y in zip(xs, ys))
        mx, my = statistics.median(xs), statistics.median(ys)
        gain = mx - my if lower else my - mx
        met = len(xs) >= 10 and 10 * won >= 9 * len(xs) and gain > q3 - q1
        line = (f"{name} ({entry['better']} is better): median {mx:.6g} -> {my:.6g}; "
                f"first's quartiles {q1:.6g}, {q3:.6g}; second better in {won} of {len(xs)} "
                f"pairs; claim {'met' if met else 'not met'}")
        if "bound" in entry:
            worse = -gain > entry["bound"] * abs(mx)
            line += f"; {'worse than' if worse else 'within'} bound {entry['bound']:g}"
        lines.append(line)
    return lines


def file_stems(revs: list[str]) -> list[str]:
    """Each checkout's record name: its revision, with its position from 1
    appended when another checkout has the same revision."""
    return [rev if revs.count(rev) == 1 else f"{rev}-{i}" for i, rev in enumerate(revs, 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated run seeds")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    revs = [short_rev(c) for c in args.checkouts]
    stems = file_stems(revs)
    runs: list[list[dict]] = [[] for _ in revs]
    order = list(range(len(revs)))
    for k, seed in enumerate(int(v) for v in args.seeds.split(",")):
        for i in order if k % 2 == 0 else order[::-1]:  # each side first in turn
            run = run_once(args.checkouts[i], args.workload, seed, args.seconds, args.trace)
            runs[i].append(run)
            p50 = run["result"]["metrics"].get("op_p50_ms", {}).get("value")
            print(f"{stems[i]} seed {seed}: op_p50_ms {p50}", flush=True)
    for rev, stem, side in zip(revs, stems, runs):
        record(args.out_dir / f"BENCH_{stem}.json", rev, side)
    if len(runs) == 2:
        benchmark = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text())
        print(f"# {stems[0]} -> {stems[1]}, {args.workload}, {len(runs[0])} pairs")
        for line in compare(runs[0], runs[1], metrics(benchmark)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
