import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", PATH)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


# the line benchmarks/run.py prints after a timed run
CALIBRATION_LINE = (
    "# calibration kernel: median 12.34 ms over 57 runs, reference 10 ms, so times are "
    "scaled by 0.8104; unscaled op_p50_ms 370.8"
)
CALIBRATION = {"kernel_median_ms": 12.34, "kernel_runs": 57, "reference_ms": 10.0,
               "factor": 0.8104, "unscaled_op_p50_ms": 370.8}


def child_stdout(p50, seed, calibration=True):
    meta = {"git_revision": "abc", "workload": "design-n262144", "seed": seed}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"}}}
    return "\n".join([
        f"# meta {json.dumps(meta)}",
        "# plan design-n262144: ...",
        *([CALIBRATION_LINE] if calibration else []),
        f"op_p50_ms {p50} ms",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_meta_line_and_the_final_json_line():
    meta, result, _ = record_bench.parse_run(child_stdout(300.5, 4))
    assert meta["seed"] == 4 and result["metrics"]["op_p50_ms"]["value"] == 300.5
    with pytest.raises(ValueError, match="one '# meta' line"):
        record_bench.parse_run("op_p50_ms 1 ms\n{}\n")


def test_parse_run_reads_the_calibration_line():
    assert record_bench.parse_run(child_stdout(300.5, 4))[2] == CALIBRATION
    assert record_bench.parse_run(child_stdout(300.5, 4, calibration=False))[2] is None


@pytest.mark.parametrize("calibration", [True, False])
def test_run_once_keeps_the_calibration_when_the_child_prints_it(tmp_path, calibration):
    # a checkout whose benchmarks/run.py prints a fixed run's stdout
    (tmp_path / "benchmarks").mkdir()
    stdout = child_stdout(300.5, 4, calibration)
    (tmp_path / "benchmarks" / "run.py").write_text(f"print({stdout!r}, end='')\n")
    run = record_bench.run_once(tmp_path, "design-n262144", 4, 1.0, 0)
    assert run["meta"]["seed"] == 4 and run["result"]["metrics"]["op_p50_ms"]["value"] == 300.5
    assert run.get("calibration") == (CALIBRATION if calibration else None)
    assert ("calibration" in run) == calibration


def test_record_appends_runs_and_summarises_each_metric(tmp_path):
    path = tmp_path / "BENCH_abc.json"
    runs = []
    for seed, p50 in ((1, 310.0), (2, 290.0), (3, 300.0)):
        meta, result, _ = record_bench.parse_run(child_stdout(p50, seed))
        runs.append({"workload": "design-n262144", "seed": seed, "seconds": 1.0, "trace": 0,
                     "meta": meta, "result": result})
    record_bench.record(path, "abc", runs[:2])
    record_bench.record(path, "abc", runs[2:])
    saved = json.loads(path.read_text())
    assert saved["revision"] == "abc" and [r["seed"] for r in saved["runs"]] == [1, 2, 3]
    assert saved["summary"]["design-n262144 trace=0"]["op_p50_ms"] == {
        "unit": "ms", "values": [310.0, 290.0, 300.0], "median": 300.0
    }


def synthetic_run(**values):
    """A recorded run whose result holds the given metric values."""
    return {"result": {"metrics": {k: {"value": v, "unit": "ms"} for k, v in values.items()}}}


def test_directions_read_every_metric_of_benchmark_json():
    benchmark = json.loads((PATH.parents[1] / "BENCHMARK.json").read_text())
    entries = record_bench.metrics(benchmark)
    assert entries["op_p50_ms"]["better"] == "lower" and entries["ops_per_s"]["better"] == "higher"
    assert entries["op_p50_ms"]["bound"] == 0.25 and "bound" not in entries["bench.estimate_us"]
    assert len(entries) == len(benchmark["end_to_end"]) + len(benchmark["per_layer"])


def test_compare_gives_medians_first_quartiles_and_pairs_won():
    # op_p50_ms: lower in four pairs, tied in the fifth; ops_per_s: higher in three
    first = [synthetic_run(op_p50_ms=p50, ops_per_s=ops, other=1.0)
             for p50, ops in zip((258.2, 261.1, 263.6, 266.8, 271.0), (1, 2, 3, 4, 5))]
    second = [synthetic_run(op_p50_ms=p50, ops_per_s=ops, other=2.0)
              for p50, ops in zip((250.0, 255.0, 263.6, 259.0, 262.0), (2, 3, 3, 5, 4))]
    entries = {"op_p50_ms": {"better": "lower", "bound": 0.25}, "ops_per_s": {"better": "higher"}}
    assert record_bench.compare(first, second, entries) == [
        "op_p50_ms (lower is better): median 263.6 -> 259; first's quartiles 259.65, 268.9; "
        "second better in 4 of 5 pairs; claim not met; within bound 0.25",
        "ops_per_s (higher is better): median 3 -> 3; first's quartiles 1.5, 4.5; "
        "second better in 3 of 5 pairs; claim not met",
    ]  # the metric with no direction is left out


def test_compare_takes_one_pair_as_its_own_quartiles():
    first, second = [synthetic_run(op_p50_ms=300.0)], [synthetic_run(op_p50_ms=320.0)]
    entries = {"op_p50_ms": {"better": "lower", "bound": 0.05}}
    assert record_bench.compare(first, second, entries) == [
        "op_p50_ms (lower is better): median 300 -> 320; first's quartiles 300, 300; "
        "second better in 0 of 1 pairs; claim not met; worse than bound 0.05"
    ]


def test_compare_compares_only_the_metrics_both_sides_recorded():
    # the second side drops op_tail_ms and adds op_cpu_p50_ms; one first run lacks other
    entries = {name: {"better": "lower"} for name in ("op_p50_ms", "op_tail_ms", "op_cpu_p50_ms")}
    first = [synthetic_run(op_p50_ms=300.0, op_tail_ms=400.0, other=1.0),
             synthetic_run(op_p50_ms=310.0, op_tail_ms=410.0)]
    second = [synthetic_run(op_p50_ms=290.0, op_cpu_p50_ms=250.0, other=1.0),
              synthetic_run(op_p50_ms=320.0, op_cpu_p50_ms=260.0, other=1.0)]
    lines = [
        "op_p50_ms (lower is better): median 305 -> 305; first's quartiles 297.5, 312.5; "
        "second better in 1 of 2 pairs; claim not met",
        "op_tail_ms: recorded by 2 of 2 first runs and 0 of 2 second runs; not compared",
        "other: recorded by 1 of 2 first runs and 2 of 2 second runs; not compared",
        "op_cpu_p50_ms: recorded by 0 of 2 first runs and 2 of 2 second runs; not compared",
    ]
    assert record_bench.compare(first, second, entries) == lines
    # the other way round: the metric the change no longer records is named, not a KeyError
    assert record_bench.compare(second, first, entries) == [
        "op_p50_ms (lower is better): median 305 -> 305; first's quartiles 282.5, 327.5; "
        "second better in 1 of 2 pairs; claim not met",
        "op_cpu_p50_ms: recorded by 2 of 2 first runs and 0 of 2 second runs; not compared",
        "other: recorded by 2 of 2 first runs and 1 of 2 second runs; not compared",
        "op_tail_ms: recorded by 0 of 2 first runs and 2 of 2 second runs; not compared",
    ]


def verdict(xs, ys, better="lower", **bound):
    """compare's verdicts for one metric over the pairs (xs[i], ys[i])."""
    first, second = ([synthetic_run(m=v) for v in vs] for vs in (xs, ys))
    (line,) = record_bench.compare(first, second, {"m": {"better": better, **bound}})
    return line.split("pairs; ")[1]


def test_compare_meets_a_claim_only_with_nine_in_ten_of_ten_pairs_and_a_gain_past_the_spread():
    # the first side's quartiles are 101.75 and 107.25 (spread 5.5) around a median of 104.5
    xs = [100.0 + i for i in range(10)]
    # nine pairs won, the tenth tied, medians 104.5 -> 98.5: a gain of 6
    assert verdict(xs, [x - 6 for x in xs[:9]] + xs[9:]) == "claim met"
    # a gain of 5, inside the spread
    assert verdict(xs, [x - 5 for x in xs[:9]] + xs[9:]) == "claim not met"
    # a gain of 6, but two ties leave eight pairs won
    assert verdict(xs, [x - 6 for x in xs[:8]] + xs[8:]) == "claim not met"
    # the same gain in the other direction is a loss
    assert verdict(xs, [x - 6 for x in xs[:9]] + xs[9:], "higher") == "claim not met"
    assert verdict([-x for x in xs], [6 - x for x in xs[:9]] + [-xs[9]], "higher") == "claim met"
    # every pair won by far, but five pairs are too few
    assert verdict(xs[:5], [x - 50 for x in xs[:5]]) == "claim not met"


def test_compare_calls_a_metric_worse_only_past_its_bound_of_the_first_median():
    # higher is better: a quarter of 4.0 may be lost, no more
    assert verdict([4.0], [3.0], "higher", bound=0.25) == "claim not met; within bound 0.25"
    assert verdict([4.0], [2.9], "higher", bound=0.25) == "claim not met; worse than bound 0.25"
    # lower is better: 20% of 300 ms is 60 ms
    assert verdict([300.0], [360.0], bound=0.2).endswith("; within bound 0.2")
    assert verdict([300.0], [361.0], bound=0.2).endswith("; worse than bound 0.2")


UNRESOLVED = "; unresolved: first's spread wider than bound 0.2"


def test_compare_calls_a_bound_unresolved_when_the_first_spread_is_wider():
    # quartiles 92.5 and 117.5 around a median of 100: a spread of 25%
    xs = [90.0, 95.0, 100.0, 115.0, 120.0]
    assert verdict(xs, xs, bound=0.25).endswith("; within bound 0.25")
    assert verdict(xs, xs, bound=0.2).endswith(UNRESOLVED)
    # a change no worse by its median is unresolved, and so is one far worse
    assert verdict(xs, [x - 1 for x in xs], bound=0.2).endswith(UNRESOLVED)
    assert verdict(xs, [x * 2 for x in xs], bound=0.2).endswith(UNRESOLVED)


def test_compare_resolves_a_wide_spread_when_every_second_run_beats_every_first():
    xs = [90.0, 95.0, 100.0, 115.0, 120.0]
    assert verdict(xs, [x - 31 for x in xs], bound=0.2).endswith("; within bound 0.2")
    # one second run ties the best first run, so not every one is better
    assert verdict(xs, [x - 30 for x in xs], bound=0.2).endswith(UNRESOLVED)
    # higher is better: every second run above every first run
    assert verdict(xs, [x + 31 for x in xs], "higher", bound=0.2).endswith("; within bound 0.2")
    assert verdict(xs, [x + 30 for x in xs], "higher", bound=0.2).endswith(UNRESOLVED)


def test_file_stems_number_the_checkouts_of_one_revision():
    assert record_bench.file_stems(["abc", "def"]) == ["abc", "def"]
    assert record_bench.file_stems(["abc", "abc"]) == ["abc-1", "abc-2"]
    assert record_bench.file_stems(["abc", "def", "abc-dirty", "def"]) == [
        "abc", "def-2", "abc-dirty", "def-4"
    ]


def test_main_records_and_compares_two_checkouts_of_one_revision(tmp_path, monkeypatch, capsys):
    # an A/A run: both checkouts are at revision abc, and each gets its own file
    checkouts = [tmp_path / "a", tmp_path / "b"]
    for checkout in checkouts:
        checkout.mkdir()
    (checkouts[0] / "BENCHMARK.json").write_text((PATH.parents[1] / "BENCHMARK.json").read_text())
    order = []

    def run_once(checkout, workload, seed, seconds, trace):
        order.append((checkout.name, seed))
        run = synthetic_run(op_p50_ms=300.0 + seed + (checkout.name == "b"))
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **run}

    monkeypatch.setattr(record_bench, "short_rev", lambda checkout: "abc")
    monkeypatch.setattr(record_bench, "run_once", run_once)
    argv = ["--workload", "design-n262144", "--seeds", "1,2", "--seconds", "1",
            "--out-dir", str(tmp_path), *map(str, checkouts)]
    assert record_bench.main(argv) == 0
    assert order == [("a", 1), ("b", 1), ("b", 2), ("a", 2)]  # each side first in turn
    for stem, values in (("abc-1", [301.0, 302.0]), ("abc-2", [302.0, 303.0])):
        saved = json.loads((tmp_path / f"BENCH_{stem}.json").read_text())
        assert saved["revision"] == "abc"
        assert saved["summary"]["design-n262144 trace=0"]["op_p50_ms"]["values"] == values
    assert not (tmp_path / "BENCH_abc.json").exists()
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "# abc-1 -> abc-2, design-n262144, 2 pairs",
        "op_p50_ms (lower is better): median 301.5 -> 302.5; first's quartiles 300.75, 302.25; "
        "second better in 0 of 2 pairs; claim not met; within bound 0.25",
    ]


def test_main_prints_each_runs_median_op_time_and_peak_memory(tmp_path, monkeypatch, capsys):
    # a memory step that follows the recording shows run by run, not only in the medians
    def run_once(checkout, workload, seed, seconds, trace):
        run = synthetic_run(op_p50_ms=250.0 + seed, peak_rss_mb=81.5 + seed)
        return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **run}

    monkeypatch.setattr(record_bench, "short_rev", lambda checkout: "abc")
    monkeypatch.setattr(record_bench, "run_once", run_once)
    argv = ["--workload", "design-n262144", "--seeds", "1,2", "--out-dir", str(tmp_path),
            str(tmp_path)]
    assert record_bench.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "abc seed 1: op_p50_ms 251.0, peak_rss_mb 82.5",
        "abc seed 2: op_p50_ms 252.0, peak_rss_mb 83.5",
    ]
