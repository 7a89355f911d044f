import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", PATH)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def child_stdout(p50, seed):
    meta = {"git_revision": "abc", "workload": "design-n262144", "seed": seed}
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"}}}
    return "\n".join([
        f"# meta {json.dumps(meta)}",
        "# plan design-n262144: ...",
        f"op_p50_ms {p50} ms",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_meta_line_and_the_final_json_line():
    meta, result = record_bench.parse_run(child_stdout(300.5, 4))
    assert meta["seed"] == 4 and result["metrics"]["op_p50_ms"]["value"] == 300.5
    with pytest.raises(ValueError, match="one '# meta' line"):
        record_bench.parse_run("op_p50_ms 1 ms\n{}\n")


def test_record_appends_runs_and_summarises_each_metric(tmp_path):
    path = tmp_path / "BENCH_abc.json"
    runs = []
    for seed, p50 in ((1, 310.0), (2, 290.0), (3, 300.0)):
        meta, result = record_bench.parse_run(child_stdout(p50, seed))
        runs.append({"workload": "design-n262144", "seed": seed, "seconds": 1.0, "trace": 0,
                     "meta": meta, "result": result})
    record_bench.record(path, "abc", runs[:2])
    record_bench.record(path, "abc", runs[2:])
    saved = json.loads(path.read_text())
    assert saved["revision"] == "abc" and [r["seed"] for r in saved["runs"]] == [1, 2, 3]
    assert saved["summary"]["design-n262144 trace=0"]["op_p50_ms"] == {
        "unit": "ms", "values": [310.0, 290.0, 300.0], "median": 300.0
    }
