import io
import json
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noa
from noa import bench, gf, nested
from noa.cli import main
from noa.designs import format_design, load_design, nested64_fixture, save_design, Design
from noa.sampling import load_points


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_noa3_summary(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, _ = run(
        capsys, "gen", "--kind", "noa3", "--n", "64", "--d", "3", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == "64,1,1  8,2,1  4,3,1"
    design, meta = load_design(out)
    assert (design.n, design.d, design.s) == (64, 3, 64)
    assert meta["seed"] == "7"
    assert meta["ladder"] == "(64,1);(8,2);(4,3)"


def test_gen_lhs(tmp_path, capsys):
    out = tmp_path / "l.csv"
    code, stdout, _ = run(
        capsys, "gen", "--kind", "lhs", "--n", "4", "--d", "3", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == "4,1,1"
    design, _ = load_design(out)
    assert (design.n, design.d) == (4, 3)
    # with no --seed, a planned kind draws seed 0
    run(capsys, "gen", "--kind", "lhs", "--n", "4", "--d", "3", "--out", str(tmp_path / "0.csv"))
    run(capsys, "gen", "--kind", "lhs", "--n", "4", "--d", "3", "--seed", "0", "--out", str(out))
    assert (tmp_path / "0.csv").read_text() == out.read_text()
    assert load_design(out)[1]["seed"] == "0"


def test_gen_noa3_no_plan(capsys):
    code, _, err = run(capsys, "gen", "--kind", "noa3", "--n", "24", "--d", "3")
    assert code == 2
    assert err.count("\n") == 1 and "n=24, d=3" in err


@pytest.mark.parametrize("kind", ["lhs", "tang", "noa3"])
@pytest.mark.parametrize("given", [(), ("--n", "64"), ("--d", "3")])
def test_gen_requires_n_and_d(capsys, kind, given):
    code, stdout, err = run(capsys, "gen", "--kind", kind, *given)
    assert code == 2
    assert stdout == ""
    assert err == f"error: gen --kind {kind} requires --n and --d\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--kind", "bush", "--s", "4", "--t", "2", "--n", "999"), "gen --kind bush does not take --n"),
        (("--kind", "noa3", "--n", "64", "--d", "3", "--s", "4", "--t", "2"),
         "gen --kind noa3 does not take --s, --t"),
        (("--kind", "lhs", "--n", "4", "--d", "2", "--t", "2"), "gen --kind lhs does not take --t"),
        (("--kind", "tang", "--n", "64", "--d", "3", "--s", "8"), "gen --kind tang does not take --s"),
        # a Bush array draws nothing, so a seed would be ignored
        (("--kind", "bush", "--s", "4", "--t", "2", "--seed", "5"),
         "gen --kind bush does not take --seed"),
        (("--kind", "bush", "--s", "4", "--t", "2", "--seed", "0", "--n", "16"),
         "gen --kind bush does not take --n, --seed"),
    ],
)
def test_gen_refuses_the_other_familys_flags(capsys, argv, message):
    code, stdout, err = run(capsys, "gen", *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_gen_bush_requires_s_and_t(capsys):
    code, stdout, err = run(capsys, "gen", "--kind", "bush", "--s", "4")
    assert (code, stdout, err) == (2, "", "error: gen --kind bush requires --s and --t\n")


@pytest.mark.parametrize(
    "argv,start",
    [
        ((), "error: noa: the following arguments are required: command"),
        (("bogus",), "error: noa: argument command: invalid choice: 'bogus'"),
        (("gen", "--kind", "foo", "--n", "64", "--d", "3"),
         "error: noa gen: argument --kind: invalid choice: 'foo'"),
        (("gen", "--kind", "lhs", "--n", "x"), "error: noa gen: argument --n: invalid int value: 'x'"),
        (("verify", "--in", "f.csv"), "error: noa verify: the following arguments are required: --t"),
        (("sample", "--in"), "error: noa sample: argument --in: expected one argument"),
        (("gen", "--kind", "lhs", "--n", "4", "--d", "2", "--x\ny"),
         "error: noa: unrecognized arguments: --x y"),
        (("bench", "--d", "3", "--kinds", "lhs", "--integrand", "ADD-EXP", "--rate", "8,x"),
         "error: noa bench: argument --rate: expected comma-separated integers, got '8,x'"),
        # --n is one run count and --rate a fit's: one is given, and never both
        (("bench", "--d", "3", "--kinds", "lhs", "--integrand", "ADD-EXP", "--n", "8",
          "--rate", "8,16,32"),
         "error: noa bench: argument --rate: not allowed with argument --n"),
        (("bench", "--d", "3", "--kinds", "lhs", "--integrand", "ADD-EXP"),
         "error: noa bench: one of the arguments --n --rate is required"),
    ],
)
def test_argparse_refusals_are_one_error_line(capsys, argv, start):
    # no usage block and no SystemExit: the same exit code 2 and one line as any refusal
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")


def test_gen_tang(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, _ = run(
        capsys, "gen", "--kind", "tang", "--n", "16", "--d", "4", "--seed", "2",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == "16,1,1  4,2,1"


def test_gen_bush(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, stdout, _ = run(
        capsys, "gen", "--kind", "bush", "--s", "3", "--t", "2", "--out", str(out)
    )
    assert code == 0
    assert stdout.strip() == "3,2,1"
    assert out.read_text().startswith("# noa-design v1 n=9 d=4 s=3 ladder=(3,2)\n")  # no seed=


@pytest.mark.parametrize("d", ["0", "6"])
def test_gen_bush_rejects_column_count(tmp_path, capsys, d):
    out = tmp_path / "b.csv"
    code, stdout, err = run(
        capsys, "gen", "--kind", "bush", "--s", "4", "--t", "2", "--d", d, "--out", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: need 1 <= d <= s + 1 = 5 columns at s=4 levels, got d={d}\n"
    assert not out.exists()


def test_gen_bush_too_large(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, stdout, err = run(capsys, "gen", "--kind", "bush", "--s", "512", "--t", "3", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == "error: Bush array of 512^3 rows x 513 columns exceeds 134217728 entries\n"
    assert not out.exists()


def test_gen_bush_refused_before_the_field(capsys, monkeypatch):
    # GF(4096) would take 256 MiB of tables; the size is refused without them
    monkeypatch.setattr(gf, "_fields", None)
    code, stdout, err = run(capsys, "gen", "--kind", "bush", "--s", "4096", "--t", "2")
    assert (code, stdout) == (2, "")
    assert err == "error: Bush array of 4096^2 rows x 4097 columns exceeds 134217728 entries\n"


@pytest.mark.parametrize("kind,n", [("lhs", "1000000000000"), ("tang", "1099511627776")])
def test_gen_design_too_large(tmp_path, capsys, kind, n):
    # refused before any column is allocated: n x 3 entries would be terabytes
    out = tmp_path / "g.csv"
    code, stdout, err = run(capsys, "gen", "--kind", kind, "--n", n, "--d", "3", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: design of {n} rows x 3 columns exceeds 134217728 entries\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "noa3", "--n", "128", "--d", "3", "--seed", "3"),
        ("gen", "--kind", "tang", "--n", "9", "--d", "3", "--seed", "4"),
        ("gen", "--kind", "lhs", "--n", "12", "--d", "2", "--seed", "5"),
        ("gen", "--kind", "bush", "--s", "4", "--t", "3"),
        ("gen", "--kind", "bush", "--s", "4", "--t", "2", "--d", "5"),
        ("gen", "--kind", "bush", "--s", "4", "--t", "2", "--d", "1"),
    ],
)
def test_gen_verify_round_trip(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    # re-verify the finest rung claimed in the summary
    levels, t, lam = (int(v) for v in stdout.split()[0].split(","))
    design, _ = load_design(out)
    collapse_args = []
    if levels != design.s:
        collapse_args = ["--collapse", str(levels)]
    code, stdout, _ = run(
        capsys, "verify", "--in", str(out), "--t", str(t), *collapse_args
    )
    assert code == 0
    assert stdout.strip() == f"ok lambda={lam}"


def test_verify_fixture(tmp_path, capsys):
    path = tmp_path / "fx.csv"
    save_design(nested64_fixture(), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--collapse", "4", "--t", "3")
    assert code == 0
    assert stdout.strip() == "ok lambda=1"


def test_verify_violation(tmp_path, capsys):
    path = tmp_path / "z.csv"
    save_design(Design(np.zeros((4, 2), dtype=int), s=2), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--t", "1")
    assert code == 3
    assert "violation" in stdout


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# noa-design v1 n=1 d=2 s=2\n0,5\n")
    code, _, err = run(capsys, "verify", "--in", str(path), "--t", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("entry", ["-1", "256"])
@pytest.mark.parametrize("argv", [("verify", "--t", "1"), ("sample",)])
def test_out_of_range_entry_is_refused_not_wrapped(tmp_path, capsys, argv, entry):
    # at s = 256 the levels are stored as uint8, where -1 and 256 would wrap to 255 and 0
    path = tmp_path / "wrap.csv"
    path.write_text(f"# noa-design v1 n=2 d=1 s=256\n0\n{entry}\n")
    code, stdout, err = run(capsys, argv[0], "--in", str(path), *argv[1:])
    assert code == 1
    assert stdout == ""
    assert err == "error: entries must lie in [0, 256)\n"


@pytest.mark.parametrize("argv", [("verify", "--t", "1"), ("sample",)])
def test_undecodable_file(tmp_path, capsys, argv):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xff\xfe# noa-design v1 n=1 d=1 s=1\n0\n")
    code, stdout, err = run(capsys, argv[0], "--in", str(path), *argv[1:])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_midpoint(tmp_path, capsys):
    dpath = tmp_path / "d.csv"
    run(capsys, "gen", "--kind", "lhs", "--n", "4", "--d", "2", "--seed", "0",
        "--out", str(dpath))
    ppath = tmp_path / "p.csv"
    code, _, _ = run(
        capsys, "sample", "--in", str(dpath), "--mode", "midpoint", "--out", str(ppath)
    )
    assert code == 0
    pts = load_points(ppath)
    assert set(np.round(pts.points.ravel(), 6)) <= {0.125, 0.375, 0.625, 0.875}


def test_sample_midpoint_refuses_a_seed(tmp_path, capsys):
    # a midpoint draws nothing, so a seed would be ignored; uniform mode
    # without one draws seed 0
    dpath = tmp_path / "d.csv"
    run(capsys, "gen", "--kind", "lhs", "--n", "4", "--d", "2", "--out", str(dpath))
    code, stdout, err = run(
        capsys, "sample", "--in", str(dpath), "--mode", "midpoint", "--seed", "1"
    )
    assert (code, stdout, err) == (2, "", "error: sample --mode midpoint does not take --seed\n")
    _, unseeded, _ = run(capsys, "sample", "--in", str(dpath))
    code, seeded, _ = run(capsys, "sample", "--in", str(dpath), "--seed", "0")
    assert code == 0 and unseeded == seeded


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--kind", "lhs", "--n", "6", "--d", "2", "--out", "out.csv"),
        ("sample", "--in", "d.csv", "--out", "out.csv"),
        ("bench", "--n", "8", "--d", "2", "--kinds", "iid,lhs", "--integrand", "ADD-LIN",
         "--reps", "2"),
        ("bench", "--rate", "8,16,32", "--d", "2", "--kinds", "lhs", "--integrand", "ADD-LIN",
         "--reps", "2"),
        # refused before the estimates file is opened, so none is left behind
        ("bench", "--n", "8", "--d", "3", "--kinds", "iid", "--integrand", "ADD-EXP",
         "--reps", "2", "--estimates-out", "out.csv"),
    ],
    ids=["gen", "sample", "bench", "bench-rate", "bench-estimates"],
)
def test_a_seed_outside_64_bits_is_refused(tmp_path, capsys, argv, seed):
    # a seed is not wrapped: -1 would build the design of 2^64 - 1, and 2^64 that of 0
    run(capsys, "gen", "--kind", "lhs", "--n", "6", "--d", "2", "--out", str(tmp_path / "d.csv"))
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    code, stdout, err = run(capsys, *argv, "--seed", seed)
    assert (code, stdout, err) == (2, "", f"error: seed must be in [0, 2^64), got {seed}\n")
    assert not (tmp_path / "out.csv").exists()


def test_sample_uniform_rebins(tmp_path, capsys):
    dpath = tmp_path / "d.csv"
    run(capsys, "gen", "--kind", "lhs", "--n", "8", "--d", "3", "--seed", "1",
        "--out", str(dpath))
    ppath = tmp_path / "p.csv"
    code, _, _ = run(
        capsys, "sample", "--in", str(dpath), "--mode", "uniform", "--seed", "3",
        "--out", str(ppath),
    )
    assert code == 0
    design, _ = load_design(dpath)
    pts = load_points(ppath)
    assert (np.floor(pts.points * design.s).astype(int) == design.matrix).all()


def test_sample_refuses_more_than_2_pow_53_levels(tmp_path, capsys):
    path = tmp_path / "fine.csv"
    s = (1 << 53) + 2
    path.write_text(f"# noa-design v1 n=2 d=1 s={s}\n0\n{s - 1}\n")
    code, stdout, err = run(capsys, "sample", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert err == f"error: s={s} levels exceed 2^53, past which float64 points merge strata\n"


def test_sample_deterministic(tmp_path, capsys):
    dpath = tmp_path / "d.csv"
    run(capsys, "gen", "--kind", "lhs", "--n", "8", "--d", "2", "--seed", "1",
        "--out", str(dpath))
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    run(capsys, "sample", "--in", str(dpath), "--seed", "9", "--out", str(p1))
    run(capsys, "sample", "--in", str(dpath), "--seed", "9", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bench_json(capsys):
    code, stdout, _ = run(
        capsys, "bench", "--n", "16", "--d", "3", "--kinds", "iid,lhs",
        "--integrand", "ADD-EXP", "--reps", "20", "--seed", "4",
    )
    assert code == 0
    report = json.loads(stdout)
    assert set(report["kinds"]) == {"iid", "lhs"}
    assert report["kinds"]["iid"]["r"] == 20


def test_bench_takes_each_kind_once(capsys):
    argv = ("bench", "--n", "16", "--d", "3", "--integrand", "ADD-EXP", "--reps", "5")
    _, once, _ = run(capsys, *argv, "--kinds", "iid,lhs")
    code, twice, _ = run(capsys, *argv, "--kinds", "iid,lhs,iid,lhs")
    assert code == 0 and twice == once
    rate = ("bench", "--d", "3", "--integrand", "ADD-EXP", "--reps", "5", "--rate", "8,16,32")
    _, once, _ = run(capsys, *rate, "--kinds", "lhs")
    code, twice, _ = run(capsys, *rate, "--kinds", "lhs,lhs")
    assert code == 0 and twice == once and list(json.loads(twice)) == ["lhs"]


def test_bench_plans_each_kind_and_run_count_once(capsys, monkeypatch):
    # one input check plans every (kind, n) before the first replication, and
    # every replication builds from those plans
    calls = []
    plan = nested.plan
    monkeypatch.setattr(nested, "plan", lambda *args: calls.append(args) or plan(*args))
    argv = ("bench", "--d", "3", "--kinds", "tang,iid,lhs,tang", "--integrand", "ADD-EXP",
            "--reps", "4")
    code, stdout, _ = run(capsys, *argv, "--rate", "16,64,256")
    assert code == 0 and list(json.loads(stdout)) == ["tang", "iid", "lhs"]
    assert calls == [(kind, n, 3) for kind in ("tang", "lhs") for n in (16, 64, 256)]
    calls.clear()
    code, stdout, _ = run(capsys, *argv, "--n", "64")
    assert code == 0 and list(json.loads(stdout)["kinds"]) == ["tang", "iid", "lhs"]
    assert calls == [("tang", 64, 3), ("lhs", 64, 3)]


def test_bench_degenerate_reps(capsys):
    code, stdout, _ = run(
        capsys, "bench", "--n", "16", "--d", "3", "--kinds", "iid",
        "--integrand", "ADD-LIN", "--reps", "1", "--seed", "0",
    )
    assert code == 0
    assert json.loads(stdout)["degenerate_reps"] is True


def test_bench_unconstructible(capsys):
    code, _, err = run(
        capsys, "bench", "--n", "24", "--d", "3", "--kinds", "noa3",
        "--integrand", "ADD-LIN", "--reps", "2", "--seed", "0",
    )
    assert code == 2
    assert "noa3" in err


@pytest.mark.parametrize(
    "sizes,kinds,message",
    [
        (("--n", "0", "--d", "3"), "iid", "error: need n >= 1 and d >= 1, got n=0, d=3\n"),
        pytest.param(
            ("--n", "16", "--d", "3"), ",", "error: kinds must name at least one design kind\n",
            id="no-kind",
        ),
    ],
)
def test_bench_rejects_bad_sizes(capsys, sizes, kinds, message):
    # refused before any kind runs: no JSON, no NaN, no numpy warning
    code, stdout, err = run(
        capsys, "bench", *sizes, "--kinds", kinds, "--integrand", "ADD-LIN", "--reps", "3"
    )
    assert code == 2
    assert stdout == ""
    assert err == message


NO_NOA3_PLAN_24 = (
    "kind 'noa3' failed for n=24, d=3: no plan for n=24, d=3: no prime powers s3, q <= 4096 "
    "with s3 >= d, s3^3 | n, q + 1 >= d and q^2 | n/s3^2 "
    "(consider the strength-2 construction instead)"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--n", "64", "--kinds", "iid,lhs,noa3,bogus"), "unknown design kind 'bogus'"),
        (
            ("--kinds", "lhs", "--rate", "64,256,0"),
            "need n >= 1 and d >= 1, got n=0, d=3",
        ),
        (
            ("--kinds", "lhs,bogus", "--rate", "16,32,64"),
            "unknown design kind 'bogus'",
        ),
        (
            ("--kinds", "iid", "--rate", "16,32,50000000"),
            "design of 50000000 rows x 3 columns exceeds 134217728 entries",
        ),
        # every kind is planned before the first replication of any kind
        pytest.param(("--n", "24", "--kinds", "iid,lhs,noa3"), NO_NOA3_PLAN_24, id="noa3-plan"),
        pytest.param(
            ("--n", "32", "--kinds", "iid,lhs,oa2"),
            "kind 'oa2' failed for n=32, d=3: oa2 needs n a square of a prime power, got n=32",
            id="oa2-square",
        ),
        pytest.param(
            ("--kinds", "iid,lhs,noa3", "--rate", "64,24,512"),
            NO_NOA3_PLAN_24,
            id="noa3-plan-rate",
        ),
        pytest.param(
            ("--n", "24", "--d", "5", "--kinds", "iid,lhs,tang"),
            "kind 'tang' failed for n=24, d=5: no prime power s2 with s2^2 | n=24 and s2 + 1 >= d=5",
            id="tang-plan",
        ),
        pytest.param(
            ("--n", "262144", "--kinds", "iid"),
            "3000 replications of 262144 x 3 points exceed 2147483648 drawn coordinates",
            id="drawn",
        ),
        pytest.param(
            ("--n", "16", "--d", "6", "--kinds", "iid,lhs,oa2"),
            "kind 'oa2' failed for n=16, d=6: need 1 <= d <= s + 1 = 5 columns at s=4 levels, "
            "got d=6",
            id="oa2-columns",
        ),
    ],
)
def test_bench_refuses_bad_input_before_any_replication(capsys, monkeypatch, argv, message):
    built = []

    def counting_kind_points(*args, **kwargs):
        built.append(args)
        return kind_points(*args, **kwargs)

    kind_points = bench.kind_points
    monkeypatch.setattr(bench, "kind_points", counting_kind_points)
    code, stdout, err = run(
        capsys, "bench", "--d", "3", *argv, "--integrand", "ADD-EXP", "--reps", "3000",
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert built == []


@pytest.mark.parametrize(
    "integrand,message",
    [
        (
            "NOPE",
            "unknown integrand 'NOPE', expected one of ADD-LIN, ADD-EXP, BILIN, TRILIN, PROD-EXP",
        ),
        ("TRILIN", "TRILIN needs d >= 3"),
    ],
)
def test_bench_refuses_integrand_before_any_replication(capsys, monkeypatch, integrand, message):
    monkeypatch.setattr(bench, "kind_points", None)  # refused before any replication
    code, stdout, err = run(
        capsys, "bench", "--n", "16", "--d", "2", "--kinds", "iid", "--integrand", integrand,
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_bench_rate_refuses_estimates_out(tmp_path, capsys, monkeypatch):
    # --estimates-out writes per-replication estimates, which a rate fit does not keep
    monkeypatch.setattr(bench, "fit_rate", None)  # refused before any fit
    path = tmp_path / "estimates.csv"
    code, stdout, err = run(
        capsys, "bench", "--d", "3", "--kinds", "iid", "--integrand", "ADD-EXP",
        "--reps", "30", "--rate", "8,16,32", "--estimates-out", str(path),
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: bench --estimates-out cannot be used with --rate\n"
    assert not path.exists()


def test_bench_refuses_unbuildable_oa2_field_before_any_replication(capsys, monkeypatch):
    # 4099 is prime and above gf.MAX_ORDER, so no GF(4099) can be built; an
    # iid replication at this n would take 256 MiB
    monkeypatch.setattr(bench, "kind_points", None)  # refused before any replication
    code, stdout, err = run(
        capsys, "bench", "--n", "16801801", "--d", "2", "--kinds", "iid,oa2",
        "--integrand", "ADD-LIN", "--reps", "1",
    )
    assert (code, stdout) == (2, "")
    assert err == (
        "error: kind 'oa2' failed for n=16801801, d=2: "
        "oa2 needs n a square of a prime power, got n=16801801\n"
    )


def test_bench_refuses_unwritable_estimates_out_before_any_replication(tmp_path, capsys, monkeypatch):
    built = []
    kind_points = bench.kind_points
    monkeypatch.setattr(bench, "kind_points", lambda *args: built.append(args) or kind_points(*args))
    argv = ("bench", "--n", "64", "--d", "3", "--integrand", "ADD-LIN", "--reps", "3")
    path = tmp_path / "missing" / "e.csv"
    code, stdout, err = run(capsys, *argv, "--kinds", "iid", "--estimates-out", str(path))
    assert (code, stdout, built) == (1, "", [])
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    # bad inputs are refused first, so the file is not even created
    path = tmp_path / "e.csv"
    code, stdout, err = run(capsys, *argv, "--kinds", "iid,bogus", "--estimates-out", str(path))
    assert (code, stdout, err) == (2, "", "error: unknown design kind 'bogus'\n")
    assert built == [] and not path.exists()
    code, stdout, _ = run(capsys, *argv, "--kinds", "iid", "--estimates-out", str(path))
    assert code == 0 and len(built) == 3
    assert path.read_text().splitlines()[0] == "kind,rep,estimate"


def test_bench_rate(capsys):
    code, stdout, _ = run(
        capsys, "bench", "--d", "3", "--kinds", "iid",
        "--integrand", "ADD-EXP", "--reps", "30", "--seed", "1",
        "--rate", "8,16,32",
    )
    assert code == 0
    out = json.loads(stdout)
    assert "slope" in out["iid"]


@pytest.mark.parametrize(
    "rows,argv,message",
    [
        pytest.param(
            64,
            ["verify", "--in", "wide.csv", "--t", "20"],
            "strength 20 of 64 rows x 40 columns has 137846528820 column tuples, "
            "over 274877906944 row visits",
            id="verify-tuples",
        ),
        pytest.param(
            70000,
            ["verify", "--in", "wide.csv", "--t", "20"],
            "strength 20 of 70000 rows x 40 columns has 137846528820 column tuples, "
            "over 274877906944 row visits",
            id="verify-tuples-two-blocks",
        ),
        pytest.param(
            0,
            ["bench", "--n", "64", "--d", "3", "--kinds", "iid", "--integrand", "ADD-LIN",
             "--reps", "1000000000"],
            "1000000000 replications exceed 134217728 kept estimates",
            id="bench-reps",
        ),
    ],
)
def test_unbounded_work_is_refused_before_it_starts(tmp_path, rows, argv, message):
    # each of these ran for good, or ended in a MemoryError traceback, before
    # the work bounds: a fresh process must now exit 2 with one line, in time
    if rows:
        save_design(Design(np.zeros((rows, 40), dtype=np.uint8), s=1), tmp_path / "wide.csv")
    src = str(Path(noa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "noa.cli", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["verify", "--collapse", "4", "--t", "3"], ["noa.bench", "noa.nested", "numpy.random"]),
        (["sample", "--out", "points.csv"], ["noa.bench", "noa.nested"]),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, unloaded):
    # a fresh interpreter, as each CLI process is: a command pays only for its own imports
    save_design(nested64_fixture(), tmp_path / "fx.csv")
    script = (
        "import sys\n"
        "from noa.cli import main\n"
        f"code = main({[argv[0], '--in', 'fx.csv', *argv[1:]]!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    src = str(Path(noa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "noa.designs" in modules
    assert [name for name in unloaded if name in modules] == []


def test_package_names_load_on_first_access():
    namespace = {}
    exec("from noa import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(noa.__all__)
    assert namespace["construct"] is noa.construct
    with pytest.raises(AttributeError, match="has no attribute 'construct_nothing'"):
        noa.construct_nothing


# --- the CLI promise, on generated input ---------------------------------------
#
# Every argv but -h/--help ends in an exit code of 0-3 and raises nothing; a
# refusal (1 or 2) is one "error: " line on stderr and nothing on stdout, and
# a run that ends 0 or 3 writes nothing to stderr.

# sizes are small, or so far beyond a cap that they are refused before any allocation
SIZES = st.one_of(
    st.integers(1, 9), st.integers(1, 9), st.integers(-2, 0),
    st.sampled_from([16, 25, 27, 64, 2**40, 10**18, 2**64, -(10**12)]),
).map(str)
INTS = st.one_of(SIZES, SIZES, SIZES, st.sampled_from(["", "x", "1.5", "0x10", "1e3", " 7", "٣"]))
# hypothesis draws the ends of a list more often than its middle, so the ends are good values
GEN_KINDS = ["lhs", "oa2", "", "bush", "noa3", "tang"]
BENCH_KINDS = ["iid", "bush", "", "oa2", "tang", "noa3", "lhs"]
# file names, made paths in the test's directory: the design file, a missing file,
# a file in a missing directory and the directory itself
PATHS = ("design.csv", "missing.csv", "out.csv", "no/out.csv", ".")
VALUES = {
    "--kind": st.sampled_from(GEN_KINDS),
    "--mode": st.sampled_from(["uniform", "bogus", "midpoint"]),
    "--kinds": st.lists(st.sampled_from(BENCH_KINDS), min_size=1, max_size=3).map(",".join),
    "--integrand": st.sampled_from(["ADD-LIN", "NOPE", *bench.INTEGRANDS]),
    "--rate": st.lists(SIZES, max_size=4).map(",".join),
    "--in": st.sampled_from(["design.csv", "design.csv", "design.csv", "missing.csv", "."]),
    "--out": st.sampled_from(["out.csv", "out.csv", "out.csv", "no/out.csv", "."]),
}
VALUES["--estimates-out"] = VALUES["--out"]
FLAGS = {  # per command: flags mostly given, flags given half the time
    "gen": (["--kind", "--d"], ["--out"]),
    "verify": (["--in", "--t"], ["--collapse"]),
    "sample": (["--in"], ["--mode", "--seed", "--out"]),
    "bench": (["--d", "--kinds", "--integrand", "--reps"], ["--seed", "--estimates-out"]),
}
# gen's own flags as (mostly given, given half the time), bush's or every other
# kind's, so that a kind drawn apart from them is sometimes built and sometimes
# refused for the other's
GEN_FAMILIES = ((["--s", "--t"], []), (["--n"], ["--seed"]))
# bench's run counts, one of which it takes: one --n, or a rate fit's --rate
BENCH_SIZES = ["--n", "--rate"]
# stray tokens: other commands' flags, unknown flags, positionals, a flag without
# its value, and a line break, which argparse's message quotes as it is
STRAY = ["--kind", "--n", "--collapse", "--rate", "--bogus", "-x", "extra", "--t=2", "--\nx"]
BAD_TOKENS = ["", "x", "1.5", " 2 ", "+1", "-1", "nan", "0x1", "99", "٣", "1,"]
MOSTLY = st.integers(0, 9).map(lambda k: k != 3)  # True about nine times in ten


@st.composite
def design_texts(draw):
    """A design file's text: the header's n, d, s, the row lengths and the tokens all vary.

    The body is levels below s from a drawn seed, so most files with a
    good header are designs; then one token may be replaced and one row
    resized.
    """
    magic = "# noa-design v1" if draw(MOSTLY) else draw(st.sampled_from(["# noa-points v1", "#"]))
    n, d, s = (draw(st.integers(1, 9)) if draw(MOSTLY) else
               draw(st.sampled_from([-1, 0, 2**53 + 2, 10**30])) for _ in "nds")
    header = [f"{k}={v}" for k, v in zip("nds", (n, d, s)) if draw(MOSTLY)]
    if not draw(MOSTLY):
        header.append(draw(st.sampled_from(["s=x", "junk", "seed=3"])))
    rows = n if 0 < n < 10 and draw(MOSTLY) else draw(st.integers(0, 9))
    width = d if 0 < d < 10 else draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    body = [[str(rng.randrange(min(max(s, 1), 4))) for _ in range(width)] for _ in range(rows)]
    if body and not draw(MOSTLY):
        rng.choice(body)[rng.randrange(width)] = draw(st.sampled_from(BAD_TOKENS))
    if body and not draw(MOSTLY):
        extra = ["1"] * rng.randrange(3)
        body[rng.randrange(rows)] = body[0][: draw(st.integers(0, width))] + extra
    return "\n".join([" ".join([magic, *header]), *map(",".join, body)]) + "\n"


@st.composite
def cli_argvs(draw):
    """A command, its flags with one now and then missing, their values, and stray tokens."""
    commands = ["sample", "bench", "verify", "gen"] if draw(MOSTLY) else ["bogus"]
    command = draw(st.sampled_from(commands))
    mostly, sometimes = FLAGS.get(command, ([], []))
    if command == "gen":
        more, maybe = draw(st.sampled_from(GEN_FAMILIES))
        mostly, sometimes = mostly + more, sometimes + maybe
    if command == "bench":
        mostly = [draw(st.sampled_from(BENCH_SIZES)), *mostly]
    chosen = [f for f in mostly if draw(MOSTLY)] + [f for f in sometimes if draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv += [flag, draw(VALUES.get(flag, INTS))]
    if not draw(MOSTLY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-promise")


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(text=design_texts(), argv=cli_argvs())
# the draws build lhs designs but no Bush array, whose flags must all be good at once
@example(text="# noa-design v1\n", argv=["gen", "--kind", "bush", "--s", "3", "--t", "2"])
def test_every_argv_ends_in_an_exit_code_and_at_most_one_error_line(cli_root, text, argv):
    (cli_root / "design.csv").write_text(text)
    argv = [str(cli_root / a) if a in PATHS else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    # a warning would print more lines to stderr, so it fails the example
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
