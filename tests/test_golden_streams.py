"""Pinned output streams: SHA-256 digests of designs, points and bench reports.

Each digest covers the exact text a user sees (design and points CSV, bench
JSON, the JSON that `noa bench --rate` prints) for a fixed seed.  A change to
storage or speed must leave every digest as it is; a deliberate change to a
random stream updates the digests here and says so in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from noa.bench import KINDS, estimate, make_integrand, run_bench
from noa import designs
from noa.cli import main
from noa.designs import Design, collapse, format_design
from noa.errors import UnbalancedColumnError
from noa.nested import construct, expand_to_lhs, plan
from noa.sampling import format_points, to_points


def cli_stdout(*argv):
    """What one successful noa command prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()

OUTPUTS = {
    "noa3-64-3": lambda: format_design(construct(plan("noa3", 64, 3), 7)),
    "noa3-256-4": lambda: format_design(construct(plan("noa3", 256, 4), 8)),
    "noa3-512-3": lambda: format_design(construct(plan("noa3", 512, 3), 9)),
    "tang-64-3": lambda: format_design(construct(plan("tang", 64, 3), 7)),
    "tang-1024-5": lambda: format_design(construct(plan("tang", 1024, 5), 8)),
    "lhs-16-3": lambda: format_design(construct(plan("lhs", 16, 3), 7)),
    "lhs-300-2": lambda: format_design(construct(plan("lhs", 300, 2), 8)),
    "oa-8-2-9": lambda: format_design(construct(plan("oa2", 64, 9), 7)),
    # GF(9): an odd characteristic with m > 1, whose smallest irreducible is not primitive
    "oa-9-2-4": lambda: format_design(construct(plan("oa2", 81, 4), 7)),
    "expand-oa-4-2-3": lambda: format_design(expand_to_lhs(construct(plan("oa2", 16, 3), 7), 9)),
    # 1000 fine levels per level: the ranks are shuffled in more than one block
    "expand-100000-100": lambda: format_design(
        expand_to_lhs(collapse(construct(plan("lhs", 100000, 1), 3), 100), 4)
    ),
    "points-noa3-64-3": lambda: format_points(
        to_points(construct(plan("noa3", 64, 3), 7), "uniform", 11)
    ),
    "points-lhs-300-2": lambda: format_points(
        to_points(construct(plan("lhs", 300, 2), 8), "uniform", 12)
    ),
    "points-tang-64-3-mid": lambda: format_points(
        to_points(construct(plan("tang", 64, 3), 7), "midpoint")
    ),
    # more than one 2^16-row block: the two-lane path of every pipeline stage
    "noa3-131072-5": lambda: format_design(construct(plan("noa3", 131072, 5), 5)),
    "points-noa3-131072-5": lambda: format_points(
        to_points(construct(plan("noa3", 131072, 5), 5), "uniform", 13)
    ),
    "points-noa3-131072-5-mid": lambda: format_points(
        to_points(construct(plan("noa3", 131072, 5), 5), "midpoint")
    ),
    # a tang design past one block: its expansion on two lanes
    "tang-131072-3": lambda: format_design(construct(plan("tang", 131072, 3), 5)),
    # the estimate's repr, every digit of its float
    "estimate-noa3-131072-5": lambda: repr(estimate(
        to_points(construct(plan("noa3", 131072, 5), 5), "uniform", 13),
        make_integrand("PROD-EXP", 5),
    )),
    "bench-64-3-s5": lambda: run_bench(64, 3, KINDS, "ADD-EXP", 50, 5).to_json(),
    "bench-64-3-s6": lambda: run_bench(64, 3, KINDS, "ADD-EXP", 50, 6).to_json(),
    # four kinds, one named twice, each fitted once over three run counts
    "bench-rate-s5": lambda: cli_stdout(
        "bench", "--d", "3", "--kinds", "noa3,lhs,tang,iid,lhs", "--integrand", "ADD-EXP",
        "--reps", "20", "--seed", "5", "--rate", "64,512,4096",
    ),
}

DIGESTS = {
    "bench-64-3-s5": "a94b3cc5d07aa7313f8041d97850eef8b4e479b39d02c8bb3f85c56ac6f14776",
    "bench-64-3-s6": "b31a09616c1cc2c476e78247e76bf33486fb877a21c7ab76912f7806830867b3",
    "bench-rate-s5": "f56de72677c4c0e254b07c0548597cd663ede4b7f74aad0b5548feb845e404e3",
    "estimate-noa3-131072-5": "95914549253b2023c1f43bf2a49ccdf43f609dfe4ed0a9c4338877ea2ad981ed",
    "expand-100000-100": "913d0e05921e61115fa10dc30d34c4317e82add74e29ecdac885a476d4d651a8",
    "expand-oa-4-2-3": "389fd3bcbfcfdf5e3ad22806f72c15c30222fab612a1ec5da7587c913e32ae9f",
    "lhs-16-3": "0cc6ce235c2ac47cc6a3b2326d52651f252c8a1f45d101d18a9d1182190b5ee3",
    "lhs-300-2": "3387ce5618dd27b876722ff2a25887aefda5e93bc597cef15feed5524afb3ae1",
    "noa3-256-4": "9ec23a1758c6f6b23fca14f7b569261b56195078e2c52c2f298af53e77fc1b69",
    "noa3-512-3": "db5ee04d7ab96750948f990b753c686b8d649db69a6e7308a564df3e75ac560a",
    "noa3-64-3": "dd6147135083662efeb6a6349fe5d58201035a014f4dcff21bd3588ace82b127",
    "noa3-131072-5": "ced656565ca6d23b89d6a174afcfcc4fb82b583793034ddf20369d5829d5d470",
    "oa-8-2-9": "93c2bb9c95212b09715b25e406282de7f5c075bf5a0356b01d2cfc907f33662d",
    "oa-9-2-4": "50bc7ce57b239afed5aacffe28e1936a4aa67ef101bc5a1bd4a22a902dae9db0",
    "points-lhs-300-2": "5da8ff2170953e2cf6fa0cba47415719eb3fec6c97ce0ca2067607af97aef252",
    "points-noa3-64-3": "9bd3ece67fef0fffaa77e4f098330dd9f2fb23773a5c04b39a3247dbc1ef7f2f",
    "points-noa3-131072-5": "8620ab7be82f1254c4f53775451400316bf3944f2f16990e63b46c46206428bf",
    "points-noa3-131072-5-mid": "df50b36bb7a6b4263a799c35dea8fe684ca052f3c05f12a159c96b48e171094e",
    "points-tang-64-3-mid": "5e87371721bf4fd8bccb1514c453eba450d2b349a083d020fe6a8f73819c0f9b",
    "tang-1024-5": "a8eb217410f4bd608fd1c82648c56d01758721cf92533a72b705d69b827040c8",
    "tang-131072-3": "95ba2d6573ca25651c53b448e7e353fbbea79f8e052767ca39cd733e0ddae618",
    "tang-64-3": "d33b4ef785eda07a7c32dc8b77c8691519ce967f958673cc72de3459802cfe03",
}


# the outputs past one block, where the process's CPU count picks one lane or two
TWO_LANE_OUTPUTS = [
    "expand-100000-100", "noa3-131072-5", "points-noa3-131072-5", "points-noa3-131072-5-mid",
    "tang-131072-3", "estimate-noa3-131072-5",
]


# the default lane count is 1 or 2, so the two-lane outputs are hashed below
@pytest.mark.parametrize("name", sorted(set(OUTPUTS) - set(TWO_LANE_OUTPUTS)))
def test_output_stream_is_pinned(name):
    assert hashlib.sha256(OUTPUTS[name]().encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", TWO_LANE_OUTPUTS)
def test_one_and_two_lanes_give_the_pinned_bytes(monkeypatch, name, cpus):
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    assert hashlib.sha256(OUTPUTS[name]().encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("cpus", [1, 2])
def test_unbalanced_later_column_names_the_same_level(monkeypatch, cpus):
    # 131072 rows at 64 levels, column 2 of 4 with level 52 once under and
    # level 54 once over: the expansion has drawn a later column's levels
    # (two lanes) or not (one) when it refuses column 2, with the same message
    monkeypatch.setattr(designs, "_cpus", lambda: cpus)
    mat = collapse(construct(plan("lhs", 131072, 4), 3), 64).matrix.copy()
    assert list(mat[:2, 2]) == [52, 54]
    mat[0, 2] = 54
    with pytest.raises(UnbalancedColumnError) as excinfo:
        expand_to_lhs(Design(mat, s=64), 1)
    assert str(excinfo.value) == "column 2: level 52 occurs 2047 times, expected 2048"
