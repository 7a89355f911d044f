"""Command-line front end: generate, verify, sample, and benchmark designs.

Exit codes: 0 success, 1 I/O or parse failure, 2 plan/construction error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

# verify needs only these; every other command imports its own modules, so
# a process loads what its command uses
from .designs import check_strength, collapse, load_design, save_design, verify_ladder
from .errors import DesignError, FormatError

EXIT_OK = 0
EXIT_IO = 1
EXIT_PLAN = 2
EXIT_VERIFY = 3

# matched in order: FormatError is a DesignError, so it must come first
_EXIT_CODES = {
    FormatError: EXIT_IO,
    OSError: EXIT_IO,
    DesignError: EXIT_PLAN,
    ValueError: EXIT_PLAN,
}


def _cmd_gen(args) -> int:
    from .bush import bush_construct, bush_ladder
    from .gf import field_of_order
    from .nested import construct, plan

    # bush takes --s, --t and --d, every other kind --n, --d and --seed
    foreign = ("n", "seed") if args.kind == "bush" else ("s", "t")
    given = [f"--{f}" for f in foreign if getattr(args, f) is not None]
    if given:
        raise ValueError(f"gen --kind {args.kind} does not take {', '.join(given)}")
    if args.kind == "bush":
        if args.s is None or args.t is None:
            raise ValueError("gen --kind bush requires --s and --t")
        d = args.s + 1 if args.d is None else args.d
        ladder = bush_ladder(args.s, args.t, d)  # checked before the field is built
        design = bush_construct(field_of_order(args.s), args.t, d)
        verify_ladder(design, ladder)
        extra = {}
    elif args.n is None or args.d is None:
        raise ValueError(f"gen --kind {args.kind} requires --n and --d")
    else:  # construct verifies the plan's ladder
        chosen, seed = plan(args.kind, args.n, args.d), args.seed or 0  # an absent seed is 0
        design, ladder = construct(chosen, seed), chosen.ladder
        extra = {"seed": str(seed)}
    if args.out:
        extra["ladder"] = ";".join(f"({lv},{t})" for lv, t in ladder)
        save_design(design, args.out, extra)
    print("  ".join(f"{lv},{t},{design.n // lv**t}" for lv, t in ladder))
    return EXIT_OK


def _cmd_verify(args) -> int:
    design, _meta = load_design(args.infile)
    if args.collapse is not None:
        design = collapse(design, args.collapse)
    report = check_strength(design, args.t)
    if report.ok:
        print(f"ok lambda={report.lam}")
        return EXIT_OK
    v = report.violation
    print(
        f"violation columns={v.columns} levels={v.levels} "
        f"observed={v.observed} expected={v.expected:g}"
    )
    return EXIT_VERIFY


def _cmd_sample(args) -> int:
    from .sampling import points_text, save_points, to_points

    if args.mode == "midpoint" and args.seed is not None:  # a midpoint draws nothing
        raise ValueError("sample --mode midpoint does not take --seed")
    design, _meta = load_design(args.infile)
    ps = to_points(design, args.mode, args.seed or 0)  # an absent seed is 0
    if args.out:
        save_points(ps, args.out)
    else:
        sys.stdout.writelines(points_text(ps))
    return EXIT_OK


def _cmd_bench(args) -> int:
    import json
    from contextlib import nullcontext
    from dataclasses import asdict

    from . import bench as bench_mod

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if args.rate is not None:
        if args.estimates_out:
            raise ValueError("bench --estimates-out cannot be used with --rate")
        fits = bench_mod.fit_rate(args.rate, args.d, kinds, args.integrand, args.reps, args.seed)
        print(json.dumps({kind: asdict(fit) for kind, fit in fits.items()}, indent=2))
        return EXIT_OK
    # bad inputs, then an unwritable estimates path, are refused before any
    # replication: run_bench checks the inputs too, but after the path is opened
    if args.estimates_out:
        bench_mod.check_inputs([args.n], args.d, kinds, args.reps, args.integrand, args.seed)
    with open(args.estimates_out, "w") if args.estimates_out else nullcontext() as fh:
        report = bench_mod.run_bench(args.n, args.d, kinds, args.integrand, args.reps, args.seed)
        print(report.to_json())
        if fh:
            fh.write(bench_mod.format_estimates_csv(report))
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, as --rate takes it."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Bad arguments raise ValueError, so main reports them as it reports every refusal."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a design and print its verified ladder")
    gen.add_argument("--kind", required=True, choices=["bush", "lhs", "tang", "noa3"])
    gen.add_argument("--n", type=int, help="runs (every kind but bush)")
    gen.add_argument("--d", type=int, help="factors (optional for bush)")
    gen.add_argument("--s", type=int, help="field order (bush only)")
    gen.add_argument("--t", type=int, help="strength (bush only)")
    gen.add_argument("--seed", type=int, help="draw seed (every kind but bush; default 0)")
    gen.add_argument("--out", help="design CSV output path")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="check the strength of a design file")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--t", type=int, required=True)
    verify.add_argument("--collapse", type=int, help="collapse to this many levels first")
    verify.set_defaults(func=_cmd_verify)

    sample = sub.add_parser("sample", help="turn a design file into points in [0,1)^d")
    sample.add_argument("--in", dest="infile", required=True)
    sample.add_argument("--mode", choices=["uniform", "midpoint"], default="uniform")
    sample.add_argument("--seed", type=int, help="jitter seed (uniform mode only; default 0)")
    sample.add_argument("--out", help="points CSV output path")
    sample.set_defaults(func=_cmd_sample)

    bench = sub.add_parser("bench", help="compare estimator variance across kinds")
    sizes = bench.add_mutually_exclusive_group(required=True)  # one run count, or a rate fit's
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--rate", type=_int_list, help="comma-separated n values for a rate fit")
    bench.add_argument("--d", type=int, required=True)
    bench.add_argument("--kinds", required=True, help="comma-separated design kinds")
    bench.add_argument("--integrand", required=True, help="integrand name, e.g. ADD-LIN")
    bench.add_argument("--reps", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--estimates-out", help="per-replication estimates CSV path")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        # one line, even for a message that quotes an argument holding a line break
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
