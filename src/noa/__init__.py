"""Nested orthogonal array designs.

Construction, exact strength verification, randomized sampling into the
unit cube, and Monte Carlo variance benchmarks for nested orthogonal
arrays, Latin hypercubes, and Bush orthogonal arrays.
"""

from .bench import (
    BenchReport,
    Integrand,
    KINDS,
    RateFit,
    estimate,
    fit_rate,
    make_integrand,
    run_bench,
)
from .bush import bush_construct
from .designs import (
    Design,
    StrengthReport,
    Violation,
    check_strength,
    collapse,
    load_design,
    parse_design,
    save_design,
)
from .gf import FieldSpec, field_new, field_of_order, is_prime, prime_power
from .nested import (
    NestedDesign,
    NoaPlan,
    construct_lhs,
    construct_noa,
    construct_oa,
    construct_tang,
    expand_to_lhs,
    plan_noa,
)
from .sampling import PointSet, load_points, parse_points, save_points, to_points

__all__ = [
    "BenchReport",
    "Design",
    "FieldSpec",
    "Integrand",
    "KINDS",
    "NestedDesign",
    "NoaPlan",
    "PointSet",
    "RateFit",
    "StrengthReport",
    "Violation",
    "bush_construct",
    "check_strength",
    "collapse",
    "construct_lhs",
    "construct_noa",
    "construct_oa",
    "construct_tang",
    "estimate",
    "expand_to_lhs",
    "field_new",
    "field_of_order",
    "fit_rate",
    "is_prime",
    "load_design",
    "load_points",
    "make_integrand",
    "parse_design",
    "parse_points",
    "plan_noa",
    "prime_power",
    "run_bench",
    "save_design",
    "save_points",
    "to_points",
]
