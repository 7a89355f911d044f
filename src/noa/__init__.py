"""Nested orthogonal array designs.

Construction, exact strength verification, randomized sampling into the
unit cube, and Monte Carlo variance benchmarks for nested orthogonal
arrays, Latin hypercubes, and Bush orthogonal arrays.

Each public name is imported from its module on first access (PEP 562), so
``import noa`` alone loads none of them and a process pays only for the
modules it uses.
"""

import importlib

_MODULE_NAMES = {
    "bench": (
        "BenchReport", "Integrand", "KINDS", "RateFit", "estimate", "fit_rate",
        "make_integrand", "run_bench",
    ),
    "bush": ("bush_construct",),
    "designs": (
        "Design", "StrengthReport", "Violation", "check_strength", "collapse", "load_design",
        "parse_design", "save_design",
    ),
    "gf": ("FieldSpec", "field_of_order", "prime_power"),
    "nested": (
        "Plan", "construct", "construct_lhs", "construct_noa", "construct_tang", "expand_to_lhs",
        "plan", "plan_noa",
    ),
    "sampling": ("PointSet", "load_points", "parse_points", "save_points", "to_points"),
}
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
