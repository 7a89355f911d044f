"""Source rules checked on the syntax tree of every module in src/noa.

- no ``__debug__``: behaviour must not change under ``python -O``;
- no ``assert`` statement: ``-O`` strips it, so a check must raise;
- no ``from .mod import _name``: another module's private helpers stay
  private, so the public names are the only coupling between modules.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "noa").glob("*.py"))


def problems(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id == "__debug__":
            yield f"{where}: __debug__"
        elif isinstance(node, ast.Assert):
            yield f"{where}: assert statement"
        elif isinstance(node, ast.ImportFrom):
            if not (node.level or (node.module or "").startswith("noa")):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{where}: imports private {node.module}.{alias.name}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "gf.py", "nested.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_hygiene(path):
    assert list(problems(path)) == []


def test_rules_catch_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .nested import _oa, construct_oa\n"
        "from noa.gf import _poly_divmod\n"
        "if __debug__:\n"
        "    assert construct_oa\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(bad)] == [
        "imports private nested._oa",
        "imports private noa.gf._poly_divmod",
        "__debug__",
        "assert statement",
    ]
