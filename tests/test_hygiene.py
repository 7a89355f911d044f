"""Source rules checked on the syntax tree of every module in src/noa.

- no ``__debug__``: behaviour must not change under ``python -O``;
- no ``assert`` statement: ``-O`` strips it, so a check must raise;
- no bare ``except:`` and no ``except Exception``/``BaseException``: a
  handler names the errors it expects, so a programming error keeps its
  traceback.  No handler is exempt: ``designs.pipeline``'s executor hands
  a worker's error to the calling thread itself;
- no ``from .mod import _name``: another module's private helpers stay
  private, so the public names are the only coupling between modules;
- no import that the module never references (``__init__.py`` imports to
  re-export, so it is exempt);
- no ``functools.lru_cache``/``functools.cache`` except the one that makes
  ``gf._fields``, the bounded field cache behind ``gf.field_of_order``: a
  process-lifetime cache of arrays holds their memory until exit;
- no ``stream(...)`` call inside a ``for``/``while`` loop or a comprehension:
  a construction opens one generator and draws whole arrays from it, so a
  stream per copy or column (and its seeding cost) stays out of the loops;
- no name in ``noa.__all__`` that only its definition and the tests use:
  every public name is read somewhere in the package beyond its definition
  and ``__init__.py``, or by the benchmark in ``benchmarks/*.py``;
- no module-level import in ``cli.py`` beyond ``.designs``, ``.errors`` and
  the standard library, and none of a submodule in ``__init__.py``: each
  command and each public name imports its modules when first used, so a
  CLI process loads only what its command runs;
- no comparison with a design-kind name (``"lhs"``, ``"oa2"``, ``"tang"``,
  ``"noa3"``) outside ``nested.py``: ``nested.plan`` and ``nested._build``
  are the one dispatch on the kind, so it cannot grow back in ``bench`` or
  ``cli``;
- no ``prime_power(...)`` call outside ``gf.py`` and
  ``nested._prime_power_roots``: that search, capped at ``gf.MAX_ORDER``,
  is the one rule for which field orders a plan may use, so it cannot be
  derived a second time without the cap;
- no ``threading.Thread``, ``ThreadPoolExecutor`` (or
  ``ProcessPoolExecutor``) and no ``multiprocessing`` outside
  ``designs.py``: ``designs.pipeline`` is the package's one parallel code
  (the strength check, the level expansion and ``to_points`` call it), so
  threads and processes stay in one place;
- no ``default_rng`` or ``SeedSequence`` outside ``rng.py``: ``rng.stream``
  and ``rng.derive_seed`` are the one place a seed becomes a generator, so
  every seed is checked against [0, 2^64) and none is wrapped;
- no name of a harness shim (``plan_noa``, ``construct_noa``,
  ``construct_tang``, ``construct_lhs``, ``NestedDesign``) outside its own
  definition in ``nested.py`` and ``__init__.py``'s name table: the shims
  exist for ``benchmarks/`` alone, so no module comes to rely on them and
  their removal stays a pure deletion;
- no ``STAGE_DESIGN`` outside ``rng.py``, ``nested.construct`` and
  ``nested.expand_to_lhs`` (and ``nested.py``'s import of it): those two are
  the one place a design's generator is opened, so a second construction
  door, with a stream of its own, cannot grow back;
- no import of ``scipy``: numpy is the package's one dependency, and scipy,
  declared in the ``test`` extra alone, is an oracle for the tests
  (``tests/test_scipy_oracle.py``) whose worth is that noa never runs it.
"""

import ast
import sys
from pathlib import Path

import pytest

import noa

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "noa").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


CLI_MODULES = {"designs", "errors"}
CACHES = {"lru_cache", "cache"}
BROAD = {"Exception", "BaseException"}
KIND_NAMES = {"lhs", "oa2", "tang", "noa3"}
EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
SEEDERS = {"default_rng", "SeedSequence"}
SHIMS = {"plan_noa", "construct_noa", "construct_tang", "construct_lhs", "NestedDesign"}
DESIGN_DOORS = {"construct", "expand_to_lhs"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def problems(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id == "__debug__":
            yield f"{where}: __debug__"
        elif isinstance(node, ast.Assert):
            yield f"{where}: assert statement"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None:
                yield f"{where}: bare except"
            for name in caught:
                if isinstance(name, ast.Name) and name.id in BROAD:
                    yield f"{where}: except {name.id}"
        elif isinstance(node, ast.ImportFrom):
            if not (node.level or (node.module or "").startswith("noa")):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{where}: imports private {node.module}.{alias.name}"
    yield from unused_imports(path, tree)
    yield from caches(path, tree)
    yield from streams_in_loops(path, tree)
    yield from eager_imports(path, tree)
    yield from kind_comparisons(path, tree)
    yield from prime_power_calls(path, tree)
    yield from parallelism(path, tree)
    yield from seeders(path, tree)
    yield from harness_shims(path, tree)
    yield from design_streams(path, tree)
    yield from scipy_imports(path, tree)


def unused_imports(path, tree):
    if path.name == "__init__.py":
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield f"{path.name}:{node.lineno}: unused import {name}"


def caches(path, tree):
    """Every use of a functools cache other than in the value assigned to gf._fields."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }
    allowed = set()
    for node in ast.walk(tree):
        if (path.name == "gf.py" and isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["_fields"]):
            allowed.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            yield f"{path.name}:{node.lineno}: cache outside gf._fields"


def streams_in_loops(path, tree):
    """Every call of a function named ``stream`` lexically inside a loop or comprehension."""
    calls = {
        node
        for loop in ast.walk(tree)
        if isinstance(loop, LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "stream"
    }
    for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset)):
        yield f"{path.name}:{node.lineno}: stream call in a loop"


def module_level_imports(node):
    """The import statements run when the module is imported: those outside every function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from module_level_imports(child)


def eager_imports(path, tree):
    """cli.py's module-level imports past .designs, .errors and the stdlib; __init__.py's of noa."""
    if path.name not in ("cli.py", "__init__.py"):
        return
    for node in module_level_imports(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level:
            names = ["." + (node.module or alias.name) for alias in node.names]
        else:
            names = [node.module]
        for name in dict.fromkeys(names):
            top = name.split(".")[0]
            if path.name == "cli.py":
                allowed = name[1:] in CLI_MODULES if top == "" else top in sys.stdlib_module_names
            else:
                allowed = top not in ("", "noa")
            if not allowed:
                yield f"{path.name}:{node.lineno}: module-level import of {name}"


def kind_comparisons(path, tree):
    """Every design-kind name compared with, in a module other than nested.py."""
    if path.name == "nested.py":
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            for const in ast.walk(operand):
                if isinstance(const, ast.Constant) and const.value in KIND_NAMES:
                    yield f"{path.name}:{node.lineno}: compares with kind {const.value!r}"


def prime_power_calls(path, tree):
    """Every prime_power call outside gf.py and nested._prime_power_roots."""
    if path.name == "gf.py":
        return
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if path.name == "nested.py"
        and isinstance(func, ast.FunctionDef)
        and func.name == "_prime_power_roots"
        for node in ast.walk(func)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "prime_power"
            and id(node) not in allowed
        ):
            yield f"{path.name}:{node.lineno}: prime_power call outside nested._prime_power_roots"


def parallelism(path, tree):
    """Every thread, executor or multiprocessing use in a module other than designs.py."""
    if path.name == "designs.py":
        return

    def parallel(name):
        parts = name.split(".")
        return parts[0] == "multiprocessing" or name == "threading.Thread" or parts[-1] in EXECUTORS

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [f".{node.id}"]
        else:
            continue
        for name in filter(parallel, names):
            yield f"{path.name}:{node.lineno}: {name.lstrip('.')} outside designs.py"


def seeders(path, tree):
    """Every default_rng or SeedSequence named, imported or looked up outside rng.py."""
    if path.name == "rng.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        else:
            continue
        if name in SEEDERS:
            yield f"{path.name}:{node.lineno}: {name} outside rng.py"


def harness_shims(path, tree):
    """Every shim named outside its definition in nested.py and __init__.py's name table."""

    def home(node):
        if path.name == "nested.py":
            return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SHIMS
        return path.name == "__init__.py" and isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "_MODULE_NAMES" for target in node.targets
        )

    allowed = {id(node) for outer in ast.walk(tree) if home(outer) for node in ast.walk(outer)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Constant):
            names = [node.value]
        else:
            continue
        if id(node) not in allowed:
            found += [(node.lineno, node.col_offset, name) for name in names if name in SHIMS]
    for lineno, _, name in sorted(found):
        yield f"{path.name}:{lineno}: names harness shim {name}"


def design_streams(path, tree):
    """Every STAGE_DESIGN named outside rng.py, nested.py's imports and nested's two doors."""
    if path.name == "rng.py":
        return

    def home(node):
        if isinstance(node, ast.FunctionDef):
            return node.name in DESIGN_DOORS
        return isinstance(node, ast.ImportFrom)

    allowed = {
        id(node)
        for outer in ast.walk(tree)
        if path.name == "nested.py" and home(outer)
        for node in ast.walk(outer)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == "STAGE_DESIGN" and id(node) not in allowed:
            found.append((node.lineno, node.col_offset))
    for lineno, _ in sorted(found):
        yield f"{path.name}:{lineno}: STAGE_DESIGN outside nested.construct and expand_to_lhs"


def scipy_imports(path, tree):
    """Every import of scipy or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "scipy":
                yield f"{path.name}:{node.lineno}: imports {module}"


def unused_exports(exports, paths):
    """The exported names that no module in paths reads, imports or looks up."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [name for name in exports if name not in used]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "gf.py", "nested.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_hygiene(path):
    assert list(problems(path)) == []


def test_all_holds_only_used_names():
    users = [p for p in SOURCES if p.name != "__init__.py"] + BENCHMARKS
    assert BENCHMARKS
    assert unused_exports(noa.__all__, users) == []


def test_all_rule_catches_test_only_names(tmp_path):
    # a definition is not a use, and neither is a store to the same name
    lib = tmp_path / "designs.py"
    lib.write_text(
        "KINDS = ('a',)\n"
        "def replicate(design, k):\n"
        "    return design\n"
        "def collapse(design, s):\n"
        "    return design.matrix\n"
    )
    bench = tmp_path / "run.py"
    bench.write_text("from noa import collapse as shrink\n")
    exports = ["KINDS", "replicate", "collapse", "matrix"]
    assert unused_exports(exports, [lib]) == ["KINDS", "replicate", "collapse"]
    assert unused_exports(exports, [lib, bench]) == ["KINDS", "replicate"]


def test_rules_catch_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .nested import _oa, construct\n"
        "from noa.rng import _seed_sequence\n"
        "if __debug__:\n"
        "    assert construct\n"
        "try:\n"
        "    construct()\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    construct()\n"
        "except (ValueError, Exception):\n"
        "    pass\n"
        "except BaseException:\n"
        "    pass\n"
        "rng = stream(0, 1)\n"
        "for j in range(3):\n"
        "    while rng:\n"
        "        rng = stream(0, j)\n"
        "gens = [rng.stream(j) for j in range(3)]\n"
        "if kind == 'tang' or kind in ('iid', 'noa3') or kind != 'bush':\n"
        "    pass\n"
        "s = math.isqrt(n) if gf.prime_power(n) else prime_power(n)\n"
        "import multiprocessing.pool\n"
        "from threading import Lock, Thread\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "helpers = [Thread(target=construct), threading.Thread(target=Lock)]\n"
        "pool = multiprocessing.Pool(2) or ThreadPoolExecutor(2)\n"
        "with futures.ProcessPoolExecutor() as ex:\n"
        "    ex.map(construct, [])\n"
        "class _Helper:\n"
        "    def run(self):\n"
        "        try:\n"
        "            construct()\n"
        "        except BaseException as error:\n"
        "            self.error = error\n"
        "from numpy.random import SeedSequence as Seeds\n"
        "gen = np.random.default_rng(Seeds([0, 1]))\n"
        "design = noa.construct_noa(plan_noa(64, 3), 0).design\n"
        "from .rng import STAGE_DESIGN as DESIGN\n"
        "oa = _build(plan, stream(seed, DESIGN or noa.rng.STAGE_DESIGN))\n"
        "import scipy.stats as st, numpy\n"
        "from scipy.stats import qmc\n"
        "points = qmc.LatinHypercube(3).random(8) + st.norm.ppf(0.5) + numpy.pi\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(bad)] == [
        "imports private nested._oa",
        "imports private noa.rng._seed_sequence",
        "__debug__",
        "assert statement",
        "bare except",
        "except Exception",
        "except BaseException",
        "except BaseException",
        "unused import _oa",
        "unused import _seed_sequence",
        "stream call in a loop",
        "stream call in a loop",
        "compares with kind 'tang'",
        "compares with kind 'noa3'",
        "prime_power call outside nested._prime_power_roots",
        "prime_power call outside nested._prime_power_roots",
        "multiprocessing.pool outside designs.py",
        "threading.Thread outside designs.py",
        "concurrent.futures.ThreadPoolExecutor outside designs.py",
        "threading.Thread outside designs.py",
        "multiprocessing.Pool outside designs.py",
        "ThreadPoolExecutor outside designs.py",
        "futures.ProcessPoolExecutor outside designs.py",
        "SeedSequence outside rng.py",
        "default_rng outside rng.py",
        "names harness shim construct_noa",
        "names harness shim plan_noa",
        "STAGE_DESIGN outside nested.construct and expand_to_lhs",
        "STAGE_DESIGN outside nested.construct and expand_to_lhs",
        "imports scipy.stats",
        "imports scipy.stats",
    ]
    # no function or class of designs.py may keep a BaseException, whatever
    # its name
    designs = tmp_path / "designs.py"
    designs.write_text(
        "def _helper_lane(count, produce, stop, box, ready, taken):\n"
        "    try:\n"
        "        box.append((produce(0, stop), None))\n"
        "    except BaseException as error:\n"
        "        box.append((None, error))\n"
        "class _Helper(threading.Thread):\n"
        "    def run(self):\n"
        "        try:\n"
        "            self.failed = check()\n"
        "        except BaseException as error:\n"
        "            self.error = error\n"
        "    def join(self):\n"
        "        try:\n"
        "            check()\n"
        "        except BaseException:\n"
        "            pass\n"
        "def run():\n"
        "    try:\n"
        "        check()\n"
        "    except (BaseException, Exception):\n"
        "        pass\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(designs)] == [
        "except BaseException",  # _helper_lane
        "except BaseException",
        "except Exception",
        "except BaseException",  # _Helper.run
        "except BaseException",
    ]
    # the one field-order search may call it, and so may gf.py, its home
    nested = tmp_path / "nested.py"
    nested.write_text(
        "def _prime_power_roots(n, k):\n"
        "    return [q for q in range(2, n) if prime_power(q)]\n"
        "def plan(n):\n"
        "    return prime_power(n)\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(nested)] == [
        "prime_power call outside nested._prime_power_roots",
    ]
    gf = tmp_path / "gf.py"
    gf.write_text("class FieldSpec:\n    def __init__(self, s):\n        self.pm = prime_power(s)\n")
    assert list(problems(gf)) == []
    # a seed becomes a generator in rng.py alone
    rng = tmp_path / "rng.py"
    rng.write_text(
        "import numpy as np\n"
        "def stream(seed):\n"
        "    return np.random.default_rng(np.random.SeedSequence([seed]))\n"
    )
    assert list(problems(rng)) == []
    # only what every command needs is imported with the CLI module
    cli = tmp_path / "cli.py"
    cli.write_text(
        "import argparse, json\n"
        "import numpy as np\n"
        "from . import bench\n"
        "from .designs import Design\n"
        "from .nested import plan\n"
        "from noa.gf import field_of_order\n"
        "if np:\n"
        "    from .sampling import to_points\n"
        "def gen():\n"
        "    from .nested import construct\n"
        "    return argparse, json, bench, Design, plan, field_of_order, to_points, construct\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(cli)] == [
        "module-level import of numpy",
        "module-level import of .bench",
        "module-level import of .nested",
        "module-level import of noa.gf",
        "module-level import of .sampling",
    ]
    # the package imports a submodule only when one of its names is first used
    init = tmp_path / "__init__.py"
    init.write_text(
        "import importlib\n"
        "from .bench import run_bench\n"
        "from . import nested\n"
        "import noa.gf\n"
        "def __getattr__(name):\n"
        "    from .designs import Design\n"
        "    return importlib.import_module('.gf', __name__), Design\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(init)] == [
        "module-level import of .bench",
        "module-level import of .nested",
        "module-level import of noa.gf",
    ]
    # a harness shim is named in its own definition and the name table, nowhere else
    nested.write_text(
        "class NestedDesign:\n"
        "    design = None\n"
        "def construct_noa(plan, seed):\n"
        "    return NestedDesign(construct(plan, seed), plan.ladder)\n"
        "def build(plan, seed):\n"
        "    return construct_noa(plan, seed).design\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(nested)] == [
        "names harness shim construct_noa",
    ]
    init.write_text(
        "_MODULE_NAMES = {'nested': ('construct', 'construct_lhs', 'plan_noa')}\n"
        "_HARNESS = ('construct_tang',)\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(init)] == [
        "names harness shim construct_tang",
    ]
    # a design's generator is opened by construct and expand_to_lhs alone:
    # a second door with a stream of its own is refused
    nested.write_text(
        "from .rng import STAGE_DESIGN, stream\n"
        "def construct(plan, seed):\n"
        "    return _build(plan, stream(seed, STAGE_DESIGN))\n"
        "def expand_to_lhs(design, seed):\n"
        "    return _expand(design, stream(seed, STAGE_DESIGN))\n"
        "def construct_oa(s, t, d, seed):\n"
        "    return _stack(_oa(s, t, d, stream(seed, STAGE_DESIGN)))\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(nested)] == [
        "STAGE_DESIGN outside nested.construct and expand_to_lhs",
    ]
    rng.write_text("STAGE_DESIGN = 1\n")
    assert list(problems(rng)) == []


def test_rules_catch_unused_imports_and_caches(tmp_path):
    # the shape of a module-level array cache: a cached builder plus the
    # import it no longer needs
    bad = tmp_path / "bush.py"
    bad.write_text(
        "import functools\n"
        "from functools import lru_cache as memo\n"
        "import numpy as np\n"
        "from .designs import Design, check_strength\n"
        "@memo(maxsize=None)\n"
        "def _cached(s):\n"
        "    return check_strength\n"
        "keep = functools.cache(_cached)\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(bad)] == [
        "unused import np",
        "unused import Design",
        "cache outside gf._fields",
        "cache outside gf._fields",
    ]
    allowed = tmp_path / "gf.py"
    allowed.write_text(
        "from functools import lru_cache\n"
        "_fields = lru_cache(maxsize=8)(FieldSpec)\n"
        "def field_of_order(s):\n"
        "    return _fields(s)\n"
    )
    assert list(problems(allowed)) == []
    # the one home is that assignment in gf.py: not a decorator there, and
    # not an assignment to the same name in another module
    allowed.write_text(
        "from functools import lru_cache\n"
        "_fields = lru_cache(maxsize=8)(FieldSpec)\n"
        "@lru_cache(maxsize=None)\n"
        "def field_of_order(s):\n"
        "    return _fields(s)\n"
    )
    assert [p.split(": ", 1)[1] for p in problems(allowed)] == ["cache outside gf._fields"]
    elsewhere = tmp_path / "bush.py"
    elsewhere.write_text("from functools import lru_cache\n_fields = lru_cache(maxsize=8)(int)\n")
    assert [p.split(": ", 1)[1] for p in problems(elsewhere)] == ["cache outside gf._fields"]
