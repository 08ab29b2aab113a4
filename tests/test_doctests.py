import ast
import doctest
import functools
import importlib
import pathlib
import re
from collections import Counter

import pytest

import klimm
import klimm.exactmat
import klimm.grid
import klimm.immanant
import klimm.klpoly
import klimm.perm


@pytest.mark.parametrize("module", [
    klimm.perm, klimm.klpoly, klimm.grid, klimm.exactmat, klimm.immanant,
])
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so checks must raise explicitly.
    package = pathlib.Path(klimm.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []



# The per-cache state of KLCache besides its size: the store of whole
# rows of value classes, and the counters.
KL_CACHE_STATE = {"_rows", "hits", "misses"}


def test_only_klpoly_touches_the_kl_store_and_its_counters():
    # The store's layout and its hit policy are klpoly's alone, so a new
    # store changes one module.
    package = pathlib.Path(klimm.__file__).parent
    found = [f"{path.name}:{node.lineno}:{node.attr}"
             for path in sorted(package.rglob("*.py"))
             if path.name != "klpoly.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in KL_CACHE_STATE]
    assert found == []


def test_the_guarded_kl_state_is_all_a_cache_sets_up():
    # A new attribute of KLCache.__init__ must join KL_CACHE_STATE above,
    # so that the guard covers it too.
    tree = ast.parse(pathlib.Path(klimm.klpoly.__file__).read_text())
    init = next(node for cls in tree.body if isinstance(cls, ast.ClassDef)
                and cls.name == "KLCache" for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assigned = {target.attr for node in ast.walk(init)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Attribute)}
    assert assigned == KL_CACHE_STATE | {"n"}


def _stored_into(node):
    """What an assignment, deletion or mutating dict call writes into:
    each target with its subscripts stripped."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in {"update", "setdefault", "pop", "popitem",
                                 "clear"}):
        targets = [node.func.value]
    else:
        targets = []
    for target in targets:
        while isinstance(target, ast.Subscript):
            target = target.value
        yield target


def test_only_the_row_fill_and_load_write_kl_rows():
    # Each row is stored whole by one of two writers, so no other code in
    # klpoly may write into the store; __init__ only sets it up empty.
    tree = ast.parse(pathlib.Path(klimm.klpoly.__file__).read_text())
    writers = {scope.name for scope in ast.walk(tree)
               if isinstance(scope, ast.FunctionDef)
               for node in ast.walk(scope) for target in _stored_into(node)
               if isinstance(target, ast.Attribute)
               and target.attr == "_rows"}
    assert writers == {"__init__", "_fill_row", "load"}


# Functions and methods the package keeps without a caller of its own.
UNCALLED_BY_DESIGN = {
    "KLCache.stats": "perfbench/spans.py reads the cache counters with it",
}


def _definitions(tree):
    """(qualified name, def) for module functions and non-dunder methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _is_entry_point(name: str) -> bool:
    # CLI handlers and main are called from outside the package.
    return name == "main" or name.startswith("cmd_")


def test_every_package_function_has_a_caller_in_the_package():
    # A function only the tests call belongs in the tests.
    package = pathlib.Path(klimm.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.rglob("*.py"))
             if path.name != "__init__.py"}

    def references(node) -> Counter:
        return Counter(ref.id if isinstance(ref, ast.Name) else ref.attr
                       for ref in ast.walk(node)
                       if isinstance(ref, (ast.Name, ast.Attribute)))

    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    uncalled = [(name, qualname)
                for name, tree in trees.items()
                for qualname, node in _definitions(tree)
                if everywhere[node.name] == references(node)[node.name]
                and not _is_entry_point(node.name)]
    assert [f"{name}:{qualname}" for name, qualname in uncalled
            if qualname not in UNCALLED_BY_DESIGN] == []
    # A stale entry names something undefined, or something with a caller.
    assert sorted(UNCALLED_BY_DESIGN.keys()
                  - {qualname for _, qualname in uncalled}) == []


def test_every_module_name_the_readme_cites_exists():
    # A backticked `module.name` in README must resolve in that klimm
    # module, so a deleted or renamed function cannot stay cited.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    cited = set(re.findall(
        r"`(perm|klpoly|grid|exactmat|immanant|suites|cli)\.([A-Za-z_][\w.]*)",
        readme.read_text()))
    missing = []
    for module, dotted in sorted(cited):
        try:
            functools.reduce(getattr, dotted.split("."),
                             importlib.import_module(f"klimm.{module}"))
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert cited and missing == []
