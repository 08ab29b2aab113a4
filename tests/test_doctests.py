import ast
import doctest
import pathlib
from collections import Counter

import pytest

import klimm
import klimm.exactmat
import klimm.grid
import klimm.klpoly
import klimm.perm


@pytest.mark.parametrize("module", [
    klimm.perm, klimm.klpoly, klimm.grid, klimm.exactmat,
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
