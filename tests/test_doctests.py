import ast
import doctest
import pathlib

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
