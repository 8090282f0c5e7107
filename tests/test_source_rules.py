from __future__ import annotations

import ast
from pathlib import Path

import coxstrata

PACKAGE = Path(coxstrata.__file__).parent


def _is_none_narrowing(test: ast.expr) -> bool:
    """`x is not None`, or several of them joined by `and`."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_is_none_narrowing(v) for v in test.values)
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and [type(op) for op in test.ops] == [ast.IsNot]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def test_no_safety_check_relies_on_assert():
    # `python -O` strips assert statements, so a check that must hold at
    # run time raises instead.  Only the pool worker's type narrowing in
    # flats.py stays.
    offending = []
    narrowings = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Assert):
                continue
            if path.name == "flats.py" and _is_none_narrowing(node.test):
                narrowings += 1
            else:
                offending.append(f"{path.name}:{node.lineno}: assert {ast.unparse(node.test)}")
    assert offending == []
    assert narrowings == 1


def test_no_module_reads_the_environment():
    # The arguments are the package's only configuration.
    names = {"environ", "environb", "getenv"}
    offending = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                hit = isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in names
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(a.name in names for a in node.names)
            else:
                hit = False
            if hit:
                offending.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offending == []
