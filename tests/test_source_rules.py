from __future__ import annotations

import ast
from pathlib import Path

import coxstrata

PACKAGE = Path(coxstrata.__file__).parent


def test_no_safety_check_relies_on_assert():
    # `python -O` strips assert statements, so a check that must hold at
    # run time raises instead.
    offending = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offending.append(f"{path.name}:{node.lineno}: assert {ast.unparse(node.test)}")
    assert offending == []


def test_no_module_imports_a_private_walk_helper():
    # Other modules reach the one W-orbit engine through flats.walk_level,
    # flats.walk, flats.key_masks, IntersectionLattice.level and the fields
    # of the flats.Level records they return; weyl.orbit_types types them.
    offending = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("flats", "weyl"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                offending += [f"{path.name}:{node.lineno}: {name}" for name in private]
    assert offending == []


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
