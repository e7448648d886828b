"""The library states its invariants with checks that raise, never with
`assert`, which `python -O` strips (an invariant check must not vanish)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mumkit"


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
