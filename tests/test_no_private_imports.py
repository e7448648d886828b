"""The library modules and the scripts import only public mumkit names: a
private name (`_x`) is one module's detail, and a caller that needs it
needs a public entry point instead."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def private_imports(path):
    """`module:line name` for each underscore-prefixed name, other than a
    dunder such as `__version__`, imported from a mumkit module, relative
    (`from .x import _y`) or absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "mumkit" and not module.startswith("mumkit."):
            continue
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_library_and_scripts_import_no_private_mumkit_names():
    paths = sorted((REPO / "src" / "mumkit").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in private_imports(path)]
    assert not found, f"private mumkit names imported: {found}"
