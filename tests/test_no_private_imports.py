"""The library modules and the scripts import only public mumkit names: a
private name (`_x`) is one module's detail, and a caller that needs it
needs a public entry point instead.  And every private name a library
module defines at its top level is read somewhere in the library."""

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


def module_private_names(tree):
    """The underscore-prefixed names, other than dunders, that a module
    defines at its top level: functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_every_private_library_name_is_used():
    # a private helper that nothing reads, such as one left behind when its
    # last caller was removed, is dead code
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((REPO / "src" / "mumkit").glob("*.py"))]
    assert trees
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = sorted(set().union(*map(module_private_names, trees)) - read)
    assert not unused, f"private mumkit names never read: {unused}"
