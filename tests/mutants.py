"""Run tests against a copy of the package in which one piece of text is
replaced: a mutation check that the tests notice a broken formula."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_mutated(root: Path, test_files, mutation=None,
                select=None) -> subprocess.CompletedProcess:
    """Copy src/, data/, pyproject.toml and the named files and folders of
    tests/ under root, apply the mutation (target, old, new) by replacing
    the text `old` in the file `target`, a path relative to the repository,
    with `new`, and run pytest there on the first test file, restricted by
    `-k select` when given, stopping at the first failure.  Hypothesis does
    not shrink there (the `mutants` profile of conftest.py, which
    test_files must include)."""
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(REPO / "data", root / "data")
    (root / "tests").mkdir()
    for name in test_files:
        source = REPO / "tests" / name
        (shutil.copytree if source.is_dir() else shutil.copy)(source, root / "tests" / name)
    shutil.copy(REPO / "pyproject.toml", root / "pyproject.toml")
    if mutation is not None:
        target, old, new = mutation
        path = root / target
        text = path.read_text()
        assert text.count(old) == 1, f"mutation target {old!r} is not unique in {target}"
        path.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--tb=line", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants",
         f"tests/{test_files[0]}", *(["-k", select] if select else [])],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={"PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin:/bin"},
    )
