"""Each term of the row-0 Taylor recurrence of taylor_gcds, broken on
purpose in a copy of the package, must fail tests/test_radius.py."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")

# name -> (text in frobtransfer.py, its broken replacement)
MUTATIONS = {
    "starts_from_last_row": ("b = [[int(c == 0)]", "b = [[int(c == n - 1)]"),
    "drops_shift": ("zip(s, b[c - 1])", "zip(s, [0] * trunc)"),
    "drops_damping": ("damp = [-j * c for c in lead_step]",
                      "damp = [0 * c for c in lead_step]"),
}
FILES = ("test_radius.py", "conftest.py")


def test_unmutated_copy_passes(tmp_path):
    result = run_mutated(tmp_path, FILES)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_radius_tests(name, tmp_path):
    old, new = MUTATIONS[name]
    result = run_mutated(tmp_path, FILES, (TARGET, old, new))
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
