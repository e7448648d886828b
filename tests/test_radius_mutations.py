"""Each term of the fused row-0 Taylor pass behind taylor_gcds
(frobtransfer._first_rows), broken on purpose in a copy of the package,
must fail tests/test_radius.py."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")

# name -> (text in frobtransfer.py, its broken replacement)
MUTATIONS = {
    "starts_from_last_row": ("b = [[int(c == 0)]", "b = [[int(c == n - 1)]"),
    "drops_shift": ("prev = b[c - 1] if c else zero", "prev = zero"),
    "drops_damping": ("count(-j * (d + 1))", "count(0)"),
    "drops_last_column": ("o + pn * (i * x + y) - pc * z", "o + pn * (i * x + y)"),
    "delta_weight_k": ("count(-j * (d + 1))", "count(d - j * (d + 1))"),
}
FILES = ("test_radius.py", "conftest.py", "series_oracles.py")


def test_unmutated_copy_passes(tmp_path):
    result = run_mutated(tmp_path, FILES)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_radius_tests(name, tmp_path):
    old, new = MUTATIONS[name]
    result = run_mutated(tmp_path, FILES, (TARGET, old, new))
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
