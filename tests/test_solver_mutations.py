"""The congruence solver of the Frobenius fit, broken on purpose in a copy
of the package, must fail its brute-force test in
tests/test_frobenius_constant.py."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")
FILES = ("test_frobenius_constant.py", "conftest.py")
SELECT = "brute_force"

# name -> (text in frobtransfer.py, its broken replacement)
MUTATIONS = {
    # the lowest free column with a nonzero entry, then its least valuation:
    # the pivot need not divide the rest of its row
    "column_pivoting": ("v, c, r = min(nonzero)",
                        "v, c, r = min(nonzero, key=lambda t: (t[1], t[0]))"),
    "skips_leftover_rows": ("if any(row[-1] for row in a):", "if False:"),
    "skips_pivot_divisibility": ("if row[-1] % p**v:", "if False:"),
}


def test_unmutated_copy_passes(tmp_path):
    result = run_mutated(tmp_path, FILES, select=SELECT)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_brute_force_test(name, tmp_path):
    old, new = MUTATIONS[name]
    result = run_mutated(tmp_path, FILES, (TARGET, old, new), SELECT)
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
