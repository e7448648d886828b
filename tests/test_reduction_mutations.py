"""reduction_congruence_check reads f_1 .. f_{q-1}, q = p^m.  Read at p
instead of q, or one coefficient short, it must fail the check reduction
golden reports whose verdicts are false."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")
FILES = ("test_golden.py", "conftest.py", "golden")

# name -> (text in frobtransfer.py, its broken replacement)
MUTATIONS = {
    "q_is_p": ("q = p**m\n    if q >= f.trunc:", "q = p\n    if q >= f.trunc:"),
    "reads_one_coefficient_short": (".truncate(q).valuation_profile(p)",
                                    ".truncate(q - 1).valuation_profile(p)"),
}


def test_unmutated_copy_passes(tmp_path):
    result = run_mutated(tmp_path, FILES, select="reduction")
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_reduction_goldens(name, tmp_path):
    old, new = MUTATIONS[name]
    result = run_mutated(tmp_path, FILES, (TARGET, old, new), "reduction")
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
