"""The integer product kernels and the Newton inverses, each broken on
purpose in a copy of the package, must fail their oracle tests in
tests/test_series.py."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/series.py")
MUL = "schoolbook or unequal_heights"
INVERT = "matches_recurrence"
MATMUL = "matmul or sum_of_products"
MATINV = "matinv"

# name -> (text in series.py, its broken replacement, tests that must fail)
MUTATIONS = {
    "mul_drops_right_denominator": ("d = da * db", "d = da", MUL),
    "mul_scales_both_over_left_lcm": (
        "b, db = _numerators(other.coeffs[:n])",
        "b, db = [c.numerator * (da // c.denominator) for c in other.coeffs[:n]], da",
        MUL),
    "invert_skips_first_newton_step": ("b = (_F1 / self.coeffs[0],)",
                                       "b = (_F1 / self.coeffs[0], _F0)[:n]", INVERT),
    "matmul_drops_term_scale": ("scale = den // de", "scale = 1", MATMUL),
    "matmul_uses_left_lcm_for_both": ("(xk, xv, d * e, yk, yv)", "(xk, xv, d * d, yk, yv)",
                                      MATMUL),
    "matinv_skips_first_newton_step": (
        "invert_constant_matrix(self.constant_matrix()), 1)",
        "invert_constant_matrix(self.constant_matrix()), min(2, trunc))", MATINV),
}


def run_series_tests(root: Path, mutation=None):
    files = ("test_series.py", "conftest.py")
    if mutation is None:
        return run_mutated(root, files, select=f"{MUL} or {INVERT} or {MATMUL} or {MATINV}")
    old, new, tests = mutation
    return run_mutated(root, files, (TARGET, old, new), tests)


def test_unmutated_copy_passes(tmp_path):
    result = run_series_tests(tmp_path)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_series_oracles(name, tmp_path):
    result = run_series_tests(tmp_path, MUTATIONS[name])
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
