"""The integer kernels (the reduced numerators-over-denominator form of a
series, the integer rows of a series matrix, sums, the series product and
the plain matrix product over it, valuations, the order-by-order right
division by a series matrix, the recurrence behind divide, exp and log,
the Frobenius recurrence and its Horner table, the rows of the uniform
part, the residual of verify_solution and the ladder of squares behind
vp_int), each broken on purpose in a copy of the package, must fail their
oracle tests in tests/test_series.py, tests/test_solve.py or
tests/test_primes.py."""

from pathlib import Path

import pytest

from mutants import run_mutated

SERIES = (Path("src/mumkit/series.py"), "test_series.py")
SOLVE = (Path("src/mumkit/solve.py"), "test_solve.py")
PRIMES = (Path("src/mumkit/primes.py"), "test_primes.py")
MUL = "schoolbook or unequal_heights"
DIVIDE = "divide_matches or invert_matches"
MATMUL = "matmul or sparse_times_dense"
MATINV = "matinv or right_divide"
PROFILE = "valuation_profile"
EXP = "exp_matches_recurrence or exp_log_match"
LOG = "log_matches_recurrence or exp_log_match"
FROBENIUS = "frobenius_matches_recurrence"
FORM = "stay_reduced or eq_and_hash"
ROWS = "unreduced_rows"
UNIFORM = "uniform_part"
VERIFY = "verify_solution"
VP = "vp_int_matches_the_division_loop"
ORACLES = {SERIES: f"{MUL} or {DIVIDE} or {MATMUL} or {MATINV} or {EXP} or {LOG} or {FORM}"
                  f" or {PROFILE} or {ROWS}",
           SOLVE: f"{FROBENIUS} or {UNIFORM} or {VERIFY}", PRIMES: VP}

# divide, exp and log share this line of the recurrence
KEEP_NUMERATORS = "v, nums = _over_lcm(nums, v, xk.denominator)"
KEPT_NUMERATORS = "v = _over_lcm(nums, v, xk.denominator)[0]"

# name -> (target file and its test file, text in the target, its broken
# replacement, tests that must fail)
MUTATIONS = {
    # a series product is _dot's convolution over the product d e of the two
    # denominators: taken over d alone, or over d d
    "mul_drops_right_denominator": (SERIES, "self.den * other.den", "self.den", MUL),
    "mul_scales_both_over_left_lcm": (SERIES, "self.den * other.den", "self.den * self.den", MUL),
    "skips_the_reduction": (SERIES, "        if g != 1:\n            for x in nums:",
                            "        if False:\n            for x in nums:", FORM),
    "valuation_drops_den": (SERIES, "v = vp_int(x, p) - vd", "v = vp_int(x, p)", FORM),
    "add_swaps_the_scales": (SERIES, "sa, sb = db // g, sign * (da // g)",
                             "sa, sb = da // g, sign * (db // g)", FORM),
    # the same fault in the sum of two matrices' integer rows
    "matrix_add_swaps_the_scales": (SERIES, "fa, fb = db // g, sign * (da // g)",
                                    "fa, fb = da // g, sign * (db // g)", ROWS),
    # a matrix built from entries, as a product is, has each row over the
    # lcm of its entries' denominators: an entry left over its own
    "matrix_row_keeps_entry_numerators": (
        SERIES, "e.nums if e.den == den else tuple(x * (den // e.den) for x in e.nums)", "e.nums",
        ROWS),
    "divide_drops_dividend_lcm": (
        SERIES, "Fraction(dr * acc + dw * rk * v, dr * dw * v * lead[k])",
        "Fraction(acc + dw * rk * v, dw * v * lead[k])", DIVIDE),
    # the plain product's entry (i, j), sum_k A[i][k] B[k][j]: the term of
    # k = 0 dropped, or B's rows taken for its columns
    "matmul_drops_a_term": (SERIES, "map(mul, row, col)", "map(mul, row[1:], col[1:])", MATMUL),
    "matmul_pairs_rows_with_rows": (SERIES, "zip(*other.entries)", "other.entries", MATMUL),
    # right_divide's recurrence U_k = X_k - (1/d) sum_{j>=1} U_{k-sj} M_j over
    # a running denominator per class mod s: the earlier numerators of a
    # class kept when its denominator grows, or the term of M_1 dropped
    "matinv_keeps_numerators_when_v_grows": (
        SERIES, "done[r] = hs = [[y * f for y in h] for h in hs]", "hs = done[r]", MATINV),
    "matinv_skips_a_1": (SERIES, "for j in range(top - 1, 0, -1)", "for j in range(top - 1, 1, -1)",
                         MATINV),
    # the divisor's rows restated over the lcm d of their denominators: a
    # row read as if over d already
    "matinv_drops_the_row_scales": (SERIES, "row_scales = [d // den for den, _ in mat.rows]",
                                    "row_scales = [1 for den, _ in mat.rows]", MATINV),
    # the least valuation of the numerators stands for every coefficient
    # only when p does not divide den, and it is not always 0
    "valuation_takes_the_gcd_when_p_divides_den": (SERIES, "            if not vd:\n",
                                                   "            if True:\n", PROFILE),
    "valuation_gcd_reads_0": (SERIES, "min_v = min(min_v, v)\n", "min_v = min(min_v, 0)\n",
                              PROFILE),
    "exp_keeps_numerators_when_v_grows": (SERIES, KEEP_NUMERATORS, KEPT_NUMERATORS, EXP),
    "log_keeps_numerators_when_v_grows": (SERIES, KEEP_NUMERATORS, KEPT_NUMERATORS, LOG),
    "log_drops_1_over_k": (SERIES, "u[k] / k for k", "u[k] for k", LOG),
    "frobenius_scales_rows_by_the_lcm": (SOLVE, "scale = den // dens[m - k]", "scale = den",
                                         FROBENIUS),
    "frobenius_drops_power_of_m": (SOLVE, " * m ** (width - 1 - u)", "", FROBENIUS),
    # Q_k(m-k+e) evaluated by Horner's rule at m in place of m-k
    "frobenius_horner_at_m": (SOLVE, "s, c = m - k, cs[m - k]", "s, c = m, cs[m - k]", FROBENIUS),
    # Y's rows f_{i+1,k} = f_{i,k-1} + delta(f_{i,k}) without f_{i,k-1}
    "uniform_part_drops_the_left_entry": (SOLVE, "[y + k * x for k, (x, y)",
                                          "[k * x for k, (x, y)", UNIFORM),
    # Q_k^[t](m-k) = sum_i C(i,t) P_{i,k} (m-k)^(i-t), the table that the
    # recurrence and verify_solution share: without the binomial, or with
    # every power of m-k read as 1 in verify_solution
    "verify_drops_the_binomial": (SOLVE, "comb(i, t) * coeffs.get(i, 0)", "coeffs.get(i, 0)",
                                  VERIFY),
    "verify_horner_drops_the_point": (SOLVE, "q = q * s + c", "q = q + c", VERIFY),
    "vp_ascent_counts_one_per_power": (PRIMES, "v = (1 << len(powers)) - 1", "v = len(powers)",
                                       VP),
    "vp_descent_adds_the_index": (PRIMES, "v += 1 << i", "v += i", VP),
    "vp_descent_skips_the_last_step": (PRIMES, "range(len(powers) - 1, -1, -1)",
                                       "range(len(powers) - 1, 0, -1)", VP),
}


def run_oracle_tests(root: Path, target, mutation=None):
    """Run the oracle tests of one target on a copy of the package under
    root, after the mutation (old, new, selection) when one is given."""
    path, test_file = target
    files = (test_file, "conftest.py", "series_oracles.py")
    if mutation is None:
        return run_mutated(root, files, select=ORACLES[target])
    old, new, tests = mutation
    return run_mutated(root, files, (path, old, new), tests)


def test_unmutated_copy_passes(tmp_path):
    for target in ORACLES:
        root = tmp_path / target[0].stem
        root.mkdir()
        result = run_oracle_tests(root, target)
        assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_series_oracles(name, tmp_path):
    target, *mutation = MUTATIONS[name]
    result = run_oracle_tests(tmp_path, target, mutation)
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
