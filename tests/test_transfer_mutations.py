"""Each residual formula of the structure-aware transfer code, each step
of H_m's row recursion and each factor of the fit's basis, broken on
purpose in a copy of the package, must fail tests/test_transfer_rows.py.

H_m's rows H_{i+1} = delta(H_i) + q H_i B(z^q) start from row 0 of Y
times Lambda_q(Y)^{-1}(z^q) diag(1, q, ...) and run on integer rows by one
companion step, the last step giving H_n, with which transfer_audit's
residual sum_k P_k H_k is formed.  verify_frobenius runs the same step at
q = p with the monic L, compares step(Phi_i) with Phi_{i+1} for rows
0 .. n-2 and forms the last row as transfer_audit does, with
Phi_n = step(Phi_{n-1}).  The fit's Phi for the gammas e_r is row 0 of Y
with columns scaled by p^k and shifted right by r, times Y(z^p)^{-1}, and
rows 1 .. n-1 by the same steps at q = p with L read off Y, which needs
Y's rows to follow Y_{i+1} = delta(Y_i) + Y_i N, the step at q = 1 with
every a_j = 0.  Row 0 of H_m and the last row of F_q come from
right_divide in mumkit.series, whose recurrence is broken here too."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")
KERNEL = Path("src/mumkit/series.py")

AUDIT, VERIFY, CLOSED = "transfer_residual", "frobenius_residual", "closed_forms"
FIT = "fit_basis"
UNIFORM = "not_a_uniform_part"
LEVELS = "level_by_level_oracle"

# name -> (text in frobtransfer.py, its broken replacement, tests that must
# fail[, the file that holds the text when it is not frobtransfer.py])
MUTATIONS = {
    "audit_drops_lead": ("_last_row_order(polys, data.rows, check_trunc)",
                         "_last_row_order(polys[:n] + [polys[n] * 0 + 1], data.rows, check_trunc)",
                         AUDIT),
    # the extra step H_n taken at q = 1
    "audit_drops_q": ("for _ in range(operator.order):",
                      "for i in range(operator.order):\n"
                      "        if i == operator.order - 1:\n"
                      "            step = _row_step(operator.coeffs, 1, order)", AUDIT),
    # the residual's last term P_n H_n taken with H_{n-1} for H_n
    "audit_skips_last_step": ("_last_row_order(polys, data.rows, check_trunc)",
                              "_last_row_order(polys, data.rows[:-1] + data.rows[-2:-1], "
                              "check_trunc)", AUDIT),
    # verify_frobenius: the companion step without its column shift, rows
    # 0 .. n-2 with step(Phi_i) compared with Phi_i (the row shift of A Phi
    # dropped), the last row without P_n Phi_n, the step at q = 1, or the
    # monic L one order short of the ceil(T/p) that A(z^p) needs
    "drops_column_shift": ("k * x + q * y + c", "k * x + c", VERIFY),
    "drops_row_shift": ("zip(rows, rows[1:])", "zip(rows, rows)", VERIFY),
    "verify_drops_lead": ("[*rows, step(rows[-1])]", "rows", VERIFY),
    "verify_drops_p": ("_row_step(monic.coeffs, p, check_trunc)",
                       "_row_step(monic.coeffs, 1, check_trunc)", VERIFY),
    "verify_reads_l_one_order_short": ("monicize(op, -(-check_trunc // p))",
                                       "monicize(op, -(-check_trunc // p) - 1)", VERIFY),
    # H_m's rows built with p where they need q = p^m
    "h_drops_level": ("right_divide((y.rows[0],), lam, q)",
                      "right_divide((y.rows[0],), lam, p)", CLOSED),
    "h_rows_drop_level": ("q = self.p**self.m", "q = self.p", CLOSED),
    "h_shift_drops_q": ("k * x + q * y + c", "k * x + y + c", CLOSED),
    "h_tail_drops_q": ("[-q * x * (d // a.den)", "[-x * (d // a.den)", CLOSED),
    "h_drops_column_shift": ("k * x + q * y + c", "k * x + c", CLOSED),
    # a step over d den_i that loses what d does not divide
    "h_drops_remainder": ("d * x + r for x, r", "d * x for x, r", CLOSED),
    "h_row_0_drops_q_powers": ("[x * q**j for x in e]", "[x for x in e]", CLOSED),
    # the bracket's last row over q den is q delta(Lambda_j) + Lambda_{j-1}:
    # Lambda_{j-1} taken without its 1/q
    "last_row_drops_1_over_p": ("q * k * x + y for k", "q * k * x + q * y for k", CLOSED),
    # a level-m bracket built with 1/p where it needs 1/q = 1/p^m
    "bracket_uses_1_over_p": ("_quotient_last_row(lam, q), q)",
                              "_quotient_last_row(lam, p), q)", LEVELS),
    "read_off_at_p": ("_quotient_last_row(lam, q), q)",
                      "_quotient_last_row(lam, q), p)", LEVELS),
    # right_divide: the earlier numerators of a class mod s kept when the
    # class's denominator grows, or every class in one list, so that U_k
    # meets U_0, U_1, ..., U_{t-1}, consecutive rows, instead of U_{k-ts},
    # ..., U_{k-s}, its own class
    "kernel_skips_rescaling": ("done[r] = hs = [[y * f for y in h] for h in hs]", "hs = done[r]",
                               CLOSED, KERNEL),
    "kernel_steps_by_1": ("t, r = divmod(k, s)", "t, r = k // s, 0", CLOSED, KERNEL),
    # the fit's Y C for the gammas e_r: shifted one column too far, or
    # without the column scales p^k of C = diag(1, p, ...) N^r
    "fit_shifts_by_r_plus_1": ("[zero] * r + row[:n - r]",
                               "[zero] * (r + 1) + row[:n - r - 1]", FIT),
    "fit_drops_p_powers": ("[x * p**k for x in e]", "[x for x in e]", FIT),
    # Phi's rows 1 .. n-1 stepped at q = 1, or with L read off Y one order
    # short of the ceil(M/p) that A(z^p) needs, or Y taken without the row
    # rule that makes the steps exact
    "fit_steps_at_1": ("_h_rows(row, operator, p, order)", "_h_rows(row, operator, 1, order)",
                       FIT),
    "fit_reads_l_one_order_short": ("y.truncate(-(-order // p))", "y.truncate(-(-order // p) - 1)",
                                    FIT),
    "fit_skips_the_row_rule": ("    if any(_agreement_order(",
                               "    if False and any(_agreement_order(", UNIFORM),
}


def run_rows_tests(root: Path, mutation=None):
    """Run tests/test_transfer_rows.py on a copy of the package under root,
    after the mutation (all of it without one)."""
    files = ("test_transfer_rows.py", "conftest.py", "transfer_oracles.py",
             "series_oracles.py")
    if mutation is None:
        return run_mutated(root, files)
    old, new, tests, *target = mutation
    return run_mutated(root, files, ((target or [TARGET])[0], old, new), tests)


def test_unmutated_copy_passes(tmp_path):
    result = run_rows_tests(tmp_path)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_rows_tests(name, tmp_path):
    result = run_rows_tests(tmp_path, MUTATIONS[name])
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
