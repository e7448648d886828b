"""Each residual formula of the structure-aware transfer code, each step
of H_m's row recursion and each factor of the fit's basis, broken on
purpose in a copy of the package, must fail tests/test_transfer_rows.py.

verify_frobenius's residual is a sum of products by the sparse companion
matrices of _companion: a dropped column shift zeroes the superdiagonal of
every such matrix, a dropped row shift that of the left factor C in C Phi
only.  H_m's rows H_{i+1} = delta(H_i) + q H_i B(z^q) start from row 0 of Y
times Lambda_q(Y)^{-1}(z^q) diag(1, q, ...) and run on integer rows, the
last step giving H_n, with which transfer_audit's residual sum_k P_k H_k
is formed.  The fit's Phi for the gammas e_r is Y's columns scaled by p^k
and shifted right by r, times Y(z^p)^{-1}.  Row 0 of H_m and the last row
of F_q come from right_divide in mumkit.series, whose recurrence is broken
here too."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")
KERNEL = Path("src/mumkit/series.py")

AUDIT, VERIFY, CLOSED = "transfer_residual", "frobenius_residual", "closed_forms"
FIT = "fit_basis"
LEVELS = "level_by_level_oracle"

# name -> (text in frobtransfer.py, its broken replacement, tests that must
# fail[, the file that holds the text when it is not frobtransfer.py])
MUTATIONS = {
    "audit_drops_lead": ("terms = list(zip(polys, data.rows))",
                         "terms = list(zip(polys[:n] + [polys[n] * 0 + 1], data.rows))", AUDIT),
    # the extra step H_n taken with q = 1 in its column shift
    "audit_drops_q": ("for _ in range(operator.order):",
                      "for i in range(operator.order):\n"
                      "        q = 1 if i == operator.order - 1 else q", AUDIT),
    # the residual's last term P_n H_n taken with H_{n-1} for H_n
    "audit_skips_last_step": ("terms = list(zip(polys, data.rows))",
                              "terms = list(zip(polys, data.rows[:-1] + data.rows[-2:-1]))",
                              AUDIT),
    "drops_column_shift": ("lead if j == i + 1 else zero", "zero", VERIFY),
    "drops_row_shift": ("(_companion(polys, -lead_sub), phi)",
                        "(_companion(polys[:-1] + [0 * polys[-1]], -lead_sub), phi)", VERIFY),
    "verify_drops_lead": ("both, p_lead = lead * lead_sub, lead * p",
                          "both, p_lead = lead_sub, p", VERIFY),
    "verify_drops_lead_sub": ("both, p_lead = lead * lead_sub, lead * p",
                              "both, p_lead = lead, lead * p", VERIFY),
    "verify_drops_p": ("both, p_lead = lead * lead_sub, lead * p",
                       "both, p_lead = lead * lead_sub, lead", VERIFY),
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
