"""Each residual formula of the structure-aware transfer code, and each
step of H_m's row recursion, broken on purpose in a copy of the package,
must fail tests/test_transfer_rows.py.

The residuals are sums of products by the sparse companion matrices of
_companion: a dropped column shift zeroes the superdiagonal of every such
matrix, a dropped row shift that of the left factor C in C H only.  H_m's
rows H_{i+1} = delta(H_i) + q H_i B(z^q) start from row 0 of Y times
Lambda_q(Y)^{-1}(z^q) diag(1, q, ...)."""

from pathlib import Path

import pytest

from mutants import run_mutated

TARGET = Path("src/mumkit/frobtransfer.py")

AUDIT, VERIFY, CLOSED = "transfer_residual", "frobenius_residual", "closed_forms"
LEVELS = "level_by_level_oracle"

# name -> (text in frobtransfer.py, its broken replacement, tests that must fail)
MUTATIONS = {
    "audit_drops_lead": ("(h.delta(), _scalar_matrix(lead, n))",
                         "(h.delta(), SeriesMatrix.identity(n, check_trunc))", AUDIT),
    "audit_drops_q": ("(h, _companion(b_sub, lead * q))", "(h, _companion(b_sub, lead))",
                      AUDIT),
    "drops_column_shift": ("lead if j == i + 1 else zero", "zero", VERIFY),
    "drops_row_shift": ("(_companion(polys, -1), h)",
                        "(_companion(polys[:n] + [0 * polys[n]], -1), h)", AUDIT),
    "verify_drops_lead": ("both, p_lead = lead * lead_sub, lead * p",
                          "both, p_lead = lead_sub, p", VERIFY),
    "verify_drops_lead_sub": ("both, p_lead = lead * lead_sub, lead * p",
                              "both, p_lead = lead, lead * p", VERIFY),
    "verify_drops_p": ("both, p_lead = lead * lead_sub, lead * p",
                       "both, p_lead = lead * lead_sub, lead", VERIFY),
    # H_m's rows built with p where they need q = p^m
    "h_drops_level": ("_h_rows(y, lam_inv, operator, q)", "_h_rows(y, lam_inv, operator, p)",
                      CLOSED),
    "h_shift_drops_q": ("for c in (0, 1, q))", "for c in (0, 1, 1))", CLOSED),
    "h_tail_drops_q": ("(a * -q).substitute_power", "(-a).substitute_power", CLOSED),
    "h_drops_column_shift": ("[zero, *row[:-1]]", "[zero] * n", CLOSED),
    "h_row_0_drops_q_powers": ("* q**j).substitute_power", ").substitute_power", CLOSED),
    "last_row_drops_1_over_p": ("last[j - 1] * Fraction(1, q)", "last[j - 1]", CLOSED),
    # a level-m bracket built with 1/p where it needs 1/q = 1/p^m
    "bracket_uses_1_over_p": ("_quotient_last_row(lam, lam_inv, q), q)",
                              "_quotient_last_row(lam, lam_inv, p), q)", LEVELS),
    "read_off_at_p": ("_quotient_last_row(lam, lam_inv, q), q)",
                      "_quotient_last_row(lam, lam_inv, q), p)", LEVELS),
}


def run_rows_tests(root: Path, mutation=None):
    """Run tests/test_transfer_rows.py on a copy of the package under root,
    after the mutation (all of it without one)."""
    files = ("test_transfer_rows.py", "conftest.py", "transfer_oracles.py")
    if mutation is None:
        return run_mutated(root, files)
    old, new, tests = mutation
    return run_mutated(root, files, (TARGET, old, new), tests)


def test_unmutated_copy_passes(tmp_path):
    result = run_rows_tests(tmp_path)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_rows_tests(name, tmp_path):
    result = run_rows_tests(tmp_path, MUTATIONS[name])
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
