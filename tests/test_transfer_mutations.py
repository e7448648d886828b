"""Each residual formula of the structure-aware transfer code, broken on
purpose in a copy of the package, must fail tests/test_transfer_rows.py."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TARGET = Path("src/mumkit/frobtransfer.py")

AUDIT, VERIFY, CLOSED = "transfer_residual", "frobenius_residual", "closed_forms"

# name -> (text in frobtransfer.py, its broken replacement, tests that must fail)
MUTATIONS = {
    "audit_drops_lead": ("lambda e: lead * e) - _companion_times(polys, h)",
                         "lambda e: e) - _companion_times(polys, h)", AUDIT),
    "audit_drops_q": ("_times_companion(h, b_sub).scale(q)", "_times_companion(h, b_sub)",
                      AUDIT),
    "drops_column_shift": ("polys[n] * row[j - 1] - row[n - 1] * polys[j] if j\n",
                           "-(row[n - 1] * polys[j]) if j\n", VERIFY),
    "drops_row_shift": ("for e in row) for row in x.entries[1:]]",
                        "for e in row) for row in x.entries[:-1]]", AUDIT),
    "verify_drops_lead": ("both, p_lead = lead * lead_sub, lead * p",
                          "both, p_lead = lead_sub, p", VERIFY),
    "verify_drops_lead_sub": ("both, p_lead = lead * lead_sub, lead * p",
                              "both, p_lead = lead, lead * p", VERIFY),
    "verify_drops_p": ("both, p_lead = lead * lead_sub, lead * p",
                       "both, p_lead = lead * lead_sub, lead", VERIFY),
    "h_drops_level": ("e * Fraction(p) ** (m * i)", "e * Fraction(p) ** i", CLOSED),
    "last_row_drops_1_over_p": ("last[j - 1] * Fraction(1, p)", "last[j - 1]", CLOSED),
}


def run_rows_tests(root: Path, mutation=None) -> subprocess.CompletedProcess:
    """Copy the package and the rows tests under root, apply the mutation,
    and run there the tests it names (all without one), stopping at the
    first failure."""
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (root / "tests").mkdir()
    for name in ("conftest.py", "transfer_oracles.py", "test_transfer_rows.py"):
        shutil.copy(REPO / "tests" / name, root / "tests" / name)
    shutil.copy(REPO / "pyproject.toml", root / "pyproject.toml")
    select = []
    if mutation is not None:
        old, new, tests = mutation
        select = ["-k", tests]
        path = root / TARGET
        text = path.read_text()
        assert text.count(old) == 1, f"mutation target {old!r} is not unique in {TARGET}"
        path.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--tb=line", "-p", "no:cacheprovider",
         "tests/test_transfer_rows.py", *select],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={"PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin:/bin"},
    )


def test_unmutated_copy_passes(tmp_path):
    result = run_rows_tests(tmp_path)
    assert result.returncode == 0, result.stdout[-2000:]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_the_rows_tests(name, tmp_path):
    result = run_rows_tests(tmp_path, MUTATIONS[name])
    # exit status 1: tests ran and one failed (2 and up are usage errors)
    assert result.returncode == 1, result.stdout[-2000:]
