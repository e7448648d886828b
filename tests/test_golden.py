"""Golden reports: every command, run in-process through `mumkit.cli.main`,
must reproduce the report recorded in tests/golden/<case>.out byte for byte
apart from `timing_ms` (JSON) or the closing `elapsed ... ms` line (human
format).  Each file starts with the case's argv and exit status.

Re-record after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other code change.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from mumkit import builtin, fit_frobenius_constant, monicize, parse_operator
from mumkit import frobenius_from_constant, twisted_rows, uniform_part
from mumkit.cli import dump_candidate, main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
OPS = "data/operators.ops"
NONHYPER = "(2+2*z-z^2)*D^3 + z*D^2 - 3*z^2*D + 5*z^3 - z"
LEAD_NOT_UNIT = "(3+z)*D^2 - (3+z)*z*D - (3+z)*z"
NONMUM = "30*D^2 - 1"

# name -> argv; paths are relative to the working directory set up by
# _workdir, so the echoed input is the same on every machine
CASES = {
    "solve_corpus": ["solve", "--file", OPS, "--trunc", "6"],
    "solve_builtin": ["solve", "--builtin", "quintic", "--trunc", "5"],
    "qcoord_corpus_auto": ["qcoord", "--file", OPS, "--trunc", "8", "--primes", "auto:20"],
    "qcoord_corpus_explicit": ["qcoord", "--file", OPS, "--trunc", "8", "--primes", "2,3,5"],
    "qcoord_default_bound": ["qcoord", "--builtin", "quintic", "--trunc", "6"],
    "qcoord_human": ["qcoord", "--op", "D^2 - 16*z*D^2 - 16*z*D - 4*z", "--trunc", "6",
                     "--primes", "auto:10", "--format", "human"],
    "check_dieudonne_explicit": ["check", "dieudonne", "--file", OPS, "--trunc", "8",
                                 "--primes", "2,3,7"],
    "check_dieudonne_default": ["check", "dieudonne", "--file", OPS, "--trunc", "6"],
    "check_dieudonne_skip": ["check", "dieudonne", "--op", "2*D - z", "--trunc", "8",
                             "--primes", "auto:5"],
    "check_omega_auto": ["check", "omega", "--file", OPS, "--trunc", "8", "--primes", "auto:7"],
    "check_expint": ["check", "expint", "--file", OPS, "--trunc", "8", "--primes", "3,5"],
    "check_reduction": ["check", "reduction", "--file", OPS, "--trunc", "4", "--primes", "2,3"],
    "check_reduction_level2": ["check", "reduction", "--builtin", "quintic", "--trunc", "3",
                               "--level", "2", "--primes", "2"],
    "check_human": ["check", "omega", "--builtin", "quintic", "--trunc", "6",
                    "--primes", "5,7", "--format", "human"],
    "transfer_corpus_explicit": ["transfer", "--file", OPS, "--trunc", "3", "--primes", "2,3"],
    "transfer_corpus_auto": ["transfer", "--file", OPS, "--trunc", "3", "--primes", "auto:5"],
    "transfer_level2": ["transfer", "--builtin", "quintic", "--trunc", "2", "--level", "2",
                        "--primes", "2"],
    "transfer_level3": ["transfer", "--builtin", "quintic", "--trunc", "3", "--level", "3",
                        "--primes", "2,3"],
    "check_reduction_level3": ["check", "reduction", "--builtin", "quintic", "--trunc", "4",
                               "--level", "3", "--primes", "2,3"],
    # f_2 = 1/4 and f_3 = 1/36: the level-2 verdict is false at 2 and at 3
    "check_reduction_not_integral_level2": ["check", "reduction", "--op", "D^2 - z",
                                            "--trunc", "8", "--level", "2",
                                            "--primes", "2,3"],
    # f_k = 1/(2^k k!^2): false at 2 (f_1 = 1/2), true at 3 (f_1, f_2 3-integral)
    "check_reduction_mixed": ["check", "reduction", "--op", "2*D^2 - z", "--trunc", "4",
                              "--primes", "2,3"],
    # neither H_2 nor L_2 is 3- or 5-integral: `ok: false` and exit 1, with
    # the transferred coefficients still reported
    "transfer_nonhyper_level2": ["transfer", "--op", NONHYPER, "--trunc", "3", "--level", "2",
                                 "--primes", "3,5"],
    "verify_ok": ["verify-frobenius", "--builtin", "quintic", "--trunc", "8",
                  "--candidate", "phi.json"],
    "verify_wrong": ["verify-frobenius", "--op", "D^2 - z*D", "--trunc", "6",
                     "--candidate", "wrong.json"],
    "fit_corpus_explicit": ["fit-frobenius", "--file", OPS, "--trunc", "8", "--primes", "2,3,7"],
    "fit_corpus_auto": ["fit-frobenius", "--file", OPS, "--trunc", "6", "--primes", "auto:5"],
    "fit_skip": ["fit-frobenius", "--op", "3*D^2 - z^2", "--trunc", "6", "--primes", "auto:5"],
    "radius_corpus": ["radius", "--file", OPS, "--trunc", "8", "--max-j", "6",
                      "--primes", "5,7"],
    "radius_skip": ["radius", "--op", "3*D^2 - z^2", "--trunc", "6", "--max-j", "4",
                    "--primes", "auto:5"],
    "radius_human": ["radius", "--builtin", "quintic", "--trunc", "6", "--max-j", "4",
                     "--primes", "7", "--format", "human"],
    # only the row j = 0
    "radius_max_j0": ["radius", "--builtin", "quintic", "--trunc", "6", "--max-j", "0",
                      "--primes", "5,7"],
    # A = 0, so every A_j with j >= 1 is the zero matrix: `inf` rows
    "radius_zero": ["radius", "--op", "D", "--trunc", "4", "--max-j", "3",
                    "--primes", "auto:7"],
    # P_n / P_n(0) = 1 + z/3 is not 3-integral, but the monic operator is
    "radius_lead_not_unit": ["radius", "--op", "(3+z)*D^2 - (3+z)*z*D - (3+z)*z",
                             "--trunc", "8", "--max-j", "12", "--primes", "auto:5"],
    "hypergeom": ["hypergeom", "--alpha", "1/5,2/5,3/5,4/5", "--beta", "1,1,1,1",
                  "--scale", "3125"],
    "hypergeom_human": ["hypergeom", "--alpha", "1/2,1/2", "--beta", "1,1", "--scale", "16",
                        "--format", "human"],
    # a non-hypergeometric operator with deg_z P_i >= 2 and P_n(0) = 2
    "solve_nonhyper": ["solve", "--op", NONHYPER, "--trunc", "7"],
    "solve_nonhyper_low": ["solve", "--op", NONHYPER, "--trunc", "2"],
    "qcoord_nonhyper": ["qcoord", "--op", NONHYPER, "--trunc", "7"],
    "check_omega_nonhyper": ["check", "omega", "--op", NONHYPER, "--trunc", "7",
                             "--primes", "auto:7"],
    "fit_nonhyper": ["fit-frobenius", "--op", NONHYPER, "--trunc", "6",
                     "--primes", "3,5,7"],
    "radius_nonhyper": ["radius", "--op", NONHYPER, "--trunc", "5", "--max-j", "24",
                        "--primes", "3,7"],
    # transfer from an operator with P_n(0) = 2, so the residuals of the
    # audit are scaled by a non-monic P_n
    "transfer_nonhyper": ["transfer", "--op", NONHYPER, "--trunc", "4", "--primes", "3,5,7"],
    # P_n / P_n(0) = 1 + z/3 is not 3-integral: the p-integrality test at 3
    # needs the monic operator
    "transfer_lead_not_unit": ["transfer", "--op", LEAD_NOT_UNIT, "--trunc", "3",
                               "--primes", "auto:5"],
    "transfer_lead_not_unit_level2": ["transfer", "--op", LEAD_NOT_UNIT, "--trunc", "3",
                                      "--level", "2", "--primes", "auto:5"],
    # a non-MUM operator: the commands disagree on it.  Under auto:5 every
    # prime is skipped before any MUM test, so transfer and check reduction
    # exit 0 while fit-frobenius and check dieudonne exit 2 with NOT_MUM;
    # at an explicit prime transfer exits 2 and radius reports a diagnostic
    "nonmum_transfer_auto": ["transfer", "--op", NONMUM, "--trunc", "3", "--primes", "auto:5"],
    "nonmum_check_reduction_auto": ["check", "reduction", "--op", NONMUM, "--trunc", "4",
                                    "--primes", "auto:5"],
    "nonmum_fit_auto": ["fit-frobenius", "--op", NONMUM, "--trunc", "6", "--primes", "auto:5"],
    "nonmum_check_dieudonne_auto": ["check", "dieudonne", "--op", NONMUM, "--trunc", "6",
                                    "--primes", "auto:5"],
    "nonmum_transfer_explicit": ["transfer", "--op", NONMUM, "--trunc", "3", "--primes", "7"],
    "nonmum_radius": ["radius", "--op", NONMUM, "--trunc", "6", "--max-j", "4",
                      "--primes", "7"],
    # errors, exit 2; the mixed corpus fails after some results are in
    "error_check_mixed": ["check", "dieudonne", "--file", "mixed.ops", "--trunc", "6",
                          "--primes", "auto:5"],
    "error_transfer_mixed": ["transfer", "--file", "mixed.ops", "--trunc", "3",
                             "--primes", "2,3"],
    "error_radius_mixed": ["radius", "--file", "mixed.ops", "--trunc", "6", "--max-j", "4",
                           "--primes", "2,3"],
    "error_syntax": ["solve", "--op", "D +* z", "--trunc", "4"],
    "error_unknown_builtin": ["solve", "--builtin", "sextic"],
    "error_not_mum": ["check", "dieudonne", "--op", "D - 1", "--trunc", "6", "--primes", "3"],
    # the leading polynomial vanishes at 0 and the operator is not MUM:
    # the apparent singularity is reported
    "error_apparent_solve": ["solve", "--op", "z*D^2 + D - z", "--trunc", "6"],
    "error_apparent_qcoord": ["qcoord", "--op", "z*D^2 + D - z", "--trunc", "6"],
    "error_apparent_check": ["check", "omega", "--op", "z*D^2 + D - z", "--trunc", "6",
                             "--primes", "3"],
    "error_apparent_radius": ["radius", "--op", "z*D^2 + D - z", "--trunc", "6",
                              "--primes", "3"],
    "error_qcoord_order_one": ["qcoord", "--op", "D - z", "--trunc", "6"],
    "error_omega_order_one": ["check", "omega", "--op", "D - z", "--trunc", "6",
                              "--primes", "3"],
    "error_not_p_integral": ["transfer", "--op", "3*D^2 - z^2", "--trunc", "3",
                             "--primes", "3"],
    "error_radius_not_p_integral": ["radius", "--op", "2*D - z", "--trunc", "6",
                                    "--primes", "2"],
    "error_invalid_prime": ["check", "dieudonne", "--builtin", "quintic", "--primes", "6"],
    "error_duplicate_prime": ["transfer", "--builtin", "quintic", "--trunc", "3",
                              "--primes", "5,7,5"],
    "error_auto_bound": ["radius", "--builtin", "quintic", "--primes", "auto:1"],
    "error_trunc": ["solve", "--builtin", "quintic", "--trunc", "0"],
    "error_hypergeom_shape": ["hypergeom", "--alpha", "1/2", "--beta", "1,1"],
    "error_hypergeom_zero_division": ["hypergeom", "--alpha", "1/0", "--beta", "1"],
    # a 2x2 candidate against an order-4 operator
    "error_candidate_order": ["verify-frobenius", "--builtin", "quintic", "--trunc", "6",
                              "--candidate", "wrong.json"],
    "error_missing_candidate": ["verify-frobenius", "--builtin", "quintic", "--trunc", "4",
                                "--candidate", "missing.json"],
    "error_missing_corpus": ["solve", "--file", "nowhere.ops", "--trunc", "4"],
}


def _workdir(root: Path) -> Path:
    """Write the corpus and candidate files the cases read."""
    (root / "data").mkdir()
    shutil.copy(REPO / OPS, root / OPS)
    (root / "mixed.ops").write_text(
        "a :: D^2 - 16*z*D^2 - 16*z*D - 4*z\nb :: 3*D^2 - z^2\nc :: D - 1\n"
    )
    y = uniform_part(monicize(builtin("quintic"), 8), 8)
    fit = fit_frobenius_constant(y, 7)
    good = frobenius_from_constant(y, fit.constant, 7)
    (root / "phi.json").write_text(json.dumps(dump_candidate(good)))
    y2 = uniform_part(monicize(parse_operator("D^2"), 6), 6)
    wrong = frobenius_from_constant(y2, twisted_rows(3, 2, [1, 0]), 3)
    (root / "wrong.json").write_text(json.dumps(dump_candidate(wrong)))
    return root


def _render(argv, root: Path) -> bytes:
    """Run one case: its argv and exit status, then the report bytes without
    the timing field or line."""
    out = root / "report.out"
    if out.exists():
        out.unlink()
    human = "--format" in argv
    args = list(argv) + ([] if human else ["--format", "json"]) + ["--out", str(out)]
    status = main(args)
    report = out.read_bytes()
    timing = rb"\nelapsed \d+ ms\n$" if human else rb',\n  "timing_ms": \d+\n}\n$'
    stripped, count = re.subn(timing, b"\n" if human else b"\n}\n", report)
    assert count == 1, report[-80:]
    head = f"argv: {json.dumps(list(argv))}\nexit: {status}\n"
    return head.encode() + stripped


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return _workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert _render(CASES[name], workdir) == expected


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


def record():
    """Write tests/golden/<case>.out for every case from the current code."""
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = _workdir(Path(tmp))
        os.chdir(root)
        try:
            for name, argv in sorted(CASES.items()):
                (GOLDEN / f"{name}.out").write_bytes(_render(argv, root))
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(record())
