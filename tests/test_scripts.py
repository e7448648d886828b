"""Smoke tests: each experiment script in scripts/ runs at a small order,
exits 0, prints its header line and neither skips a prime nor fails an
audit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mumkit
from mumkit import (
    builtin,
    canonical_coordinate,
    dieudonne_check,
    g_over_f,
    monicize,
    n_integrality_report,
    omega_congruence_check,
    solve_first_row,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(script, args):
    # the child imports the same mumkit as this process, installed or not
    src = str(Path(mumkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script,args,header", [
    ("transfer_sweep.py", ["--trunc", "12", "--primes", "3"],
     "== quintic (order 4, working order 12)"),
    ("quintic_integrality.py", ["--trunc", "20", "--prime-bound", "7"],
     "quintic at truncation order 20"),
    # level-2 transfer and reduction
    ("transfer_sweep.py", ["--trunc", "12", "--primes", "3", "--level", "2"],
     "== quintic (order 4, working order 12)"),
    # level 3 at p = 3 (q = 27); every corpus operator passes there, while
    # quartic3's f is not 2-integral, so p = 2 fails its audit at any level
    ("transfer_sweep.py", ["--trunc", "28", "--primes", "3", "--level", "3"],
     "== quintic (order 4, working order 28)"),
])
def test_script_runs(script, args, header):
    result = run_script(script, args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header
    assert "skipped" not in result.stdout and "FAILED" not in result.stdout


def test_quintic_integrality_matches_the_per_prime_checks():
    # the script forms log f, g/f and exp(g/f) once; its table must read as
    # the public checks run afresh for each prime
    raw = builtin("quintic")
    f, g, *_ = solve_first_row(raw, 20)
    op, h = monicize(raw, 20), g_over_f(f, g)
    expected = ["quintic at truncation order 20",
                f"{'p':>4} {'op in Z_p':>10} {'dieudonne':>10} {'omega':>6} {'exp(g/f)':>9}"]
    for p in (2, 3, 5, 7, 11, 13):
        assert op.p_integrality(p).is_integral
        verdicts = (dieudonne_check(f.log(), p)[0], omega_congruence_check(h, p)[0],
                    h.exp().valuation_profile(p).is_integral)
        expected.append(f"{p:>4} {'yes':>10}" + "".join(
            f" {str(v).lower():>{w}}" for v, w in zip(verdicts, (10, 6, 9))))
    report = n_integrality_report(canonical_coordinate(f, g), prime_bound=13)
    expected += ["", f"q-coordinate bad primes up to order {report.certified_trunc}: "
                 f"{list(report.bad_primes) or 'none'} (suggested N = {report.suggested_N})"]
    result = run_script("quintic_integrality.py", ["--trunc", "20", "--prime-bound", "13"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n".join(expected) + "\n"
