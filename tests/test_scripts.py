"""Smoke tests: each experiment script in scripts/ runs at a small order,
exits 0, prints its header line and neither skips a prime nor fails an
audit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mumkit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,header", [
    ("transfer_sweep.py", ["--trunc", "12", "--primes", "3"],
     "== quintic (order 4, working order 12)"),
    ("quintic_integrality.py", ["--trunc", "20", "--prime-bound", "7"],
     "quintic at truncation order 20"),
    # level-2 transfer and reduction
    ("transfer_sweep.py", ["--trunc", "12", "--primes", "3", "--level", "2"],
     "== quintic (order 4, working order 12)"),
])
def test_script_runs(script, args, header):
    # the child imports the same mumkit as this process, installed or not
    src = str(Path(mumkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header
    assert "skipped" not in result.stdout and "FAILED" not in result.stdout
