"""The benchmark's own tests, each workload's traced run against its
oracles, and the span recorder on the transfer and series layers.

bench/spans.py wraps mumkit's public functions by name, so a rename in the
library would silently zero a per-layer metric of the benchmark.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mumkit import builtin, fit_frobenius_constant, frobenius_from_constant, uniform_part
from mumkit.cli import dump_candidate, main

REPO = Path(__file__).resolve().parents[1]
TRANSFER_SPANS = ("frobtransfer.iterate_transfer", "frobtransfer.reduction_congruence_check",
                  "frobtransfer.transfer_audit", "frobtransfer.verify_frobenius")
LAYER_METRICS = ("frobtransfer.transfer.self_s", "frobtransfer.audit.self_s",
                 "frobtransfer.verify.self_s")
SERIES_SPANS = ("series.TruncSeries.divide", "series.TruncSeries.exp")
# spans whose private integer kernels (_frobenius, the recurrence behind
# divide, exp and log) must be charged to them, and the self-time metrics
# that read them
KERNEL_SPANS = ("solve.solve_first_row", "series.TruncSeries.exp", "series.TruncSeries.log")
KERNEL_METRICS = ("solve.first_row.self_s", "series.exp_log.self_s")
KERNEL_SPAN = "series.right_divide"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_unittests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("workload", ["mirror", "radius", "transfer"])
def test_bench_workload_passes_its_oracles_traced(workload, tmp_path):
    # one untraced and one traced pass over the workload's jobs at the
    # default seed: every report meets its oracle and recorded digest, and
    # every span probe reads its arguments and results (such as the .trunc
    # of iterate_transfer's first argument).  A copy of src/ and bench/
    # keeps the run's .bench_work/ out of the checkout
    for name in ("src", "bench"):
        shutil.copytree(REPO / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), result.stderr[-2000:]


def test_tracer_records_the_transfer_layer(tmp_path, monkeypatch):
    # transfer builds L_m and H_m in iterate_transfer; the reduction check
    # reads its verdict off f and calls no transfer function
    monkeypatch.chdir(tmp_path)
    y = uniform_part(builtin("quintic"), 8)
    cand = frobenius_from_constant(y, fit_frobenius_constant(y, 7).constant, 7)
    Path("phi.json").write_text(json.dumps(dump_candidate(cand)))
    spans = load_spans()
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        for argv in (["transfer", "--builtin", "quintic", "--trunc", "3", "--primes", "5"],
                     ["check", "reduction", "--builtin", "quintic", "--trunc", "4",
                      "--primes", "3"],
                     ["verify-frobenius", "--builtin", "quintic", "--trunc", "8",
                      "--candidate", "phi.json"]):
            assert main(argv + ["--format", "json", "--out", "report.json"]) == 0
    recorded = {recorder.names[i] for i in recorder.name}
    assert set(TRANSFER_SPANS) <= recorded
    metrics = spans.layer_metrics(recorder, 1.0, 1.0)
    assert all(metrics[name] > 0 for name in LAYER_METRICS)


def test_tracer_records_the_series_kernel(tmp_path, monkeypatch):
    # the private recurrence behind divide, exp and log and the Frobenius
    # recurrence are not traced: their time must fall to divide, exp, log
    # and solve_first_row, and log's quotient must show as a divide span of
    # its own.  qcoord forms g/f and exp(g/f); the Dieudonne check forms
    # log f and the exp of p log f - (log f)(z^p)
    monkeypatch.chdir(tmp_path)
    spans = load_spans()
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        for argv in (["qcoord", "--builtin", "quintic", "--trunc", "20"],
                     ["check", "dieudonne", "--builtin", "quintic", "--trunc", "20",
                      "--primes", "7"]):
            assert main(argv + ["--format", "json", "--out", "report.json"]) == 0
    assert set(SERIES_SPANS + KERNEL_SPANS) <= {recorder.names[i] for i in recorder.name}
    divide, log = (recorder.names.index(f"series.TruncSeries.{m}") for m in ("divide", "log"))
    callers_of_divide = {recorder.name[parent]
                         for name, parent in zip(recorder.name, recorder.parent)
                         if name == divide and parent >= 0}
    assert log in callers_of_divide
    metrics = spans.layer_metrics(recorder, 1.0, 1.0)
    assert all(metrics[name] > 0 for name in ("series.self_s",) + KERNEL_METRICS)


def test_tracer_records_the_matrix_kernel(tmp_path, monkeypatch):
    # iterate_transfer forms no inverse and no matrix product: the last row
    # of F_q and row 0 of H_m are right_divide spans, an order-by-order
    # recurrence on integers whose time is its own; the transfer audit's
    # residual is the last row of its equation, integer sums over
    # TransferData's integer rows with no series or matrix product, so its
    # time is the audit's self time
    monkeypatch.chdir(tmp_path)
    spans = load_spans()
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        argv = ["transfer", "--builtin", "quintic", "--trunc", "4", "--primes", "7"]
        assert main(argv + ["--format", "json", "--out", "report.json"]) == 0
    assert KERNEL_SPAN in {recorder.names[i] for i in recorder.name}
    kernel = recorder.names.index(KERNEL_SPAN)
    callers_of_kernel = {recorder.names[recorder.name[parent]]
                         for name, parent in zip(recorder.name, recorder.parent)
                         if name == kernel and parent >= 0}
    assert "frobtransfer.iterate_transfer" in callers_of_kernel
    under_kernel = {recorder.names[name] for name, parent in zip(recorder.name, recorder.parent)
                    if parent >= 0 and recorder.name[parent] == kernel}
    assert "series.SeriesMatrix.__mul__" not in under_kernel
    audit = recorder.names.index("frobtransfer.transfer_audit")
    under_audit = {recorder.names[name] for name, parent in zip(recorder.name, recorder.parent)
                   if parent >= 0 and recorder.name[parent] == audit}
    assert not under_audit & {"series.SeriesMatrix.__mul__", "series.TruncSeries.__mul__"}
    metrics = spans.layer_metrics(recorder, 1.0, 1.0)
    assert metrics["series.self_s"] > 0 and metrics["frobtransfer.audit.self_s"] > 0


def test_tracer_charges_the_dieudonne_check_to_the_checks_layer(tmp_path, monkeypatch):
    # check dieudonne forms log f once per operator and runs the public
    # dieudonne_check per prime, so the ratio's work is a span of its own
    monkeypatch.chdir(tmp_path)
    spans = load_spans()
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        argv = ["check", "dieudonne", "--builtin", "quintic", "--trunc", "20", "--primes", "7"]
        assert main(argv + ["--format", "json", "--out", "report.json"]) == 0
    assert "qcoord.dieudonne_check" in {recorder.names[i] for i in recorder.name}
    assert spans.layer_metrics(recorder, 1.0, 1.0)["qcoord.checks.self_s"] > 0
