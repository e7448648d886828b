import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import mumkit.cli
from mumkit import InternalError, monicize, parse_operator, twisted_rows, uniform_part
from mumkit.cli import (
    CorpusFormatError,
    DuplicateLabel,
    JobSpec,
    cmd_dispatch,
    dump_candidate,
    emit_report,
    fmt_rational,
    load_candidate_file,
    load_corpus_file,
    main,
)
from mumkit.frobtransfer import frobenius_from_constant

F = Fraction


def spec(command, **kw):
    defaults = dict(source_kind="builtin", source_value="quintic", trunc=8)
    defaults.update(kw)
    return JobSpec(command=command, **defaults)


def payload(doc):
    data = doc.to_dict()
    data.pop("timing_ms")
    return data


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_rational_formatting():
    assert fmt_rational(F(770)) == "770"
    assert fmt_rational(F(3, 2)) == "3/2"
    assert fmt_rational(F(-5, 7)) == "-5/7"


def test_solve_payload_quintic():
    doc, status = cmd_dispatch(spec("solve", trunc=4))
    assert status == 0
    result = doc.results[0]
    assert result["f"] == ["1", "120", "113400", "168168000"]
    assert result["first_row"][1][1] == "770"
    assert result["residual_order"] == 4


def test_structured_output_round_trips():
    doc, _ = cmd_dispatch(spec("solve", trunc=4))
    parsed = json.loads(emit_report(doc, "json").decode())
    assert parsed == doc.to_dict()


def test_no_floats_anywhere_in_structured_output():
    doc, _ = cmd_dispatch(spec("qcoord", trunc=6, auto_bound=20))

    def walk(node):
        assert not isinstance(node, float), node
        if isinstance(node, dict):
            for key, value in node.items():
                walk(key)
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(json.loads(emit_report(doc, "json").decode()))


def test_dispatch_is_deterministic():
    a = payload(cmd_dispatch(spec("qcoord", trunc=6, auto_bound=30))[0])
    b = payload(cmd_dispatch(spec("qcoord", trunc=6, auto_bound=30))[0])
    assert json.dumps(a) == json.dumps(b)


def test_human_report_contains_aligned_rows():
    doc, _ = cmd_dispatch(spec("radius", trunc=6, max_index=4, primes=(7,)))
    text = emit_report(doc, "human").decode()
    assert "||A_j||" in text
    assert "trending_to_zero" in text


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_check_failure_exits_one():
    doc, status = cmd_dispatch(
        spec("check", source_kind="op", source_value="D - z",
             check_kind="dieudonne", trunc=10, primes=(2,))
    )
    assert status == 1
    assert doc.results[0]["ok"] is False


def test_check_pass_exits_zero():
    doc, status = cmd_dispatch(
        spec("check", check_kind="dieudonne", trunc=10, primes=(7,))
    )
    assert status == 0
    assert doc.results[0]["ok"] is True


def test_non_mum_precondition_exits_two():
    doc, status = cmd_dispatch(
        spec("check", source_kind="op", source_value="D - 1",
             check_kind="dieudonne", trunc=6, primes=(3,))
    )
    assert status == 2
    assert doc.errors[0]["code"] == "NOT_MUM"


def test_syntax_error_exits_two():
    doc, status = cmd_dispatch(
        spec("solve", source_kind="op", source_value="D +* z")
    )
    assert status == 2
    assert doc.errors[0]["code"] == "SYNTAX_ERROR"


def test_unknown_builtin_exits_two():
    doc, status = cmd_dispatch(spec("solve", source_value="sextic"))
    assert status == 2
    assert doc.errors[0]["code"] == "UNKNOWN_OPERATOR"


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert main([
        "solve", "--builtin", "quintic", "--trunc", "4",
        "--format", "json", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["results"][0]["f"][1] == "120"
    assert main([
        "check", "dieudonne", "--op", "D - z", "--trunc", "10",
        "--primes", "2", "--out", str(out),
    ]) == 1
    assert main([
        "check", "dieudonne", "--op", "D - 1", "--trunc", "6",
        "--primes", "3", "--out", str(out),
    ]) == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    out = tmp_path / "r.json"
    common = ["--builtin", "quintic", "--primes", "3", "--trunc", "3",
              "--format", "json", "--out", str(out)]
    assert main(["transfer", "--level", "2", *common]) == 0
    assert json.loads(out.read_text())["input"]["level"] == 2
    assert main(["transfer", *common]) == 0
    assert json.loads(out.read_text())["input"]["level"] == 1
    assert mumkit.cli.build_parser() is mumkit.cli.build_parser()


@pytest.mark.parametrize("argv, message", [
    (["radius", "--builtin", "quintic", "--max-j", "-1"], "--max-j must be >= 0"),
    (["transfer", "--builtin", "quintic", "--level", "-1", "--primes", "3"],
     "level must be >= 1"),
], ids=["max-j", "level"])
def test_out_of_range_flags_rejected(tmp_path, argv, message):
    out = tmp_path / "r.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["errors"] == [
        {"code": "INVALID_INPUT", "message": message}
    ]


def test_internal_failure_exits_three(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("residual check failed")

    monkeypatch.setattr(mumkit.cli, "verify_solution", broken)
    doc, status = cmd_dispatch(spec("solve", trunc=4))
    assert status == 3
    assert doc.errors == [
        {"code": "INTERNAL_ERROR", "message": "residual check failed"}
    ]
    out = tmp_path / "r.json"
    argv = ["solve", "--builtin", "quintic", "--trunc", "4", "--out", str(out)]
    assert main(argv) == 3


def test_invalid_prime_rejected(tmp_path):
    out = tmp_path / "r.json"
    assert main([
        "check", "dieudonne", "--builtin", "quintic", "--primes", "6",
        "--out", str(out),
    ]) == 2


@pytest.mark.parametrize("argv", [
    ["transfer", "--builtin", "quintic", "--trunc", "3", "--primes", "7,7"],
    ["check", "omega", "--builtin", "quintic", "--trunc", "5", "--primes", "5,5,5"],
    ["radius", "--builtin", "quintic", "--trunc", "4", "--primes", "7, 5,7"],
], ids=["transfer", "omega", "radius"])
def test_repeated_prime_rejected(tmp_path, argv):
    # a repeated prime would run its unit again and report it twice
    out = tmp_path / "r.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert [e["code"] for e in report["errors"]] == ["INVALID_PRIME"]
    assert report["results"] == []


def test_check_reduction_with_every_prime_skipped_solves_nothing(monkeypatch):
    # the unit solves f lazily, so a job whose primes were all skipped
    # under auto:B solves nothing
    for name in ("solve_f", "uniform_part", "solve_first_row"):
        monkeypatch.setattr(mumkit.cli, name, refuse_work)
    doc, status = cmd_dispatch(JobSpec(command="check", check_kind="reduction",
                                       source_kind="op", source_value="30*D^2 - 1",
                                       trunc=4, auto_bound=5))
    assert status == 0 and doc.errors == []
    assert [r["skipped"] for r in doc.results] == ["bad prime for operator"] * 3


def test_cli_subprocess_entrypoint():
    # the child imports the same mumkit as this process, installed or not
    src = str(Path(mumkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mumkit", "solve", "--builtin", "quintic",
         "--trunc", "3", "--format", "json"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    doc = json.loads(result.stdout)
    assert doc["results"][0]["f"] == ["1", "120", "113400"]
    assert doc["schema_version"] == "1"


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def test_corpus_single_line(tmp_path):
    path = tmp_path / "ops.txt"
    path.write_text("# comment\nquintic :: D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)\n")
    ops = load_corpus_file(path)
    assert len(ops) == 1
    assert ops[0][0] == "quintic"
    assert ops[0][1].order == 4


def test_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n# nothing here\n")
    assert load_corpus_file(path) == []


def test_corpus_duplicate_label(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("a :: D^2\na :: D^3\n")
    with pytest.raises(DuplicateLabel) as err:
        load_corpus_file(path)
    assert ":2:" in str(err.value)


def test_corpus_bad_line_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a :: D^2\nb = D^3\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus_file(path)
    assert ":2:" in str(err.value)


def test_corpus_results_sorted_by_label(tmp_path):
    path = tmp_path / "ops.txt"
    path.write_text("zeta :: D^2\nalpha :: D^3\n")
    doc, status = cmd_dispatch(
        JobSpec(command="solve", source_kind="file", source_value=str(path),
                trunc=3)
    )
    assert status == 0
    assert [r["label"] for r in doc.results] == ["alpha", "zeta"]


# ---------------------------------------------------------------------------
# candidate files
# ---------------------------------------------------------------------------


def test_candidate_file_round_trip(tmp_path, quintic_y20):
    cand = frobenius_from_constant(
        quintic_y20.truncate(10), twisted_rows(7, 4, [1, 2, 0, -1]), 7
    )
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(dump_candidate(cand)))
    loaded = load_candidate_file(path)
    assert loaded.p == cand.p
    assert loaded.phi == cand.phi


@pytest.mark.parametrize("doc", [
    {"n": 1, "p": 3, "trunc": 2},  # no entries
    {"n": [1], "p": 3, "trunc": 2, "entries": [[["1"]]]},
    {"n": 1, "p": 3, "trunc": 2, "entries": [[[["1"]]]]},
    {"n": 1, "p": 3, "trunc": 2, "entries": [[["1", "1/0"]]]},
    [1, 2],
    {"n": 1, "p": 1, "trunc": 2, "entries": [[["1", "0"]]]},
    {"n": 1, "p": 4, "trunc": 2, "entries": [[["1", "0"]]]},
    {"n": 1, "p": 7.5, "trunc": 2, "entries": [[["1", "0"]]]},
    {"n": 1, "p": 3, "trunc": 2.5, "entries": [[["1", "0"]]]},
    {"n": 0, "p": 3, "trunc": 2, "entries": []},
    {"n": 1, "p": 3, "trunc": 0, "entries": [[[]]]},
    {"n": 1, "p": 3, "trunc": -2, "entries": [[["1", "0", "0"]]]},
    {"n": 1, "p": 3, "trunc": 2, "entries": [[["1"]]]},
    {"n": 1, "p": 3, "trunc": 2, "entries": [[["1", "0", "0"]]]},
    # coefficients are exact rational strings, never JSON numbers
    {"n": 1, "p": 7, "trunc": 2, "entries": [[[1, 0.1]]]},
    {"n": 1, "p": 7, "trunc": 2, "entries": [[["1", 0.5]]]},
    {"n": 1, "p": 7, "trunc": 2, "entries": [[[1, "0"]]]},
    {"n": 1, "p": 7, "trunc": 2, "entries": [[["1", True]]]},
    {"n": 1, "p": 7, "trunc": 2, "entries": [[["1", None]]]},
], ids=["missing-key", "wrong-type", "nested-too-deep", "zero-denominator",
        "not-an-object", "p-one", "p-not-prime", "p-float", "trunc-float", "n-zero",
        "trunc-zero", "trunc-negative", "list-too-short", "list-too-long",
        "coeff-numbers", "coeff-float", "coeff-int", "coeff-bool", "coeff-null"])
def test_malformed_candidate_is_a_format_error(tmp_path, doc):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorpusFormatError):
        load_candidate_file(path)


def test_zero_denominator_candidate_exits_two(tmp_path):
    path = tmp_path / "phi.json"
    doc = {"n": 1, "p": 3, "trunc": 2, "entries": [[["1", "1/0"]]]}
    path.write_text(json.dumps(doc))
    doc, status = cmd_dispatch(
        JobSpec(command="verify-frobenius", source_kind="op", source_value="D - z",
                trunc=2, candidate_path=str(path))
    )
    assert status == 2
    assert doc.errors[0]["code"] == "CORPUS_FORMAT_ERROR"


def test_verify_frobenius_command(tmp_path, quintic_y20):
    cand = frobenius_from_constant(
        quintic_y20.truncate(10), twisted_rows(7, 4, [1, 0, 0, 0]), 7
    )
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(dump_candidate(cand)))
    doc, status = cmd_dispatch(
        spec("verify-frobenius", trunc=10, candidate_path=str(path))
    )
    assert status == 0
    assert doc.results[0]["residual_order"] == 10
    assert doc.results[0]["ok"] is True


@pytest.mark.parametrize("source,size", [("--builtin quintic", 2), ("--op D^2", 4)])
def test_candidate_of_wrong_order_is_an_input_error(tmp_path, source, size, capsys):
    y = uniform_part(monicize(parse_operator(f"D^{size}"), 3), 3)
    cand = frobenius_from_constant(y, twisted_rows(3, size, [1] + [0] * (size - 1)), 3)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(dump_candidate(cand)))
    kind, value = source.split()
    status = main(["verify-frobenius", kind, value, "--trunc", "3",
                   "--candidate", str(path), "--format", "json"])
    assert status == 2
    error = json.loads(capsys.readouterr().out)["errors"][0]
    order = 4 if size == 2 else 2
    assert error == {"code": "INVALID_INPUT", "message":
                     f"candidate is {size}x{size} but the operator has order {order}"}


def test_verify_frobenius_command_rejects_wrong_candidate(tmp_path):
    # diagonal constant matrix is not a Frobenius structure for the quintic
    op = monicize(parse_operator("D^2"), 6)
    y = uniform_part(op, 6)
    cand = frobenius_from_constant(y, twisted_rows(3, 2, [1, 0]), 3)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(dump_candidate(cand)))
    doc, status = cmd_dispatch(
        JobSpec(command="verify-frobenius", source_kind="op",
                source_value="D^2 - z*D", trunc=6, candidate_path=str(path))
    )
    assert status == 1
    assert doc.results[0]["ok"] is False


# ---------------------------------------------------------------------------
# prime handling
# ---------------------------------------------------------------------------


def test_auto_primes_skip_bad_ones():
    doc, status = cmd_dispatch(
        spec("check", source_kind="op", source_value="2*D - z",
             check_kind="dieudonne", trunc=8, auto_bound=5)
    )
    # a_0 = -z/2 fails 2-integrality: skipped with a reason, not an error;
    # at 3 and 5 the check runs and correctly fails (f = exp(z/2) has n!
    # denominators), which is exit 1, not 2
    skipped = [r for r in doc.results if "skipped" in r]
    assert [(r["prime"], r["skipped"]) for r in skipped] == [
        (2, "bad prime for operator")
    ]
    assert [r["prime"] for r in doc.results if "ok" in r] == [3, 5]
    assert all(r["ok"] is False for r in doc.results if "ok" in r)
    assert status == 1
    # 3*D^2 - z^2 has a_0 = -z^2/3: every per-prime command skips p = 3,
    # transfer included although its order-2 truncation is 3-integral
    for command, kw in [("transfer", {}), ("fit-frobenius", {}),
                        ("radius", {"max_index": 4}),
                        ("check", {"check_kind": "dieudonne"})]:
        doc, status = cmd_dispatch(
            spec(command, source_kind="op", source_value="3*D^2 - z^2", trunc=3,
                 auto_bound=5, **kw)
        )
        assert doc.errors == [], command
        assert [(r["prime"], r.get("skipped")) for r in doc.results] == [
            (3, "bad prime for operator"), (2, None), (5, None)
        ], command


def test_transfer_command_reports_orders():
    doc, status = cmd_dispatch(spec("transfer", trunc=3, primes=(2,), level=1))
    assert status == 0
    result = doc.results[0]
    assert result["working_trunc"] == 5
    assert result["certified_trunc"] == 3
    assert result["h_constant_diagonal"] == ["1", "2", "4", "8"]
    assert result["ok"] is True


def refuse_work(*args):
    raise AssertionError("a unit monicized or solved")


@pytest.mark.parametrize("argv, message", [
    # 97^3 (2 - 1) + 1 terms: without the limit this job runs until memory runs out
    (["transfer", "--builtin", "quintic", "--primes", "97", "--level", "3", "--trunc", "2"],
     "working order 912674 at prime 97 is above the limit 20000"),
    # under auto:B every prime up to B is planned before the skip rule
    # monicizes; 29 is the first with 29^3 + 1 > 20000
    (["check", "reduction", "--op", "3*D^2 - z^2", "--primes", "auto:97", "--level", "3",
      "--trunc", "2"], "working order 24390 at prime 29 is above the limit 20000"),
], ids=["transfer", "reduction-auto"])
def test_working_order_above_the_limit_is_refused_before_any_unit(tmp_path, monkeypatch,
                                                                  argv, message):
    for name in ("monicize", "uniform_part", "solve_first_row"):
        monkeypatch.setattr(mumkit.cli, name, refuse_work)
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    assert time.perf_counter() - started < 0.5
    report = json.loads(out.read_text())
    assert report["errors"] == [{"code": "WORKING_ORDER_TOO_LARGE", "message": message}]
    assert report["results"] == []


@pytest.mark.parametrize("limit, status", [(49, 2), (50, 0)])
def test_working_order_limit_is_inclusive(tmp_path, monkeypatch, limit, status):
    # transfer at trunc 8 and p = 7 works at order 7 (8 - 1) + 1 = 50
    monkeypatch.setattr(mumkit.cli, "MAX_WORKING_TRUNC", limit)
    out = tmp_path / "r.json"
    argv = ["transfer", "--builtin", "quintic", "--trunc", "8", "--primes", "7"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == status
    report = json.loads(out.read_text())
    if status:
        assert [e["code"] for e in report["errors"]] == ["WORKING_ORDER_TOO_LARGE"]
    else:
        assert report["errors"] == [] and report["results"][0]["working_trunc"] == 50


def test_max_j_above_the_limit_is_refused_before_any_unit(tmp_path, monkeypatch):
    # radius work grows about as J^2, and every g_j is kept
    monkeypatch.setattr(mumkit.cli, "taylor_gcds", refuse_work)
    out = tmp_path / "r.json"
    argv = ["radius", "--builtin", "quintic", "--primes", "7",
            "--max-j", str(mumkit.cli.MAX_TAYLOR_INDEX + 1)]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["errors"] == [{"code": "INVALID_INPUT",
                                 "message": "--max-j 10001 is above the limit 10000"}]
    assert report["results"] == []


@pytest.mark.parametrize("max_j, status", [(5, 2), (4, 0)])
def test_max_j_limit_is_inclusive(tmp_path, monkeypatch, max_j, status):
    monkeypatch.setattr(mumkit.cli, "MAX_TAYLOR_INDEX", 4)
    out = tmp_path / "r.json"
    argv = ["radius", "--builtin", "quintic", "--trunc", "4", "--primes", "7",
            "--max-j", str(max_j)]
    assert main(argv + ["--format", "json", "--out", str(out)]) == status
    report = json.loads(out.read_text())
    if status:
        assert [e["code"] for e in report["errors"]] == ["INVALID_INPUT"]
    else:
        assert report["errors"] == [] and len(report["results"][0]["rows"]) == 5


HUGE_AUTO = "auto:1000000000000000000"


@pytest.mark.parametrize("argv", [["check", "omega"], ["transfer"]], ids=["omega", "transfer"])
def test_huge_auto_bound_is_refused_before_the_sieve(tmp_path, monkeypatch, argv):
    # the sieve of 10^18 + 1 bytes would raise MemoryError, an internal error
    monkeypatch.setattr(mumkit.cli, "primes_upto", refuse_work)
    out = tmp_path / "r.json"
    argv = argv + ["--builtin", "quintic", "--trunc", "5", "--primes", HUGE_AUTO]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["errors"] == [{
        "code": "INVALID_PRIME",
        "message": "auto bound 1000000000000000000 is above the limit 1000000",
    }]
    assert report["results"] == []


def test_qcoord_accepts_a_huge_auto_bound(tmp_path):
    # qcoord reads the bound as a filter on the primes it factors out
    out = tmp_path / "r.json"
    argv = ["qcoord", "--builtin", "quintic", "--trunc", "5", "--primes", HUGE_AUTO]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0


@pytest.mark.parametrize("limit, status", [(4, 2), (5, 0)])
def test_auto_bound_limit_is_inclusive(tmp_path, monkeypatch, limit, status):
    monkeypatch.setattr(mumkit.cli, "MAX_AUTO_PRIME_BOUND", limit)
    out = tmp_path / "r.json"
    argv = ["check", "omega", "--builtin", "quintic", "--trunc", "5", "--primes", "auto:5"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == status
    report = json.loads(out.read_text())
    assert [e["code"] for e in report["errors"]] == (["INVALID_PRIME"] if status else [])


def test_fit_command_finds_quintic_constant():
    doc, status = cmd_dispatch(spec("fit-frobenius", trunc=12, primes=(7,)))
    assert status == 0
    assert doc.results[0]["found"] is True
    assert doc.results[0]["unit_pivot"] is True


def test_hypergeom_command():
    doc, status = cmd_dispatch(
        JobSpec(command="hypergeom", source_kind=None, source_value=None,
                alpha=(F(1, 5), F(2, 5), F(3, 5), F(4, 5)),
                beta=(F(1), F(1), F(1), F(1)), scale=F(3125))
    )
    assert status == 0
    assert doc.results[0]["mum_after_monicize"] is True
    assert "D^4" in doc.results[0]["operator"]
