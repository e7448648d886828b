"""The mirror jobs do only the work their reports read: a first row solved
to fewer columns is exactly the prefix of the full row, the solve job builds
no uniform part, and the Dieudonne check from a log f formed once per
operator equals the ratio formed from the fully substituted series."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import mumkit.cli
import mumkit.solve
from mumkit import (
    TruncSeries,
    dieudonne_check,
    g_over_f,
    hypergeometric,
    monicize,
    parse_operator,
    solve_f,
    solve_first_row,
)
from mumkit.cli import load_corpus_file, main

from conftest import HG_FAMILIES

NONHYPER = "(2+2*z-z^2)*D^3 + z*D^2 - 3*z^2*D + 5*z^3 - z"
OPERATORS = {
    **dict(load_corpus_file(Path(__file__).resolve().parents[1] / "data" / "operators.ops")),
    **{label: hypergeometric(alpha.split(","), [1] * 4, scale)
       for label, (alpha, scale) in HG_FAMILIES.items()},
    "quintic_unscaled": hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1] * 4),
    "nonhyper": parse_operator(NONHYPER),
    "lead_not_unit": parse_operator("(3+z)*D^2 - (3+z)*z*D - (3+z)*z"),
    "monic_quintic": monicize(parse_operator("D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)"), 30),
}


@pytest.mark.parametrize("label", sorted(OPERATORS))
def test_narrow_first_row_is_the_prefix_of_the_full_row(label):
    # the recurrence mod e^w is the full one truncated, and each series is
    # stored reduced, so the narrow row must match in nums and den alike
    op = OPERATORS[label]
    full = solve_first_row(op, 30)
    assert solve_first_row(op, 30, op.order) == full
    for width in range(1, op.order + 1):
        row = solve_first_row(op, 30, width)
        assert [(s.nums, s.den) for s in row] == [(s.nums, s.den) for s in full[:width]]
    assert solve_f(op, 30) == full[0]


def test_first_row_count_out_of_range():
    op = parse_operator(NONHYPER)
    for count in (0, -1, op.order + 1):
        with pytest.raises(ValueError):
            solve_first_row(op, 8, count)


def test_solve_job_builds_no_uniform_part(tmp_path, monkeypatch):
    # the report and verify_solution read the first row alone
    def unread(*args, **kwargs):
        raise AssertionError("the solve job built the uniform part")

    monkeypatch.setattr(mumkit.solve, "uniform_part", unread)
    monkeypatch.setattr(mumkit.cli, "uniform_part", unread)
    out = tmp_path / "r.json"
    assert main(["solve", "--builtin", "quintic", "--trunc", "12", "--format", "json",
                 "--out", str(out)]) == 0
    [entry] = json.loads(out.read_text())["results"]
    assert entry["residual_order"] == 12 and len(entry["first_row"]) == 4


def dieudonne_by_full_substitution(log_f, p):
    """The Dieudonne check with L(z^p) formed to order p(M-1)+1, then cut."""
    M = log_f.trunc
    ratio = (p * log_f - log_f.substitute_power(p).truncate(M)).exp()
    profile = ((ratio - TruncSeries.one(M)) * Fraction(1, p)).valuation_profile(p)
    return profile.is_integral, profile


@pytest.mark.parametrize("label", ["quintic", "legendre", "quartic3", "hg09",
                                   "quintic_unscaled", "nonhyper", "lead_not_unit"])
def test_dieudonne_from_log_f_matches_dieudonne_check(label):
    f = solve_f(OPERATORS[label], 30)
    log_f = f.log()
    for p in (2, 3, 5, 7, 13):
        assert dieudonne_check(log_f, p) == dieudonne_by_full_substitution(log_f, p)
        # a caller wanting fewer orders truncates log f, or f before its log
        assert (dieudonne_check(log_f.truncate(12), p)
                == dieudonne_check(f.truncate(12).log(), p)
                == dieudonne_by_full_substitution(f.truncate(12).log(), p))


@pytest.mark.parametrize("label", ["quintic", "hg09", "quintic_unscaled", "nonhyper"])
def test_substitution_to_the_check_order_is_the_cut_full_substitution(label):
    # the checks form x(z^p) mod z^M directly; it must be the same reduced
    # series as the full p(M-1)+1 substitution cut to M
    f, g = solve_first_row(OPERATORS[label], 30, 2)
    for x in (f.log(), g_over_f(f, g)):
        for p in (2, 3, 5, 7, 13, 29, 31):
            direct = x.substitute_power(p, x.trunc)
            cut = x.substitute_power(p).truncate(x.trunc)
            assert (direct.nums, direct.den) == (cut.nums, cut.den)
