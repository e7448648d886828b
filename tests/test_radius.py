"""Radius diagnostics from row 0 of the integer Taylor matrices
B_j = P_n^j A_j, checked against the dense recurrence
A_{j+1} = delta(A_j) + A_j (A - jI) over the monic operator's companion
matrix, and against the full-matrix B_j recurrence."""

import random
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest

from mumkit import (
    INF,
    NotPIntegralOperator,
    RawOperator,
    SeriesMatrix,
    builtin,
    hypergeometric,
    monicize,
    parse_operator,
    radius_diagnostic,
    taylor_gcds,
)
from mumkit import cli, frobtransfer
from mumkit.cli import JobSpec, cmd_dispatch, load_corpus_file
from mumkit.primes import vp_factorial

from conftest import HG_FAMILIES
from series_oracles import companion, diagonal

LEAD_NOT_UNIT = "(3+z)*D^2 - (3+z)*z*D - (3+z)*z"
NONHYPER = "(2+2*z-z^2)*D^3 + z*D^2 - 3*z^2*D + 5*z^3 - z"
OPS = Path(__file__).resolve().parents[1] / "data" / "operators.ops"


def dense_taylor(op, max_index):
    """A_0 .. A_max_index of a monic operator by dense SeriesMatrix products."""
    a = companion(op)
    n, trunc = a.n, a.trunc
    current = SeriesMatrix.identity(n, trunc)
    for j in range(max_index + 1):
        yield current
        if j < max_index:
            current = current.delta() + current * (a - diagonal([j] * n, trunc))


def dense_rows(op, p, max_index):
    """(j, min v_p(A_j), min v_p(A_j / j!)) from dense SeriesMatrix products."""
    rows = []
    for j, a_j in enumerate(dense_taylor(op, max_index)):
        v = a_j.valuation_profile(p).min_valuation
        rows.append((j, v, v - vp_factorial(j, p)))
    return rows


def row0_valuation(a_j, p):
    return min(e.valuation_profile(p).min_valuation for e in a_j.entries[0])


def full_matrix_taylor(rows, trunc, max_index):
    """B_0 .. B_max_index as n x n lists of coefficient lists mod z^trunc,
    from B_{j+1} = P_n delta(B_j) - j (delta(P_n) + P_n) B_j + B_j C on every
    entry; taylor_gcds runs this recurrence on row 0 only."""
    n = len(rows) - 1
    lead = rows[n][:trunc]
    lead_step = [(k + 1) * c for k, c in enumerate(lead)]  # delta(P_n) + P_n
    last_row = [[-c for c in row[:trunc]] for row in rows[:n]]  # -P_0 .. -P_{n-1}
    b = [[[int(r == c)] + [0] * (trunc - 1) for c in range(n)] for r in range(n)]
    for j in range(max_index + 1):
        yield b
        if j == max_index:
            return
        damp = [-j * c for c in lead_step]
        nxt = []
        for row in b:
            last = row[n - 1]
            new_row = []
            for c, entry in enumerate(row):
                # P_n (delta(B[r][c]) + B[r][c-1]) - j (delta(P_n) + P_n) B[r][c]
                #   - P_c B[r][n-1]
                s = [k * x for k, x in enumerate(entry)]
                if c:
                    s = [x + y for x, y in zip(s, row[c - 1])]
                out = [0] * trunc
                for poly, series in ((lead, s), (damp, entry), (last_row[c], last)):
                    for d, coeff in enumerate(poly):
                        out[d:] = [o + coeff * x for o, x in zip(out[d:], series)]
                new_row.append(out)
            nxt.append(new_row)
        b = nxt


def rows_of(diag):
    return [(r.j, r.min_valuation, r.scaled_min_valuation) for r in diag.rows]


def random_mum_operator(rng):
    """Order 1-4, deg_z <= 3, P_n(0) in {1, 2, -3, 5}, P_i(0) = 0 for i < n.
    Every other operator has P_i = P_n Q_i, so its monic form is polynomial
    and p-integral even where P_n / P_n(0) is not."""
    n = rng.randint(1, 4)
    lead = [rng.choice((1, 2, -3, 5))] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        lower = [[0] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] for _ in range(n)]
    else:
        lower = []
        for _ in range(n):
            q = [0] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            lower.append([sum(lead[k] * q[d - k] for k in range(len(lead)) if 0 <= d - k < len(q))
                          for d in range(len(lead) + len(q) - 1)])
    polys = [tuple(poly) for poly in lower] + [tuple(lead)]
    polys = [poly[: max((k + 1 for k, c in enumerate(poly) if c), default=0)] for poly in polys]
    return RawOperator(tuple(polys))


def test_gcds_of_d_squared():
    # P_n = 1 and A_j = (-1)^{j-1} (j-1)! N for j >= 1
    gcds = taylor_gcds(parse_operator("D^2"), 5, 8).gcds
    assert gcds == (1, 1, 1, 2, 6, 24, 120, 720, 5040)


def test_zero_matrices_give_inf_rows():
    diag = radius_diagnostic(taylor_gcds(parse_operator("D"), 4, 3), 2, 3)
    assert rows_of(diag) == [(0, 0, 0)] + [(j, INF, INF) for j in range(1, 4)]
    assert not diag.trending_to_zero


@pytest.mark.parametrize("seed", range(4))
def test_row_zero_carries_the_least_valuation(seed):
    # where the monic form is p-integral, v_p(row 0 of A_j) never falls as j
    # grows, and rows 1 .. n-1 of A_j lie in the Z-span of later rows 0
    rng = random.Random(100 + seed)
    checked = 0
    for _ in range(8):
        raw = random_mum_operator(rng)
        monic = monicize(raw, rng.randint(3, 7))
        matrices = list(dense_taylor(monic, rng.randint(1, 12)))
        for p in (2, 3, 5, 7):
            if not monic.p_integrality(p).is_integral:
                continue
            row0 = [row0_valuation(a_j, p) for a_j in matrices]
            assert row0 == [a_j.valuation_profile(p).min_valuation for a_j in matrices]
            assert row0 == sorted(row0)
            checked += 1
    assert checked


def test_row_zero_needs_a_p_integral_operator():
    # a_0 = -z/2: row 0 of A_1 = A is e_1, row 1 holds z/2
    raw = parse_operator("2*D^2 - z")
    a_1 = list(dense_taylor(monicize(raw, 4), 1))[1]
    assert row0_valuation(a_1, 2) == 0
    assert a_1.valuation_profile(2).min_valuation == -1
    with pytest.raises(NotPIntegralOperator):
        radius_diagnostic(taylor_gcds(raw, 4, 1), 2, 1)


@pytest.mark.parametrize("seed", range(4))
def test_gcds_are_row_zero_of_the_full_matrices(seed):
    # each g_j is the gcd of row 0 of the full B_j, so a multiple of the gcd
    # of all of B_j
    rng = random.Random(200 + seed)
    for _ in range(8):
        raw = random_mum_operator(rng)
        trunc, max_index = rng.randint(1, 8), rng.randint(0, 12)
        taylor = taylor_gcds(raw, trunc, max_index)
        full = list(full_matrix_taylor(taylor.rows, trunc, max_index))
        assert len(full) == len(taylor.gcds)
        for g, b in zip(taylor.gcds, full):
            assert g == gcd(*(c for entry in b[0] for c in entry))
            whole = gcd(*(c for row in b for entry in row for c in entry))
            assert g % whole == 0 if whole else g == 0


# P_n = 1 - z^2 + 3 z^3: at z^1 only P_0 and P_1 are nonzero (a pass with
# P_{n,d} = 0), at z^0 P_n = 1 and every P_c vanishes
INTERIOR_ZERO_LEAD = RawOperator(((0, 3), (0, -1, 0, 2), (0, 0, 4), (1, 0, -1, 3)))


@pytest.mark.parametrize("trunc", range(1, 9))
def test_first_rows_at_every_small_order(trunc):
    # the fused pass of taylor_gcds yields row 0 of the full B_j
    rng = random.Random(300 + trunc)
    for raw in [random_mum_operator(rng) for _ in range(6)] + [INTERIOR_ZERO_LEAD]:
        rows = taylor_gcds(raw, trunc, 0).rows
        assert list(frobtransfer._first_rows(rows, trunc, 10)) == [
            b[0] for b in full_matrix_taylor(rows, trunc, 10)]


@pytest.mark.parametrize("seed", range(6))
def test_matches_dense_recurrence_on_random_operators(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(8):
        raw = random_mum_operator(rng)
        trunc, max_index = rng.randint(3, 7), rng.randint(0, 9)
        monic = monicize(raw, trunc)
        taylor = taylor_gcds(raw, trunc, max_index)
        for p in (2, 3, 5, 7):
            if not monic.p_integrality(p).is_integral:
                with pytest.raises(NotPIntegralOperator):
                    radius_diagnostic(taylor, p, max_index)
                continue
            expected = dense_rows(monic, p, max_index)
            assert rows_of(radius_diagnostic(taylor, p, max_index)) == expected
            checked += 1
    assert checked


def test_order_free_test_is_sound():
    rng = random.Random(7)
    hits = 0
    for _ in range(40):
        raw = random_mum_operator(rng)
        for p in (2, 3, 5, 7):
            if raw.integral_over_lead(p):
                hits += 1
                assert all(monicize(raw, t).p_integrality(p).is_integral for t in (1, 4, 9))
    assert hits


@pytest.mark.parametrize("text, prime, expected", [
    ("D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)", 5, True),
    (NONHYPER, 3, True),
    (NONHYPER, 2, False),
    ("2*D - z", 2, False),
    (LEAD_NOT_UNIT, 3, False),
    (LEAD_NOT_UNIT, 2, True),
    ("z*D^2 + D - z", 3, False),
])
def test_integral_over_lead(text, prime, expected):
    assert parse_operator(text).integral_over_lead(prime) is expected


def test_lead_not_unit_prime_takes_its_own_path():
    # P_n / P_n(0) = 1 + z/3 is no unit of Z_3[[z]], but a_1 = a_0 = -z
    raw = parse_operator(LEAD_NOT_UNIT)
    taylor = taylor_gcds(raw, 12, 20)
    diag = radius_diagnostic(taylor, 3, 20)
    assert rows_of(diag) == dense_rows(monicize(raw, 12), 3, 20)


def test_lead_divisible_by_p_beyond_the_order():
    # a_0 = -z^5 / 2 vanishes mod z^4, so the monic operator is 2-integral
    # there although P_n(0) = 2: every B_j carries 2^j
    raw = parse_operator("2*D^2 - 2*z*D - z^5")
    taylor = taylor_gcds(raw, 4, 12)
    assert all(g % 2**j == 0 for j, g in enumerate(taylor.gcds))
    diag = radius_diagnostic(taylor, 2, 12)
    assert rows_of(diag) == dense_rows(monicize(raw, 4), 2, 12)
    with pytest.raises(NotPIntegralOperator):
        radius_diagnostic(taylor_gcds(raw, 6, 12), 2, 12)


def test_not_p_integral_operator_raises():
    taylor = taylor_gcds(parse_operator("2*D - z"), 6, 5)
    with pytest.raises(NotPIntegralOperator):
        radius_diagnostic(taylor, 2, 5)
    assert radius_diagnostic(taylor, 3, 5).rows[0].min_valuation == 0


def test_monic_operator_matches_its_polynomial_rows():
    # P_n(0) = 2: the rows of the parsed operator against the dense
    # recurrence over its monic form
    raw = parse_operator(NONHYPER)
    for p in (3, 7):
        by_rows = radius_diagnostic(taylor_gcds(raw, 6, 15), p, 15)
        assert rows_of(by_rows) == dense_rows(monicize(raw, 6), p, 15)


def test_quintic_rows_at_bench_size():
    raw = builtin("quintic")
    taylor = taylor_gcds(raw, 16, 24)
    assert rows_of(radius_diagnostic(taylor, 7, 24)) == dense_rows(monicize(raw, 16), 7, 24)


CORPUS = dict(load_corpus_file(OPS))
BENCH_OPERATORS = {
    **{label: hypergeometric(alpha.split(","), [1] * 4, scale)
       for label, (alpha, scale) in HG_FAMILIES.items()},
    **{label: CORPUS[label] for label in ("cubic2f1", "legendre", "quartic3")},
}


@pytest.mark.parametrize("index, label", enumerate(sorted(BENCH_OPERATORS)))
def test_rows_at_bench_size(index, label):
    # the radius workload's size: T = 32, J = 40, one good prime each
    raw, p = BENCH_OPERATORS[label], (7, 11, 13)[index % 3]
    diag = radius_diagnostic(taylor_gcds(raw, 32, 40), p, 40)
    assert rows_of(diag) == dense_rows(monicize(raw, 32), p, 40)


@pytest.mark.parametrize("label", ["hg07", "hg14", "cubic2f1", "legendre", "quartic3"])
def test_first_rows_at_bench_size(label):
    rows = taylor_gcds(BENCH_OPERATORS[label], 32, 0).rows
    assert list(frobtransfer._first_rows(rows, 32, 40)) == [
        b[0] for b in full_matrix_taylor(rows, 32, 40)]


def test_rejects_bad_arguments():
    raw = parse_operator("D^2 - z")
    with pytest.raises(ValueError):
        taylor_gcds(raw, 4, -1)
    with pytest.raises(ValueError):
        taylor_gcds(raw, 0, 3)
    with pytest.raises(ValueError):
        radius_diagnostic(taylor_gcds(raw, 4, 3), 3, 4)  # beyond the gcds


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_corpus_job_runs_the_recurrence_once_per_operator(monkeypatch):
    calls = _counting(monkeypatch, cli, "taylor_gcds")
    doc, status = cmd_dispatch(JobSpec(command="radius", source_kind="file",
                                       source_value=str(OPS), trunc=8,
                                       primes=(5, 7), max_index=6))
    assert status == 0
    assert len(doc.results) == 8
    assert len(calls) == 4


def _transfer_monicize_orders(monkeypatch, spec):
    """(status, primes with results, monicize orders) of a transfer job."""
    calls = _counting(monkeypatch, cli, "monicize")
    frob_calls = _counting(monkeypatch, frobtransfer, "monicize")
    doc, status = cmd_dispatch(spec)
    assert frob_calls == []
    return status, [r["prime"] for r in doc.results], [order for _, order in calls]


def test_auto_primes_monicize_once_per_working_order(monkeypatch):
    # P_n(0) = 1: the order-free test decides every prime
    spec = JobSpec(command="transfer", source_kind="builtin", source_value="quintic",
                   trunc=3, auto_bound=7)
    assert _transfer_monicize_orders(monkeypatch, spec) == (0, [2, 3, 5, 7], [])


def test_auto_primes_monicize_lead_not_unit_once(monkeypatch):
    # 1 + z/3 is no unit of Z_3[[z]]: p = 3 monicizes at its working order 7,
    # once for the skip rule and the unit together
    spec = JobSpec(command="transfer", source_kind="op", source_value=LEAD_NOT_UNIT,
                   trunc=3, auto_bound=5)
    assert _transfer_monicize_orders(monkeypatch, spec) == (1, [2, 3, 5], [7])


def _radius_monicize_orders(monkeypatch, spec):
    """(status, monicize orders in cli, in frobtransfer) of a radius job."""
    calls = _counting(monkeypatch, cli, "monicize")
    frob_calls = _counting(monkeypatch, frobtransfer, "monicize")
    _, status = cmd_dispatch(spec)
    return status, [order for _, order in calls], [order for _, order in frob_calls]


def test_radius_monicizes_lead_not_unit_once(monkeypatch):
    # p = 3 needs the monic form at order 6: the auto:B rule makes it, and
    # the unit's p-integrality guard reuses it
    for primes, bound in (((2, 3, 5), None), (None, 5)):
        spec = JobSpec(command="radius", source_kind="op", source_value=LEAD_NOT_UNIT,
                       trunc=6, max_index=4, primes=primes, auto_bound=bound)
        assert _radius_monicize_orders(monkeypatch, spec) == (0, [6], [])
    # a library caller that passes no monic form is still guarded
    calls = _counting(monkeypatch, frobtransfer, "monicize")
    radius_diagnostic(taylor_gcds(parse_operator(LEAD_NOT_UNIT), 6, 4), 3, 4)
    assert [order for _, order in calls] == [6]
    with pytest.raises(NotPIntegralOperator):
        radius_diagnostic(taylor_gcds(parse_operator("3*D^2 - z^2"), 6, 4), 3, 4)
    spec = JobSpec(command="radius", source_kind="op", source_value="3*D^2 - z^2",
                   trunc=6, max_index=4, primes=(3,))
    assert _radius_monicize_orders(monkeypatch, spec)[0] == 2


@pytest.mark.parametrize("spec, solver, unused, orders", [
    (JobSpec(command="transfer", source_kind="builtin", source_value="quintic",
             trunc=8, primes=(7, 11)), "uniform_part", "solve_f", [78]),
    (JobSpec(command="check", check_kind="reduction", source_kind="builtin",
             source_value="quintic", trunc=8, primes=(3, 5), level=2),
     "solve_f", "uniform_part", [26]),
], ids=["transfer", "check_reduction"])
def test_per_prime_units_share_one_uniform_part(monkeypatch, spec, solver, unused, orders):
    # Y, or f alone for check reduction, is solved once, at the largest
    # working order of the job's primes, and each prime's unit reads it
    # truncated to its own order
    calls = _counting(monkeypatch, cli, solver)
    unused_calls = _counting(monkeypatch, cli, unused)
    doc, status = cmd_dispatch(spec)
    assert status == 0
    assert [order for _, order in calls] == orders
    assert unused_calls == []
    for p, entry in zip(spec.primes, doc.results):
        alone, _ = cmd_dispatch(replace(spec, primes=(p,)))
        assert alone.results == [entry]


def test_auto_primes_skip_verdicts_keep_the_truncated_test():
    # the order-free test fails at 3 for both operators; monicizing decides
    for text, skipped in [("3*D^2 - z^2", [3]), (LEAD_NOT_UNIT, [])]:
        doc, status = cmd_dispatch(JobSpec(command="radius", source_kind="op",
                                           source_value=text, trunc=6, auto_bound=5,
                                           max_index=4))
        assert status == 0
        assert [r["prime"] for r in doc.results if "skipped" in r] == skipped
        assert [r["prime"] for r in doc.results if "rows" in r] == sorted(
            {2, 3, 5} - set(skipped))

