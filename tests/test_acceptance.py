"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality of rationals or a valuation bound; there are no
tolerances anywhere.  Each test prints a `criterion NN PASS (t s)` line
(visible with `pytest -s` or on failure) and enforces the stated runtime
budget.  Run as:

    pytest tests/test_acceptance.py -v
"""

import math
import random
import time
from fractions import Fraction

from mumkit import (
    FrobeniusCandidate,
    SeriesMatrix,
    TruncSeries,
    builtin,
    canonical_coordinate,
    dieudonne_check,
    frobenius_from_constant,
    g_over_f,
    iterate_transfer,
    monicize,
    n_integrality_report,
    omega_congruence_check,
    radius_diagnostic,
    reduction_congruence_check,
    solve_f,
    solve_first_row,
    taylor_gcds,
    transfer_audit,
    twisted_rows,
    uniform_part,
    verify_frobenius,
    vp,
)
from tests.conftest import quintic_f_coeff, quintic_g_coeff
from transfer_oracles import h0, reduction_congruence_parts

F = Fraction


class Timer:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number:02d} {verdict} ({elapsed:.2f} s,"
            f" budget {self.budget} s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget"
                f" ({elapsed:.2f} s)"
            )
        return False


def quintic_at(trunc):
    return monicize(builtin("quintic"), trunc)


def test_criterion_01_quintic_solution_oracle():
    with Timer(1, "solve_f(quintic) equals (5n)!/(n!)^5 for n <= 40", 1):
        f = solve_f(quintic_at(41), 41)
        assert list(f.coeffs) == [quintic_f_coeff(n) for n in range(41)]


def test_criterion_02_quintic_log_solution_oracle():
    with Timer(2, "g equals (5n)!/(n!)^5 (5H_{5n} - 5H_n) for n <= 40", 1):
        row = solve_first_row(quintic_at(41), 41)
        g = row[1]
        assert g.coeffs[1] == 770
        assert list(g.coeffs) == [quintic_g_coeff(n) for n in range(41)]


def test_criterion_03_canonical_coordinate_integrality():
    with Timer(3, "q-coordinate has no bad primes up to order 150", 30):
        row = solve_first_row(quintic_at(150), 150)
        q = canonical_coordinate(row[0], row[1])
        report = n_integrality_report(q.truncate(150), subject="q(quintic)")
        assert report.certified_trunc == 150
        assert report.bad_primes == ()
        assert report.suggested_N == 1


def test_criterion_04_log_series_is_not_integral():
    with Timer(4, "g itself has bad primes up to order 30", 1):
        row = solve_first_row(quintic_at(30), 30)
        report = n_integrality_report(row[1], subject="g(quintic)")
        assert report.bad_primes != ()


def test_criterion_05_cartier_identities_randomized():
    with Timer(5, "both Cartier identities on 200 random series", 5):
        rng = random.Random(20240501)
        primes = (2, 3, 5, 7)
        for trial in range(200):
            p = primes[trial % 4]
            deg = rng.randint(1, 30)
            a = TruncSeries.from_coeffs(
                [F(rng.randint(-99, 99)) for _ in range(deg + 1)]
            )
            b = TruncSeries.from_coeffs(
                [F(rng.randint(-99, 99)) for _ in range(rng.randint(1, 31))]
            )
            assert a.delta().cartier(p).coeffs == (a.cartier(p).delta() * p).coeffs
            prod = a * b.substitute_power(p).truncate(min(a.trunc, b.trunc))
            lhs = prod.cartier(p)
            rhs = a.cartier(p) * b
            n = min(lhs.trunc, rhs.trunc)
            assert lhs.coeffs[:n] == rhs.coeffs[:n]


def test_criterion_06_h0_integrality():
    with Timer(6, "H0 is integral with H0(0) = I at p in {7,11,13}, M=60", 30):
        y = uniform_part(quintic_at(60), 60)
        eye = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
        for p in (7, 11, 13):
            m = h0(y, p)
            assert m.trunc == 60
            assert m.constant_matrix() == eye
            assert m.valuation_profile(p).is_integral


def test_criterion_07_transfer_integrality():
    with Timer(7, "L1 and H1 are 7-integral, H1(0) = diag(1,7,49,343)", 60):
        op = quintic_at(57)
        data = iterate_transfer(uniform_part(op, op.trunc), 7, 1, target_trunc=8)
        assert data.trunc >= 8
        audit = transfer_audit(op, data)
        assert audit.h_constant_ok
        assert data.h.constant_matrix() == tuple(
            tuple(F(7) ** i if i == j else F(0) for j in range(4))
            for i in range(4)
        )
        assert audit.operator_profile.is_integral  # L1 over Z_7 up to order 9
        assert audit.h_profile.is_integral  # H1 over Z_7 up to order 57
        assert audit.equation_residual_order == audit.equation_trunc


def test_criterion_08_iteration_consistency():
    with Timer(8, "direct H2 equals composed H1 * H1^{(L1)}(z^7)", 120):
        y = uniform_part(quintic_at(57), 57)
        data2 = iterate_transfer(y, 7, 2)
        data1 = iterate_transfer(y, 7, 1)
        y1 = uniform_part(data1.operator, data1.operator.trunc)
        composed = data1.h * iterate_transfer(y1, 7, 1).h.substitute_power(7)
        trunc = min(data2.h.trunc, composed.trunc)
        diff = data2.h.truncate(trunc) - composed.truncate(trunc)
        assert trunc >= 49
        assert diff.residual_order() == trunc


def test_criterion_09_transfer_solution_law():
    with Timer(9, "solve_f(L1) = Lambda_7(solve_f(quintic))", 10):
        op = quintic_at(57)
        data = iterate_transfer(uniform_part(op, op.trunc), 7, 1)
        f_top = solve_f(op, 57)
        f_l1 = solve_f(data.operator, data.trunc)
        assert f_l1.coeffs == f_top.cartier(7).coeffs[: data.trunc]


def test_criterion_10_reduction_congruence():
    with Timer(10, "h11 * Lambda_7(f)(z^7) = f mod z^8 and f_k in Z_7", 60):
        op = quintic_at(57)
        f = solve_f(op, 57)
        assert reduction_congruence_check(f, 7, 1)
        assert all(vp(f.coeffs[k], 7) >= 0 for k in range(7))


def test_criterion_11_frobenius_verification_by_construction():
    with Timer(11, "20 random admissible constants give residual order M", 120):
        trunc = 30
        y = uniform_part(quintic_at(trunc), trunc)
        op = quintic_at(trunc)
        rng = random.Random(20240511)
        for _ in range(20):
            gammas = [F(1)] + [
                F(rng.randint(-50, 50), rng.choice([1, 1, 2, 3]))
                for _ in range(3)
            ]
            cand = frobenius_from_constant(
                y, twisted_rows(7, 4, gammas), 7
            )
            ver = verify_frobenius(op, cand)
            assert ver.residual_order == ver.trunc == trunc
            assert ver.constant_shape_ok
            assert ver.det_nonzero


def test_criterion_12_dieudonne_easy_direction():
    with Timer(12, "100 random integer series pass Dieudonne at 2,3,5", 5):
        rng = random.Random(20240512)
        for _ in range(100):
            coeffs = [1] + [rng.randint(-99, 99) for _ in range(11)]
            f = TruncSeries.from_coeffs(coeffs)
            for p in (2, 3, 5):
                ok, _ = dieudonne_check(f.log(), p)
                assert ok
        for p in (2, 3, 5):
            bad = TruncSeries.from_coeffs([1, F(1, p)], 6)
            ok, profile = dieudonne_check(bad.log(), p)
            assert not ok and profile.min_valuation < 0


def test_criterion_13_omega_congruence():
    with Timer(13, "omega congruence for quintic at p in {7,11}, M=60", 30):
        row = solve_first_row(quintic_at(60), 60)
        for p in (7, 11):
            ok, profile = omega_congruence_check(g_over_f(row[0], row[1]), p)
            assert ok, profile


def test_criterion_14_radius_diagnostic_trend():
    with Timer(14, "||A_j||_7 <= 1/7 for j in [30, 50] (truncated norms)", 30):
        diag = radius_diagnostic(taylor_gcds(builtin("quintic"), 32, 50), 7, 50)
        for row in diag.rows[30:]:
            assert row.min_valuation >= 1, row
        assert diag.trending_to_zero


def test_criterion_15_fault_injection_sensitivity():
    with Timer(15, "criteria 1, 6, 7, 10, 11 flip under one perturbation", 60):
        trunc = 16

        def bump(series, index, amount=F(1)):
            coeffs = list(series.coeffs)
            coeffs[index] += amount
            return TruncSeries(tuple(coeffs))

        def bump_matrix(m, i, j, index, amount):
            rows = [list(r) for r in m.entries]
            rows[i][j] = bump(rows[i][j], index, amount)
            return SeriesMatrix(tuple(tuple(r) for r in rows))

        op = quintic_at(trunc)
        y = uniform_part(op, trunc)

        # criterion 1: the closed-form equality breaks
        f = bump(solve_f(op, trunc), 5)
        assert list(f.coeffs) != [quintic_f_coeff(n) for n in range(trunc)]

        # criterion 6: H0 integrality breaks
        h = bump_matrix(h0(y, 7), 1, 2, 4, F(1, 7))
        assert not h.valuation_profile(7).is_integral

        # criterion 7: H1 audit breaks (constant and equation both checked);
        # TransferData holds row 0 of H1 and L1 and derives H1's other rows
        data = iterate_transfer(y, 7, 1)
        row = data.h.entries[0]

        def integer_row(series):
            den = math.lcm(*(e.den for e in series))
            return den, [[x * (den // e.den) for x in e.nums] for e in series]

        bad = type(data)(
            data.p, data.m, data.operator, integer_row((bump(row[0], 0), *row[1:])), data.trunc,
        )
        bad_audit = transfer_audit(op, bad)
        assert not bad_audit.h_constant_ok and not bad_audit.ok
        eq_bad = type(data)(
            data.p, data.m, data.operator, integer_row((*row[:3], bump(row[3], 5))), data.trunc,
        )
        eq_audit = transfer_audit(op, eq_bad)
        assert eq_audit.h_constant_ok
        assert eq_audit.equation_residual_order < eq_audit.equation_trunc
        a = data.operator.coeffs
        l1_bad = type(data)(
            data.p, data.m, type(data.operator)((*a[:2], bump(a[2], 1), a[3])),
            data.h_row0, data.trunc,
        )
        l1_audit = transfer_audit(op, l1_bad)
        assert l1_audit.equation_residual_order < l1_audit.equation_trunc

        # criterion 10: the reduction congruence breaks
        f_true = solve_f(op, trunc)
        h11 = data.h.entries[0][0]
        assert reduction_congruence_parts(h11, f_true, 7, 1)
        assert not reduction_congruence_parts(bump(h11, 3), f_true, 7, 1)

        # criterion 11: the Frobenius residual drops below full order
        cand = frobenius_from_constant(y, twisted_rows(7, 4, [1, 2, 3, 4]), 7)
        broken = FrobeniusCandidate(7, bump_matrix(cand.phi, 3, 1, 6, 1))
        ver = verify_frobenius(op, broken)
        assert ver.residual_order < ver.trunc
