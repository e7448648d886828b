"""Transfer constructions and audits that use the structure they know,
checked against the dense monic forms in transfer_oracles.

L_m is read off the last row of F_q, q = p^m, in one step; the oracle
transfers one prime at a time and solves every intermediate level.  H_m is
built from its first row by the companion recursion of L_m; the oracle is
the product Y (Lambda_q(Y)(z^q))^{-1} diag(1, q, ...) at Y's full order.

The audits read L's polynomial rows: the residuals are the monic ones times
P_n (transfer_audit) or P_n(z) P_n(z^p) (verify_frobenius), whose constant
terms are nonzero, so every residual order must equal the oracle's, for the
true H or Phi and after any single-coefficient fault.  transfer_audit forms
only the last row of its equation, since TransferData derives H's rows
1 .. n-1 from row 0 and L_m by the others; the oracle forms all n x n
entries.  So the transfer faults go into what TransferData holds, row 0 of
H and the coefficients of L_m, and into the audited operator's P_k.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mumkit import (
    ApparentSingularityAtZero,
    DeltaOperator,
    FrobeniusCandidate,
    INF,
    RawOperator,
    SeriesMatrix,
    TransferData,
    TruncSeries,
    fit_frobenius_constant,
    frobenius_from_constant,
    hypergeometric,
    iterate_transfer,
    monicize,
    transfer_audit,
    twisted_rows,
    uniform_part,
    verify_frobenius,
    vp,
    working_trunc_for,
)
from mumkit import frobtransfer
from mumkit.series import right_divide

from mumkit.cli import load_corpus_file, main
from tests.conftest import HG_FAMILIES, random_mum_operator
from series_oracles import diagonal, newton_matrix_inverse
from transfer_oracles import (
    frobenius_by_rows,
    frobenius_quotient_F,
    frobenius_residual_order,
    h_from_frobenius,
    h_matrix_closed_form,
    iterate_transfer_levels,
    phi_basis_by_rows,
    transfer_residual_order,
)

LEVELS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def shift_rows(n):
    return tuple(tuple(Fraction(int(j == i + 1)) for j in range(n)) for i in range(n))


def bump(series, k, delta):
    """series with delta added to coefficient k."""
    coeffs = list(series.coeffs)
    coeffs[k] += delta
    return TruncSeries(tuple(coeffs))


def with_fault(mat, i, j, k, delta):
    """mat with delta added to coefficient k of entry (i, j)."""
    entries = [list(row) for row in mat.entries]
    entries[i][j] = bump(entries[i][j], k, delta)
    return SeriesMatrix(tuple(tuple(row) for row in entries))


def row0_fault(data, j, k, delta):
    """data with delta added to coefficient k of entry j of H's row 0, an
    integer row (den, [numerator lists]), restated over den times delta's
    denominator."""
    den, nums = data.h_row0
    delta = Fraction(delta)
    nums = [[x * delta.denominator for x in e] for e in nums]
    nums[j][k] += delta.numerator * den
    return replace(data, h_row0=(den * delta.denominator, nums))


def over_factor(row, f):
    """The integer row (den, nums) restated over f den, not reduced."""
    den, nums = row
    return f * den, [[f * x for x in e] for e in nums]


def operator_fault(data, j, k, delta):
    """data with delta added to coefficient k of a_j of L_m."""
    coeffs = list(data.operator.coeffs)
    coeffs[j] = bump(coeffs[j], k, delta)
    return replace(data, operator=DeltaOperator(tuple(coeffs)))


def poly_fault(raw, i, k, delta):
    """raw with the integer delta added to coefficient k of P_i."""
    polys = [list(poly) for poly in raw.poly_coeffs]
    polys[i] += [0] * (k + 1 - len(polys[i]))
    polys[i][k] += delta
    return RawOperator(tuple(map(tuple, polys)))


def faults(mat, upto, rng, count):
    """`count` random single-coefficient faults of mat below order `upto`."""
    for _ in range(count):
        i, j = rng.randrange(mat.n), rng.randrange(mat.n)
        k = rng.randrange(upto)
        yield with_fault(mat, i, j, k, Fraction(rng.choice((1, -2, 3)), rng.choice((1, 3, 5))))


def data_faults(data, rng, count):
    """`count` random single-coefficient faults of row 0 of H or of L_m."""
    n = data.operator.order
    for _ in range(count):
        delta = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 3, 5)))
        if rng.random() < 0.5:
            yield row0_fault(data, rng.randrange(n), rng.randrange(data.h.trunc), delta)
        else:
            yield operator_fault(data, rng.randrange(n), rng.randrange(data.operator.trunc), delta)


def transfer_case(rng, p, m):
    raw = random_mum_operator(rng)
    working = working_trunc_for(3, p, m)
    return raw, monicize(raw, working), iterate_transfer(uniform_part(raw, working), p, m)


def audit_order(op, data):
    audit = transfer_audit(op, data)
    return audit.equation_residual_order, audit.equation_trunc


def verify_order(op, cand):
    ver = verify_frobenius(op, cand)
    return ver.residual_order, ver.trunc


@pytest.mark.parametrize("seed", range(4))
def test_h_matrix_and_last_row_of_f_match_the_closed_forms(seed):
    rng = random.Random(seed)
    for p, m in LEVELS:
        raw = random_mum_operator(rng)
        y = uniform_part(raw, working_trunc_for(3, p, m))
        for level in (1, 2):
            assert iterate_transfer(y, p, level).h == h_matrix_closed_form(y, p, level)
            q = p**level
            lam = y.cartier(q)
            full = frobenius_quotient_F(y, shift_rows(raw.order), q)
            assert frobtransfer._quotient_last_row(lam, q) == full.entries[-1]


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2)])
def test_right_divide_by_lambda_matches_the_oracle_inverse(quintic_raw, p, m):
    # the denominators of Lambda_q(Y) grow with the order here, so each
    # class of the right division has a denominator that grows
    rng = random.Random(800 + p)
    q = p**m
    for raw in (quintic_raw, random_mum_operator(rng)):
        y = uniform_part(raw, working_trunc_for(4, p, m))
        lam = y.cartier(q)
        last = lam.entries[-1][-1]
        assert last.truncate(2).den < last.truncate(3).den < last.den
        lam_inv = newton_matrix_inverse(lam)
        top = SeriesMatrix((y.entries[0],) * y.n)
        (row0,) = right_divide((y.rows[0],), lam, q)
        assert SeriesMatrix.from_rows((row0,) * y.n) == top * lam_inv.substitute_power(q, y.trunc)
        # the same division from rows over a larger denominator: Y solved
        # beyond the working order and truncated
        cut = uniform_part(raw, y.trunc + 5).truncate(y.trunc)
        assert cut.rows[0][0] != y.rows[0][0]
        assert right_divide((cut.rows[0],), cut.cartier(q), q) == (row0,)
        full = frobenius_quotient_F(y, shift_rows(y.n), q)
        assert frobtransfer._quotient_last_row(lam, q) == full.entries[-1]


@pytest.mark.parametrize("seed", range(3))
def test_uniform_part_truncated_is_the_uniform_part_at_the_lower_order(quintic_raw, seed):
    # truncation keeps the rows' denominators, so Y at W truncated to w has
    # unreduced rows; its entries, and every transfer value built from it,
    # are those of Y solved at w, as the CLI truncates Y from a job's top order
    rng = random.Random(900 + seed)
    raw = quintic_raw if seed == 0 else random_mum_operator(rng)
    for p, m, target in ((3, 1, 4), (5, 1, 3), (2, 2, 3)):
        w = working_trunc_for(target, p, m)
        y = uniform_part(raw, w)
        for top in (w + 1, w + rng.randint(2, 9), 2 * w + 3):
            cut = uniform_part(raw, top).truncate(w)
            assert cut == y and cut.rows[0][0] == uniform_part(raw, top).rows[0][0]
            assert cut.entries == y.entries
            for level in range(1, m + 1):
                data, fresh = iterate_transfer(cut, p, level), iterate_transfer(y, p, level)
                assert data.operator == fresh.operator and data.h == fresh.h
                assert transfer_audit(raw, data) == transfer_audit(raw, fresh)
            assert fit_frobenius_constant(cut, p) == fit_frobenius_constant(y, p)
            constant = twisted_rows(p, y.n, [1] + [rng.randint(-3, 3) for _ in range(y.n - 1)])
            assert frobenius_from_constant(cut, constant, p) == \
                frobenius_from_constant(y, constant, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_h_rows_match_the_closed_forms_at_levels_1_to_3(p):
    rng = random.Random(400 + p)
    for m in (1, 2, 3):
        raw = random_mum_operator(rng)
        y = uniform_part(raw, working_trunc_for(3, p, m))
        data = iterate_transfer(y, p, m)
        # row 0 is stored reduced: the same row over 6 p^2 times its
        # denominator, which every numerator then shares, is the same data
        den, nums = data.h_row0
        assert math.gcd(den, *(x for e in nums for x in e)) == 1
        unreduced = replace(data, h_row0=over_factor(data.h_row0, 6 * p * p))
        assert unreduced == data and hash(unreduced) == hash(data)
        for case in (data, unreduced):
            assert case.h == h_matrix_closed_form(y, p, m)
            # rows 0 .. n-2 of the residual vanish by construction, the last
            # row because H is the true H_m
            expected = transfer_residual_order(monicize(raw, y.trunc), case)
            assert audit_order(raw, case) == expected == (expected[1],) * 2
        valuations = [vp(c, p) for row in data.h.entries for e in row for c in e.coeffs]
        assert data.h.valuation_profile(p).min_valuation == min(valuations, default=INF)


@pytest.mark.parametrize("label", sorted(HG_FAMILIES))
def test_h_rows_match_the_closed_forms_at_bench_size(label):
    # the transfer workload's size: T = 8 at p = 7 and 11, W = 50 and 78
    alpha, scale = HG_FAMILIES[label]
    raw = hypergeometric(alpha.split(","), [1] * 4, scale)
    for p in (7, 11):
        y = uniform_part(raw, working_trunc_for(8, p, 1))
        assert iterate_transfer(y, p, 1).h == h_matrix_closed_form(y, p, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transfer_operator_matches_the_level_by_level_oracle(p):
    rng = random.Random(300 + p)
    for m in (1, 2, 3):
        raw = random_mum_operator(rng)
        y = uniform_part(raw, working_trunc_for(3, p, m))
        data = iterate_transfer(y, p, m)
        assert data.operator == iterate_transfer_levels(y, p, m)
        # Y_{L_m} = S Lambda_q(Y) S^{-1}, S = diag(1, q^-1, ...): entry (i, j)
        # is q^(j-i) Lambda_q(Y)_ij
        q = p**m
        lam = y.cartier(q)
        conjugated = SeriesMatrix(tuple(
            tuple(e * Fraction(q) ** (j - i) for j, e in enumerate(row))
            for i, row in enumerate(lam.entries)
        ))
        assert uniform_part(data.operator, data.trunc) == conjugated


@pytest.mark.parametrize("seed", range(4))
def test_transfer_residual_matches_the_monic_oracle(seed):
    rng = random.Random(100 + seed)
    broken = 0
    for p, m in LEVELS:
        raw, monic, data = transfer_case(rng, p, m)
        expected = transfer_residual_order(monic, data)
        assert expected[0] == expected[1]
        assert audit_order(raw, data) == audit_order(monic, data) == expected
        for bad in data_faults(data, rng, 6):
            expected = transfer_residual_order(monic, bad)
            assert audit_order(raw, bad) == audit_order(monic, bad) == expected
            broken += expected[0] < expected[1]
        for _ in range(2):
            # an integer that no P_n(0) of random_mum_operator cancels
            bad_raw = poly_fault(raw, rng.randrange(raw.order + 1),
                                 rng.randrange(data.h.trunc), rng.choice((7, -11)))
            bad_monic = monicize(bad_raw, monic.trunc)
            expected = transfer_residual_order(bad_monic, data)
            assert audit_order(bad_raw, data) == audit_order(bad_monic, data) == expected
            broken += expected[0] < expected[1]
    assert broken


CORPUS = Path(__file__).resolve().parents[1] / "data" / "operators.ops"


def test_transfer_residual_equals_the_full_oracle_on_the_corpus_and_families():
    ops = load_corpus_file(CORPUS) + [
        (label, hypergeometric(alpha.split(","), [1] * 4, scale))
        for label, (alpha, scale) in sorted(HG_FAMILIES.items())
    ]
    for label, raw in ops:
        for p, m, target in ((2, 1, 4), (3, 1, 3), (5, 1, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2),
                             (3, 3, 2)):
            working = working_trunc_for(target, p, m)
            monic = monicize(raw, working)
            data = iterate_transfer(uniform_part(raw, working), p, m)
            # the true data, a fault in row 0 of H and one in L_m
            for case in (data, row0_fault(data, raw.order - 1, working // 2, Fraction(1, 3)),
                         operator_fault(data, 0, data.trunc - 1, Fraction(1, 3))):
                expected = transfer_residual_order(monic, case)
                assert audit_order(raw, case) == expected, (label, p, m)
                assert (expected[0] == expected[1]) == (case is data), (label, p, m)


def test_transfer_residual_after_every_single_fault():
    rng = random.Random(7)
    raw = RawOperator(((0, 2, -1), (0, 0, 3), (0, 1), (2, 1, -1)))
    for p, m, target in ((5, 1, 3), (3, 1, 4), (2, 2, 3)):
        working = working_trunc_for(target, p, m)
        monic = monicize(raw, working)
        data = iterate_transfer(uniform_part(raw, working), p, m)
        check = transfer_residual_order(monic, data)[1]
        assert check == data.h.trunc == working
        for fault, order in ((row0_fault, working), (operator_fault, data.trunc)):
            for j in range(3):
                for k in range(order):
                    bad = fault(data, j, k, Fraction(rng.choice((1, -1)), p))
                    audit = transfer_audit(raw, bad)
                    expected = transfer_residual_order(monic, bad)
                    assert (audit.equation_residual_order, audit.equation_trunc) == expected
                    if k:
                        assert expected[0] < check  # no fault escapes the equation
                    elif fault is row0_fault:
                        assert not audit.h_constant_ok
                    else:
                        assert not audit.operator_is_mum and expected[0] < check
        # the last row's other input, P_k of the audited operator: a fault
        # c z^k adds c z^k H_k, and H_k(0) = q^k e_k except H_n(0) = 0
        for i in range(4):
            for k in range(check):
                bad_raw = poly_fault(raw, i, k, rng.choice((1, -1)))
                bad_monic = monicize(bad_raw, working)
                expected = transfer_residual_order(bad_monic, data)
                assert audit_order(bad_raw, data) == audit_order(bad_monic, data) == expected
                assert (expected[0] < check) == (i < 3 or k < check - 1)


@pytest.mark.parametrize("seed", range(4))
def test_frobenius_residual_matches_the_monic_oracle(seed):
    rng = random.Random(200 + seed)
    broken = 0
    for p in (3, 5, 7):
        raw = random_mum_operator(rng)
        n, trunc = raw.order, rng.randint(6, 12)
        y = uniform_part(raw, trunc)
        monic = monicize(raw, trunc)
        constant = twisted_rows(p, n, [1] + [rng.randint(-3, 3) for _ in range(n - 1)])
        cand = frobenius_from_constant(y, constant, p)
        for op in (raw, monic):
            assert verify_frobenius(op, cand).residual_order == cand.trunc
        assert frobenius_residual_order(monic, cand) == (trunc, trunc)
        assert verify_order(raw, cand) == verify_order(monic, cand) == (trunc, trunc)
        # a monic operator known to a lower order caps the check order
        low = monicize(raw, trunc - 2)
        assert verify_order(low, cand) == frobenius_residual_order(low, cand) == (trunc - 2,) * 2
        for bad_phi in faults(cand.phi, trunc, rng, 6):
            bad = FrobeniusCandidate(p, bad_phi)
            expected = frobenius_residual_order(monic, bad)
            assert verify_order(raw, bad) == verify_order(monic, bad) == expected
            broken += expected[0] < expected[1]
    assert broken


@pytest.mark.parametrize("p, m, target", [(2, 1, 4), (3, 1, 3), (5, 1, 3), (7, 1, 3),
                                           (2, 2, 3), (3, 2, 2)])
def test_h_rows_match_the_frobenius_identity(quintic_raw, p, m, target):
    # H_m = Phi_m Lambda_q(Phi_m)(z^q)^{-1} diag(1, q, ...) for every
    # admissible constant, integral or not
    rng = random.Random(700 + 10 * p + m)
    for raw in (quintic_raw, random_mum_operator(rng)):
        y = uniform_part(raw, working_trunc_for(target, p, m))
        gammas = [Fraction(rng.choice((1, -2, 3)), rng.choice((1, 5, 7)))] + [
            Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) for _ in range(y.n - 1)]
        constant = twisted_rows(p, y.n, gammas)
        assert iterate_transfer(y, p, m).h == h_from_frobenius(y, constant, p, m)


def quartic3():
    return dict(load_corpus_file(CORPUS))["quartic3"]


def audit_cases():
    """(operator, transfer data): seeded random operators with their true
    data and faults in what TransferData holds, one of them in H(0), and
    quartic3 at p = 2, whose H has negative valuations."""
    rng = random.Random(500)
    for p, m in LEVELS:
        raw, _, data = transfer_case(rng, p, m)
        yield raw, data
        yield raw, row0_fault(data, 0, 0, Fraction(1, 3))
        for bad in data_faults(data, rng, 3):
            yield raw, bad
    raw = quartic3()
    for m in (1, 2):
        yield raw, iterate_transfer(uniform_part(raw, working_trunc_for(4, 2, m)), 2, m)


def test_audit_reads_h_profile_and_h_constant_off_the_rows():
    seen = set()
    for raw, data in audit_cases():
        audit = transfer_audit(raw, data)
        q = data.p**data.m
        expected = diagonal([q**i for i in range(raw.order)], 1).constant_matrix()
        assert audit.h_profile == data.h.valuation_profile(data.p)
        assert audit.h_constant_ok == (data.h.constant_matrix() == expected)
        seen.add((audit.h_profile.is_integral, audit.h_constant_ok))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def fit_basis_cases():
    """(Y, p): uniform parts of seeded random operators, of the quintic and
    of quartic3, some at orders past p^2."""
    rng = random.Random(600)
    cases = [(uniform_part(random_mum_operator(rng), rng.randint(6, 12)), p) for p in (2, 3, 5, 7)]
    cases += [(uniform_part(random_mum_operator(rng), p * p + 2), p) for p in (2, 3, 5)]
    quintic = hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1, 1, 1, 1], 5**5)
    return cases + [(uniform_part(quintic, 27), 5), (uniform_part(quartic3(), 12), 2),
                    (uniform_part(quartic3(), 11), 3)]


def test_fit_basis_matches_the_triple_products():
    # Phi for the gammas e_r is Y C Y(z^p)^{-1}, C = twisted_rows(e_r), here
    # with the inverse at the full order, and every row of Y C right-divided
    for y, p in fit_basis_cases():
        n, trunc = y.n, y.trunc
        y_sub_inv = newton_matrix_inverse(y).substitute_power(p, trunc)
        basis = frobtransfer._phi_basis(y, p)
        assert basis == phi_basis_by_rows(y, p)
        for r, phi in enumerate(basis):
            constant = SeriesMatrix.from_constant(
                twisted_rows(p, n, [int(k == r) for k in range(n)]), trunc)
            assert phi == y * constant * y_sub_inv


def test_fit_basis_candidate_matches_the_triple_products():
    # the same for frobenius_from_constant at rational gammas
    rng = random.Random(601)
    for y, p in fit_basis_cases():
        gammas = [Fraction(rng.choice((1, -2, 3)), rng.choice((1, p)))]
        gammas += [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, p))) for _ in range(y.n - 1)]
        constant = twisted_rows(p, y.n, gammas)
        phi = frobenius_from_constant(y, constant, p).phi
        assert phi == frobenius_by_rows(y, constant, p)
        y_sub_inv = newton_matrix_inverse(y).substitute_power(p, y.trunc)
        assert phi == y * SeriesMatrix.from_constant(constant, y.trunc) * y_sub_inv


def test_not_a_uniform_part_is_refused(quintic_y20):
    # rows 1 .. n-1 of Phi are derived from row 0, which is exact only when
    # Y's rows follow Y_{i+1} = delta(Y_i) + Y_i N; a fault in any row
    # below row 0 breaks that rule and must raise, not be fitted
    constant = twisted_rows(7, 4, [1, 0, 0, 0])
    for i, j, k in ((2, 1, 3), (1, 0, 5), (3, 3, 19)):
        bad_y = with_fault(quintic_y20, i, j, k, Fraction(1, 7**4))
        with pytest.raises(ValueError, match="not a uniform part"):
            fit_frobenius_constant(bad_y, 7)
        with pytest.raises(ValueError, match="not a uniform part"):
            frobenius_from_constant(bad_y, constant, 7)


@pytest.mark.parametrize("working, p, m", [(12, 3, 2), (40, 5, 2)])
def test_audit_checks_to_the_order_of_the_rows(quintic_raw, working, p, m):
    # W is not of the form q (T - 1) + 1, and the rows are known to
    # min(W, q L_m.trunc) = W; a monic operator caps the check at its order
    data = iterate_transfer(uniform_part(quintic_raw, working), p, m)
    audit = transfer_audit(quintic_raw, data)
    assert data.h.trunc == audit.equation_trunc == audit.equation_residual_order == working
    assert audit.ok
    low = monicize(quintic_raw, working - 2)
    assert audit_order(low, data) == transfer_residual_order(low, data) == (working - 2,) * 2


def test_transfer_command_never_builds_h(monkeypatch, tmp_path):
    reads = []
    monkeypatch.setattr(TransferData, "h", property(reads.append))
    out = tmp_path / "report.json"
    status = main(["transfer", "--builtin", "quintic", "--trunc", "3", "--primes", "2,5,7",
                   "--level", "2", "--format", "json", "--out", str(out)])
    assert status == 0 and "h_constant_diagonal" in out.read_text()
    assert not reads


def test_transfer_data_and_audit_refuse_mismatched_orders():
    raw = RawOperator(((0, 2, -1), (0, 0, 3), (0, 1), (2, 1, -1)))
    data = iterate_transfer(uniform_part(raw, 11), 5, 1)
    with pytest.raises(ValueError):
        replace(data, h_row0=(data.h_row0[0], data.h_row0[1][:2]))
    with pytest.raises(ValueError):
        transfer_audit(RawOperator(((0, 1), (0, 1), (1,))), data)


def test_audit_rejects_an_apparent_singularity():
    raw = RawOperator(((0, 1), (0, 1), (0, 1)))  # P_n(0) = 0
    with pytest.raises(ApparentSingularityAtZero):
        verify_frobenius(raw, FrobeniusCandidate(3, SeriesMatrix.identity(2, 5)))
