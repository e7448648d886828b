from fractions import Fraction

import pytest

from mumkit import (
    BadConstantShape,
    FrobeniusCandidate,
    InsufficientTruncation,
    NotPIntegralOperator,
    SeriesMatrix,
    TruncSeries,
    certified_trunc,
    fit_frobenius_constant,
    frobenius_from_constant,
    iterate_transfer,
    monicize,
    parse_operator,
    radius_diagnostic,
    reduction_congruence_check,
    solve_f,
    taylor_gcds,
    transfer_audit,
    transfer_operator_L1,
    twisted_rows,
    uniform_part,
    verify_frobenius,
    working_trunc_for,
)
from mumkit.primes import vp_factorial

from series_oracles import (
    agrees_with,
    diagonal,
    matrix_from_rows,
    newton_matrix_inverse,
    z_power,
)
from transfer_oracles import (
    frobenius_quotient_F,
    h0,
    h_matrix_closed_form,
    reduction_congruence_parts,
)

F = Fraction


def identity_rows(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def shift_rows(n):
    return tuple(tuple(F(int(j == i + 1)) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# constant shapes
# ---------------------------------------------------------------------------


def test_twisted_rows_structure():
    rows = twisted_rows(7, 4, [1, 2, 3, 4])
    assert rows[0] == (1, 2, 3, 4)
    assert rows[1] == (0, 7, 14, 21)
    assert rows[3] == (0, 0, 0, 343)
    # N C = p C N
    n = 4
    nil = shift_rows(n)
    nc = [
        [sum(nil[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    cn = [
        [sum(rows[i][k] * nil[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert nc == [[7 * x for x in row] for row in cn]


def test_twisted_determinant_property():
    for mu in (1, -1, F(3, 2)):
        rows = twisted_rows(5, 3, [mu, 9, -2])
        det = rows[0][0] * rows[1][1] * rows[2][2]
        assert det == F(5) ** 3 * mu**3  # p^{n(n-1)/2} mu^n with n = 3


def test_untwisted_upper_triangular_is_rejected():
    # upper triangular with the right diagonal but without the twist
    rows = (
        (F(1), F(1), F(0)),
        (F(0), F(5), F(0)),  # twist would force entry (1,2) = 5
        (F(0), F(0), F(25)),
    )
    with pytest.raises(BadConstantShape):
        frobenius_from_constant(SeriesMatrix.identity(3, 4), rows, 5)


# ---------------------------------------------------------------------------
# H0 and the quotient system
# ---------------------------------------------------------------------------


def test_h0_identity_matrix():
    eye = SeriesMatrix.identity(3, 6)
    assert h0(eye, 5) == eye


def test_h0_quintic_integral(quintic_y20):
    m = h0(quintic_y20, 7)
    assert m.constant_matrix() == identity_rows(4)
    assert m.valuation_profile(7).is_integral


def test_h0_defining_identity(quintic_y20):
    # H0 * Y = Lambda_p(Y)(z^p)
    for p in (2, 7):
        lhs = h0(quintic_y20, p) * quintic_y20
        rhs = quintic_y20.cartier(p).substitute_power(p, 20)
        assert (lhs - rhs).residual_order() == 20


def test_quotient_trivial_cases():
    eye = SeriesMatrix.identity(3, 9)
    zero_n = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    assert frobenius_quotient_F(eye, zero_n, 3).is_zero()
    f = frobenius_quotient_F(eye, shift_rows(3), 3)
    assert f.constant_matrix() == tuple(
        tuple(F(int(j == i + 1), 3) for j in range(3)) for i in range(3)
    )


def test_quotient_constant_and_residual(quintic_y20):
    p = 7
    nil = shift_rows(4)
    f = frobenius_quotient_F(quintic_y20, nil, p)
    assert f.trunc == 3  # ceil(20/7)
    c = f.constant_matrix()
    assert tuple(tuple(p * x for x in row) for row in c) == nil
    # F * Lambda_p(Y) = delta(Lambda_p(Y)) + Lambda_p(Y) N/p
    lam = quintic_y20.cartier(p)
    nmat = SeriesMatrix.from_constant(nil, lam.trunc).scale(F(1, p))
    assert (f * lam - lam.delta() - lam * nmat).residual_order() == lam.trunc


# ---------------------------------------------------------------------------
# transferred operator
# ---------------------------------------------------------------------------


def test_transfer_operator_from_zero_matrix():
    zero = SeriesMatrix.from_constant(
        [[0] * 4 for _ in range(4)], 5
    )
    op = transfer_operator_L1(zero.entries[-1], 7)
    assert op.order == 4
    assert all(a.is_zero() for a in op.coeffs)


def test_transfer_operator_quintic(quintic30):
    p = 7
    y = uniform_part(quintic30, 30)
    f = frobenius_quotient_F(y, shift_rows(4), p)
    l1 = transfer_operator_L1(f.entries[-1], p)
    assert l1.is_mum()
    assert l1.p_integrality(p).is_integral
    # solution transfer: solve_f(L1) = Lambda_p(solve_f(L))
    f_top = solve_f(quintic30, 30)
    f_down = solve_f(l1, l1.trunc)
    assert agrees_with(f_down, f_top.cartier(p))


# ---------------------------------------------------------------------------
# iterated transfer
# ---------------------------------------------------------------------------


def test_iterate_transfer_trivial_operator():
    op = monicize(parse_operator("D^3"), 18)
    data = iterate_transfer(uniform_part(op, op.trunc), 2, 2)
    assert all(a.is_zero() for a in data.operator.coeffs)
    diag = [F(1), F(4), F(16)]
    assert data.h == diagonal(diag, 18)
    assert data.trunc == 5  # ceil(ceil(18/2)/2)


def test_iterate_transfer_level_one_equals_the_closed_form(quintic_y30):
    p = 7
    data = iterate_transfer(quintic_y30, p, 1)
    # H_m from its first row must match the product form
    assert data.h == h_matrix_closed_form(quintic_y30, p, 1)
    assert data.h.constant_matrix() == tuple(
        tuple(F(p) ** i if i == j else F(0) for j in range(4)) for i in range(4)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_certified_trunc_is_m_nested_ceilings(p, m):
    for working in range(1, 201):
        nested = working
        for _ in range(m):
            nested = -(-nested // p)
        assert certified_trunc(working, p, m) == nested


def test_iterate_transfer_budget_guard(quintic_y30):
    with pytest.raises(InsufficientTruncation):
        iterate_transfer(quintic_y30, 7, 2, target_trunc=5)
    with pytest.raises(ValueError):
        working_trunc_for(5, 7, 0)


def test_transfer_audit_quintic(quintic30, quintic_y30):
    data = iterate_transfer(quintic_y30, 7, 1)
    audit = transfer_audit(quintic30, data)
    assert audit.h_constant_ok
    assert audit.equation_residual_order == audit.equation_trunc
    assert audit.h_profile.is_integral
    assert audit.operator_profile.is_integral
    assert audit.operator_is_mum
    assert audit.ok


def test_iterate_transfer_dual_path_small():
    # direct closed form vs composed H_{m+1} = H_m * H_1^{(L_m)}(z^{p^m})
    p = 2
    raw = parse_operator("D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)")
    op = monicize(raw, 21)
    y = uniform_part(op, 21)
    data2 = iterate_transfer(y, p, 2)
    data1 = iterate_transfer(y, p, 1)
    y1 = uniform_part(data1.operator, data1.operator.trunc)
    composed = data1.h * iterate_transfer(y1, p, 1).h.substitute_power(p)
    diff = data2.h.truncate(composed.trunc) - composed.truncate(composed.trunc)
    assert diff.residual_order() == composed.trunc
    # solution law at level 2
    f_top = solve_f(op, 21)
    f2 = solve_f(data2.operator, data2.trunc)
    assert agrees_with(f2, f_top.cartier(p).cartier(p))


# ---------------------------------------------------------------------------
# Frobenius verification and construction
# ---------------------------------------------------------------------------


def test_verify_frobenius_diagonal_for_trivial_operator():
    n, p, trunc = 3, 5, 8
    op = monicize(parse_operator("D^3"), trunc)
    phi = diagonal([p**i for i in range(n)], trunc)
    ver = verify_frobenius(op, FrobeniusCandidate(p, phi))
    assert ver.residual_order == trunc
    assert ver.profile.is_integral
    assert ver.det_nonzero
    assert ver.constant_shape_ok
    assert ver.ok


def test_verify_frobenius_det_of_singular_constant():
    # Phi(0) is singular in both: diag(z, 1) has det z, nonzero mod z^T;
    # diag(z^2, z^(T-2)) has det z^T, zero mod z^T
    p, trunc = 5, 6
    op = parse_operator("D^2")
    z_pow = lambda k: z_power(k, trunc)
    for diag, nonzero in (((z_pow(1), z_pow(0)), True),
                          ((z_pow(2), z_pow(trunc - 2)), False)):
        phi = matrix_from_rows([[diag[0], TruncSeries.zero(trunc)],
                                [TruncSeries.zero(trunc), diag[1]]])
        assert phi.truncate(1).det().is_zero()
        ver = verify_frobenius(op, FrobeniusCandidate(p, phi))
        assert ver.det_nonzero is nonzero
        assert not ver.ok


def test_verify_frobenius_construction(quintic30, quintic_y20):
    cand = frobenius_from_constant(quintic_y20, twisted_rows(7, 4, [1, 3, -2, 5]), 7)
    ver = verify_frobenius(quintic30, cand)
    assert ver.residual_order == ver.trunc == 20
    assert ver.constant_shape_ok


def test_verify_frobenius_cross_wired_h1(quintic30, quintic_y30):
    # H1 intertwines A with B1, not with A(z^p): the audit must notice
    data = iterate_transfer(quintic_y30, 7, 1)
    ver = verify_frobenius(quintic30, FrobeniusCandidate(7, data.h))
    assert ver.residual_order < ver.trunc
    assert not ver.ok


def test_verify_frobenius_untwisted_constant_fails_at_order_zero(quintic_y20):
    # upper triangular with the right diagonal but no twist: the equation
    # residual -Y (NC - pCN) Y(z^p)^{-1} already shows at order 0
    p = 7
    rows = [list(row) for row in twisted_rows(p, 4, [1, 0, 0, 0])]
    rows[1][2] = F(9)  # breaks C[1][2] = p * C[0][1] = 0
    y_sub_inv = newton_matrix_inverse(quintic_y20.substitute_power(p).truncate(20))
    phi = quintic_y20 * SeriesMatrix.from_constant(rows, 20) * y_sub_inv
    ver = verify_frobenius(quintic30_local(), FrobeniusCandidate(p, phi))
    assert ver.residual_order == 0
    assert not ver.constant_shape_ok


def quintic30_local():
    return monicize(
        parse_operator("D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)"), 30
    )


def test_frobenius_from_constant_identity_uniform_part():
    p = 3
    eye = SeriesMatrix.identity(2, 5)
    cand = frobenius_from_constant(eye, twisted_rows(p, 2, [1, 4]), p)
    assert cand.constant == twisted_rows(p, 2, [1, 4])
    assert cand.phi.entry(0, 1).coeffs == (4, 0, 0, 0, 0)


def test_frobenius_from_constant_rejects_zero_pivot():
    eye = SeriesMatrix.identity(2, 4)
    with pytest.raises(BadConstantShape):
        frobenius_from_constant(eye, twisted_rows(3, 2, [0, 1]), 3)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_identity_is_immediate():
    eye = SeriesMatrix.identity(3, 6)
    fit = fit_frobenius_constant(eye, 5)
    assert fit.found
    assert fit.gammas == (1, 0, 0)
    assert fit.constant == twisted_rows(5, 3, [1, 0, 0])
    assert fit.unit_pivot


def test_fit_quintic(quintic_y20):
    fit = fit_frobenius_constant(quintic_y20, 7)
    assert fit.found
    assert fit.profile.is_integral
    cand = frobenius_from_constant(quintic_y20, fit.constant, 7)
    assert cand.phi.valuation_profile(7).is_integral


@pytest.mark.parametrize("solution", [[0, 0, 0], [3, 0, -2], [1, -4, 5]])
def test_fit_candidate_is_phi_of_its_gammas(quintic_y20, monkeypatch, solution):
    # the fit forms each candidate from phi0 and the unit-gamma basis; it
    # must equal Y C Y(z^p)^{-1} built directly from the twisted constant
    import mumkit.frobtransfer as ft

    seen = []
    profile = SeriesMatrix.valuation_profile
    monkeypatch.setattr(ft, "_solve_congruences", lambda rows, unknowns, p: list(solution))
    monkeypatch.setattr(SeriesMatrix, "valuation_profile",
                        lambda self, p: seen.append(self) or profile(self, p))
    y = quintic_y20.truncate(12)
    fit_frobenius_constant(y, 7)
    direct = frobenius_from_constant(y, twisted_rows(7, 4, [1, *solution]), 7).phi
    assert seen and all(phi == direct for phi in seen)


def test_fit_fault_injected_uniform_part(quintic_y20):
    # corrupt one coefficient of row 0 with a deep denominator and re-derive
    # rows 1 .. 3 by Y_{i+1} = delta(Y_i) + Y_i N, so that the result is still
    # read as a uniform part: no admissible constant can repair the fault, so
    # the verified search must come back empty-handed
    row = list(quintic_y20.entries[0])
    coeffs = list(row[1].coeffs)
    coeffs[3] += F(1, 7**4)
    row[1] = TruncSeries(tuple(coeffs))
    rows = [row]
    for _ in range(3):
        left = [TruncSeries.zero(20)] + rows[-1]
        rows.append([e.delta() + x for e, x in zip(rows[-1], left)])
    bad_y = SeriesMatrix(tuple(map(tuple, rows)))
    fit = fit_frobenius_constant(bad_y, 7)
    assert not fit.found
    assert fit.profile.min_valuation == -3


# ---------------------------------------------------------------------------
# radius diagnostics
# ---------------------------------------------------------------------------


def test_radius_first_rows_trivial_operator():
    diag = radius_diagnostic(taylor_gcds(parse_operator("D^2"), 6, 12), 3, 12)
    assert diag.rows[0].min_valuation == 0  # A_0 = I
    assert diag.rows[1].min_valuation == 0  # A_1 = A = N
    # for n = 2: A_j = (-1)^{j-1} (j-1)! N, so the norm is |(j-1)!|_p
    for j in range(2, 13):
        assert diag.rows[j].min_valuation == vp_factorial(j - 1, 3)
        assert diag.rows[j].scaled_min_valuation == vp_factorial(
            j - 1, 3
        ) - vp_factorial(j, 3)


def test_radius_quintic_trend(quintic_raw):
    diag = radius_diagnostic(taylor_gcds(quintic_raw, 20, 35), 7, 35)
    assert diag.trending_to_zero
    # the 7-adic norms drop below 1 at j = 23 and stay there
    assert all(r.min_valuation == 0 for r in diag.rows[18:23])
    assert all(r.min_valuation >= 1 for r in diag.rows[23:])


def test_radius_rejects_negative_max_index():
    # an empty window of rows would read as "trending to zero"
    taylor = taylor_gcds(parse_operator("D^2"), 6, 0)
    with pytest.raises(ValueError):
        radius_diagnostic(taylor, 3, -1)


def test_radius_requires_p_integrality():
    taylor = taylor_gcds(parse_operator("2*D - z"), 6, 5)
    with pytest.raises(NotPIntegralOperator):
        radius_diagnostic(taylor, 2, 5)


# ---------------------------------------------------------------------------
# reduction congruence
# ---------------------------------------------------------------------------


def test_reduction_trivial_operator():
    op = monicize(parse_operator("D^3"), 10)
    f = solve_f(op, op.trunc)
    assert reduction_congruence_check(f, 2, 1)
    assert reduction_congruence_check(f, 2, 2)


def test_reduction_quintic_small_prime(quintic_row30):
    f = quintic_row30[0]
    assert reduction_congruence_check(f, 2, 1)
    assert reduction_congruence_check(f, 2, 2)
    assert reduction_congruence_check(f, 3, 1)


def test_reduction_insufficient_truncation(quintic_row30):
    with pytest.raises(InsufficientTruncation):
        reduction_congruence_check(quintic_row30[0], 7, 2)


def test_reduction_refuses_level_0_and_a_y_other_than_i_at_zero(quintic_row30):
    # f = Y[0][0], so Y(0) = I asks f(0) = 1 of it
    with pytest.raises(ValueError, match="level"):
        reduction_congruence_check(quintic_row30[0], 7, 0)
    with pytest.raises(ValueError, match="constant term 1"):
        reduction_congruence_check(diagonal([F(2), F(1)], 5).entry(0, 0), 2, 1)


def test_bad_prime_detected_on_genuine_example():
    # alpha = (1/4, 1/2, 3/4) has 2-power denominators: at p = 2 the
    # intertwining equation still holds formally, but the transferred
    # operator is not 2-integral and no integral Frobenius constant exists
    raw = hypergeometric_quartic()
    op = monicize(raw, 24)
    y = uniform_part(op, op.trunc)
    data = iterate_transfer(y, 2, 1)
    audit = transfer_audit(op, data)
    assert audit.equation_residual_order == audit.equation_trunc
    assert not audit.operator_profile.is_integral
    assert not audit.ok
    fit = fit_frobenius_constant(uniform_part(op, 16), 2)
    assert not fit.found
    # while at p = 7 the same operator behaves
    data7 = iterate_transfer(y, 7, 1)
    assert transfer_audit(op, data7).ok


def hypergeometric_quartic():
    from mumkit import hypergeometric

    return hypergeometric([F(1, 4), F(2, 4), F(3, 4)], [1, 1, 1], 64)


def test_reduction_parts_fault_injection(quintic30, quintic_y30):
    data = iterate_transfer(quintic_y30, 2, 1)
    f = solve_f(quintic30, 30)
    h11 = data.h.entries[0][0]
    assert reduction_congruence_parts(h11, f, 2, 1)
    bad = list(h11.coeffs)
    bad[1] += 1
    assert not reduction_congruence_parts(TruncSeries(tuple(bad)), f, 2, 1)
