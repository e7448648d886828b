"""The dense monic forms of the transfer constructions and audits, kept
as exact oracles for the structure-aware ones in mumkit.frobtransfer.

Each function here multiplies full SeriesMatrix products: by the monic
companion matrix A = C / P_n, by the full quotient matrix F and by the
diagonal matrix diag(1, p^m, ...).  The level-m operator is transferred
one prime at a time, solving each monic level for its uniform part.  The
transfer residual is formed in all n x n entries, not only in the last
row that transfer_audit checks.  H_m is also formed from a Frobenius
matrix of any admissible constant, with no inverse of Lambda_q(Y).  H_0
and the full reduction congruence, which no library caller needs, live
here too.  So do the Frobenius matrices by right division of all n rows
of Y C, the route that frobenius_from_constant and the fit's basis took
before they derived rows 1 .. n-1 from row 0.  They read only the public
API.
"""

from fractions import Fraction

from mumkit import (
    InsufficientTruncation,
    SeriesMatrix,
    frobenius_from_constant,
    transfer_operator_L1,
    uniform_part,
    vp,
)
from mumkit.series import right_divide
from series_oracles import companion, diagonal, newton_matrix_inverse


def h0(y, p):
    """H_0 = Lambda_p(Y)(z^p) Y^{-1}; p-integral with H_0(0) = I whenever Y
    is the uniform part of a p-integral MUM system of radius >= 1."""
    if y.constant_matrix() != SeriesMatrix.identity(y.n, 1).constant_matrix():
        raise ValueError("matrix must have constant term I")
    return y.cartier(p).substitute_power(p, y.trunc) * newton_matrix_inverse(y)


def reduction_congruence_parts(h11, f, p, m):
    """h11 * Lambda_p^m(f)(z^{p^m}) == f mod z^{p^m + 1}, plus the forced
    consequences h_k = f_k in Z_p for 0 < k < p^m."""
    q = p**m
    check = min(h11.trunc, f.trunc)
    if check < q + 1:
        raise InsufficientTruncation(
            f"need order {q + 1} coefficients, have {check}"
        )
    lhs = h11 * f.cartier(q).substitute_power(q, f.trunc)
    d = (lhs - f).truncate(q + 1)
    if not d.is_zero():
        return False
    for k in range(1, q):
        if f[k] != h11[k] or vp(f[k], p) < 0:
            return False
    return True


def frobenius_quotient_F(y, nilpotent, p):
    """F = [delta(Lambda_p(Y)) + (1/p) Lambda_p(Y) N] (Lambda_p(Y))^{-1};
    the companion-side quotient whose system has fundamental matrix
    Lambda_p(Y) z^{N/p}.  Output order is ceil(Y.trunc / p)."""
    lam = y.cartier(p)
    nmat = SeriesMatrix.from_constant(nilpotent, lam.trunc)
    return (lam.delta() + (lam * nmat).scale(Fraction(1, p))) * newton_matrix_inverse(lam)


def iterate_transfer_levels(y, p, m):
    """L_m by m single steps at p: each level reads L_{k+1} off the last
    row of the full F and solves the monic L_{k+1} for the uniform part
    that the next level transfers.  Output order is ceil(Y.trunc / p^m)."""
    n = y.n
    shift = tuple(tuple(Fraction(int(j == i + 1)) for j in range(n)) for i in range(n))
    for level in range(m):
        if level:
            y = uniform_part(op, op.trunc)
        op = transfer_operator_L1(frobenius_quotient_F(y, shift, p).entries[-1], p)
    return op


def h_matrix_closed_form(y, p, m=1):
    """H_m = Y (Lambda_p^m(Y)(z^{p^m}))^{-1} diag(1, p^m, ..., p^{m(n-1)}),
    inverting the pullback at Y's full order."""
    diag = diagonal([Fraction(p) ** (m * i) for i in range(y.n)], y.trunc)
    q = p**m
    return y * newton_matrix_inverse(y.cartier(q).substitute_power(q, y.trunc)) * diag


def frobenius_power(y, constant, p, m):
    """Phi_m = Phi(z) Phi(z^p) ... Phi(z^(p^(m-1))) for
    Phi = frobenius_from_constant(y, constant, p); Phi_m Y(z^(p^m)) =
    Y C^m, so Phi_m is the Frobenius matrix of q = p^m."""
    phi = frobenius_from_constant(y, constant, p).phi
    out = phi
    for k in range(1, m):
        out = out * phi.substitute_power(p**k, y.trunc)
    return out


def h_from_frobenius(y, constant, p, m):
    """H_m = Phi_m Lambda_q(Phi_m)(z^q)^{-1} diag(1, q, ..., q^(n-1)),
    q = p^m, for any admissible constant: Lambda_q applied to
    Phi_m Y(z^q) = Y C^m gives Lambda_q(Y) = Lambda_q(Phi_m) Y C^-m.  It
    uses no inverse of Lambda_q(Y)."""
    q = p**m
    phi_m = frobenius_power(y, constant, p, m)
    lam_inv = newton_matrix_inverse(phi_m.cartier(q)).substitute_power(q, y.trunc)
    return phi_m * lam_inv * diagonal([q**i for i in range(y.n)], y.trunc)


def transfer_residual_order(op, data):
    """(residual order, check order) of delta(H) - A H + q H B(z^q) in all
    n x n entries, from the monic operator op and the companion matrices of
    op and of L_m, to H's order: L_m(z^q) is known to q L_m.trunc."""
    q = data.p**data.m
    a = companion(op)
    b_sub = companion(data.operator).substitute_power(q, data.h.trunc)
    check_trunc = min(a.trunc, data.h.trunc)
    residual = (
        data.h.delta().truncate(check_trunc)
        - (a * data.h).truncate(check_trunc)
        + (data.h * b_sub).scale(q).truncate(check_trunc)
    )
    return residual.residual_order(), check_trunc


def frobenius_residual_order(op, cand):
    """(residual order, check order) of delta(Phi) - A Phi + p Phi A(z^p)
    from the monic operator op."""
    p = cand.p
    a = companion(op)
    check_trunc = min(a.trunc, cand.trunc)
    phi = cand.phi.truncate(check_trunc)
    a_cut = a.truncate(check_trunc)
    a_sub = a.substitute_power(p).truncate(check_trunc)
    residual = phi.delta() - a_cut * phi + (phi * a_sub).scale(p)
    return residual.residual_order(), check_trunc


def frobenius_by_rows(y, constant, p):
    """Phi = Y C Y(z^p)^{-1} as every row of Y C right-divided by Y(z^p)."""
    c = SeriesMatrix.from_constant(constant, y.trunc)
    return SeriesMatrix.from_rows(right_divide((y * c).rows, y, p))


def phi_basis_by_rows(y, p):
    """Phi for the gammas e_0 .. e_{n-1}, n^2 rows right-divided by
    Y(z^p): Y C_r is Y's columns scaled by p^k and shifted right by r."""
    n, zero = y.n, [0] * y.trunc
    scaled = [(den, [[x * p**k for x in e] for k, e in enumerate(row)]) for den, row in y.rows]
    rows = right_divide([(den, [zero] * r + row[:n - r]) for r in range(n) for den, row in scaled],
                        y, p)
    return [SeriesMatrix.from_rows(rows[r * n:r * n + n]) for r in range(n)]
