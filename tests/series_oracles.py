"""Fraction-arithmetic forms of the series operations, kept as exact oracles
for the integer forms behind TruncSeries, and the series matrix inverse,
which the library never forms, by Newton doubling on SeriesMatrix products
as the oracle of right_divide's order-by-order recurrence.  The companion
matrix of a monic operator, its action on a series and its divided
D-derivatives, which the library never forms either, are the oracles of
the solver, the radius rows and the transfer.  They read only the public
API."""

from fractions import Fraction
from math import comb, gcd, lcm

from mumkit import DeltaPolynomial, SeriesMatrix, TruncSeries, vp


class SingularConstant(ValueError):
    """The constant-term matrix has no inverse."""


def invert_constant_matrix(rows):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularConstant("constant-term matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1 / a[col][col]
        a[col] = [x * scale for x in a[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return [tuple(row) for row in inv]


def recurrence_inverse(a):
    """The order-by-order inverse b_k = -(1/a_0) sum_{j=1..k} a_j b_{k-j},
    in Fraction arithmetic."""
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.trunc):
        out.append(-inv0 * sum((a.coeffs[j] * out[k - j] for j in range(1, k + 1)),
                               Fraction(0)))
    return tuple(out)


def newton_matrix_inverse(a):
    """A^{-1} by Newton doubling on SeriesMatrix products: if B = A^{-1}
    mod z^m, then B + B (I - A B) = A^{-1} mod z^2m.  I - A B vanishes below
    z^m, so B (A B - I) does too, and each step keeps B's known
    coefficients."""
    trunc = a.trunc
    b = SeriesMatrix.from_constant(invert_constant_matrix(a.constant_matrix()), 1)
    while b.trunc < trunc:
        m = b.trunc
        b = b.map(lambda e: TruncSeries.from_coeffs(e.coeffs, min(2 * m, trunc)))
        err = (a * b).map(lambda e: TruncSeries.from_coeffs(
            (0,) * m + e.coeffs[m:], e.trunc))  # A B - I
        b = b - b * err
    return b


def quotient_by_products(a, b):
    """a / b as a times the order-by-order inverse of b, to the smaller order."""
    return a * TruncSeries(recurrence_inverse(b))


def power_by_products(a, e):
    """a^e as e products, starting from 1."""
    out = TruncSeries.one(a.trunc)
    for _ in range(e):
        out = out * a
    return out


def agrees_with(a, b, upto=None):
    """Whether a and b have the same coefficients below the smaller of
    their orders, and below upto when given."""
    n = min(a.trunc, b.trunc, a.trunc if upto is None else upto)
    return a.coeffs[:n] == b.coeffs[:n]


def z_power(k, trunc):
    """z^k mod z^trunc (zero when k >= trunc)."""
    return TruncSeries.from_coeffs([0] * k + [1], trunc)


def matrix_from_rows(rows):
    """The SeriesMatrix of an iterable of rows of series."""
    return SeriesMatrix(tuple(tuple(row) for row in rows))


def diagonal(consts, trunc):
    """The constant diagonal matrix diag(consts) mod z^trunc."""
    n = len(consts)
    return SeriesMatrix.from_constant(
        [[c if i == j else 0 for j in range(n)] for i, c in enumerate(consts)], trunc)


# Fraction-by-Fraction references for every TruncSeries operation, on
# tuples of Fractions: the form a series had before it was stored as
# integer numerators over one denominator.


def ref_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    n = min(len(a), len(b))
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n))


def ref_divide(a, b):
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        acc = a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(acc / b[0])
    return tuple(out)


def ref_delta(a):
    return tuple(k * c for k, c in enumerate(a))


def ref_exp(a):
    """k E_k = sum_{j=1..k} j a_j E_{k-j}, E_0 = 1."""
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(sum((j * a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) / k)
    return tuple(out)


def ref_log(a):
    u = ref_divide(ref_delta(a), a)
    return (Fraction(0),) + tuple(u[k] / k for k in range(1, len(a)))


def ref_substitute_power(a, q, n):
    return tuple(a[e // q] if e % q == 0 else Fraction(0) for e in range(n))


def ref_cartier_pullback(a, q):
    return tuple(c if e % q == 0 else Fraction(0) for e, c in enumerate(a))


def ref_valuation_profile(a, p):
    """(min valuation, ((exponent, valuation) for negative valuations))."""
    vals = [(k, vp(c, p)) for k, c in enumerate(a)]
    return min(v for _, v in vals), tuple((k, v) for k, v in vals if v < 0)


def ref_rows_profile(series, p):
    """ref_valuation_profile over several coefficient tuples at once: the
    least valuation of all, and per exponent the least negative one."""
    refs = [ref_valuation_profile(a, p) for a in series]
    by_exp = {}
    for _, neg in refs:
        for k, v in neg:
            by_exp[k] = min(v, by_exp.get(k, 0))
    return min((v for v, _ in refs), default=vp(Fraction(0), p)), tuple(sorted(by_exp.items()))


# the monic operator D^n + a_{n-1} D^{n-1} + ... + a_0 (a DeltaOperator) in
# the dense forms the library no longer builds


def companion(op):
    """The companion matrix of op: ones on the superdiagonal, -a_0 ..
    -a_{n-1} in the last row."""
    n, trunc = op.order, op.trunc
    zero, one = TruncSeries.zero(trunc), TruncSeries.one(trunc)
    rows = [tuple(one if j == i + 1 else zero for j in range(n)) for i in range(n - 1)]
    rows.append(tuple(-a for a in op.coeffs))
    return SeriesMatrix(tuple(rows))


def apply(op, s):
    """op applied to the series s: D^n s + sum_i a_i D^i s."""
    out = s
    for _ in range(op.order):
        out = out.delta()
    for i, a in enumerate(op.coeffs):
        d = s
        for _ in range(i):
            d = d.delta()
        out = out + a * d
    return out


def delta_derivative(op, t):
    """The divided t-th formal derivative in D: with b_n = 1 and b_i = a_i,
    sum_{i>=t} C(i,t) b_i D^{i-t}."""
    n = op.order
    if not 0 <= t <= n:
        raise ValueError("derivative order out of range")
    out = [TruncSeries.zero(op.trunc) for _ in range(n - t + 1)]
    for i in range(t, n + 1):
        b = TruncSeries.one(op.trunc) if i == n else op.coeffs[i]
        out[i - t] = out[i - t] + b * comb(i, t)
    return DeltaPolynomial(tuple(out))


def power_table_frobenius(op, trunc, width):
    """The integer Frobenius recurrence of mumkit.solve with a power table:
    shifted[m][i] = d_m (m+e)^i c_m(e) mod e^width for i = 0 .. n, so that
    sum_i P_{i,k} shifted[m-k][i] is d_{m-k} Q_k(m-k+e) c_{m-k}(e); the same
    integer row (den, [numerators of each j]) over the lcm of the d_m."""
    n = op.order
    rows = [(k, [(i, Fraction(P[k])) for i, P in enumerate(op.poly_coeffs) if k < len(P) and P[k]])
            for k in range(trunc)]
    rows = [row for row in rows if row[1]]
    s = lcm(*(x.denominator for _, terms in rows for _, x in terms))
    (_, [(_, lead)]), *support = [(k, [(i, int(x * s)) for i, x in terms]) for k, terms in rows]
    dens = [1]
    shifted = [[[int(t == i) for t in range(width)] for i in range(n + 1)]]
    for m in range(1, trunc):
        active = [(k, terms) for k, terms in support if k <= m]
        den = lcm(*(dens[m - k] for k, _ in active))
        rhs = [0] * width
        for k, terms in active:
            part = [0] * width
            for i, p in terms:
                for t, x in enumerate(shifted[m - k][i]):
                    part[t] += p * x
            scale = den // dens[m - k]
            for t, x in enumerate(part):
                rhs[t] -= scale * x
        inv = [(-1) ** u * comb(n + u - 1, u) * m ** (width - 1 - u) for u in range(width)]
        c = [sum(inv[u] * rhs[t - u] for u in range(t + 1)) for t in range(width)]
        den *= lead * m ** (n + width - 1)
        g = gcd(den, *c) if den > 0 else -gcd(den, *c)
        powers = [[x // g for x in c]]
        for _ in range(n):
            powers.append([m * x + y for x, y in zip(powers[-1], [0] + powers[-1])])
        dens.append(den // g)
        shifted.append(powers)
    den = lcm(*dens)
    scales = [den // d for d in dens]
    return den, [[row[0][t] * s for row, s in zip(shifted, scales)] for t in range(width)]
