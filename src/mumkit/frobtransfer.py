"""Cartier/Frobenius transfer machinery and p-integral structure checks.

Level-m transfer attaches to a MUM operator L the operator L_m whose
holomorphic solution is the m-fold Cartier image of L's, and the gauge
matrix H_m = Y (Lambda_q(Y)(z^q))^{-1} diag(1, q, ..., q^(n-1)), q = p^m,
that intertwines the two companion systems.  Both need Lambda_q(Y)^{-1},
Lambda_q(Y) = Lambda_p^m(Y), only times a row, so each is one right
division of a row by Lambda_q(Y) and no inverse is formed.  With N the
nilpotent shift, the system of
F_q = [delta(Lambda_q(Y)) + (1/q) Lambda_q(Y) N] Lambda_q(Y)^{-1} has the
fundamental matrix Lambda_q(Y) z^{N/q}, and conjugating by
S = diag(1, q^-1, ..., q^-(n-1)) turns N/q into N.  So
Y_{L_m} = S Lambda_q(Y) S^{-1}, and L_m is read off the last row of F_q.
TransferData holds L_m and row 0 of H_m and derives rows 1 .. n by
rows 0 .. n-2 of the intertwining equation delta(H) = A H - q H B(z^q), A
and B the companion matrices of L and L_m: H_{i+1} = delta(H_i) +
q H_i B(z^q), one companion step.  Every value on the way is an integer
row, one numerator list per entry over one denominator per row, not
necessarily reduced: the rows of Y and Lambda_q(Y), the bracket's last
row, what right_divide returns, its q^j rescaling (which TransferData
reduces once, as the powers of q can cancel part of its denominator) and
the rows of H_m.
Only L_m's coefficients are TruncSeries, reduced, because they are
reported; H_m as a SeriesMatrix is built only when read.  The fit's basis
and the Frobenius construction run on the same rows.  transfer_audit
checks the last row, the only one that can fail: sum_k P_k H_k = 0 over
L's polynomial rows, H_n being row n, to the rows' order
min(W, q L_m.trunc) (_last_row_order).  It reads H(0) off the same rows,
and the valuation profile of H is ValuationProfile.of_rows of them.

The level-m reduction congruence H_m[0][0] Lambda_q(f)(z^q) == f
mod z^{q+1}, f = Y[0][0], holds whenever Y(0) = I, so all it decides is
f_1 .. f_{q-1} in Z_p: reduction_congruence_check(f, p, m) takes f alone
and builds no Y, inverse, L_m or H_m.

A p-integral Frobenius structure is a matrix Phi with
delta(Phi) = A Phi - p Phi A(z^p); by the uniqueness of log-structured
solutions it always factors as Phi = Y C Y(z^p)^{-1} with a constant
matrix C satisfying N C = p C N.  All of these are built from the uniform
part Y of L's solutions at z = 0, so the constructions (transfer,
reduction, H_m, F_q, Phi and its fit) take Y.  They use the structure
they know: rows are right-divided by Lambda_q(Y)(z^q) and Y(z^p), series
in z^q and z^p, by a recurrence that reads them at the order divided by q
or p; only the last row of F_q is formed; and only row 0 of each Phi is
right-divided.  Rows 1 .. n-1 of Phi follow from rows 0 .. n-2 of the
Frobenius equation, Phi_{i+1} = delta(Phi_i) + p Phi_i A(z^p), the step of
H_m at q = p with L read off Y as L_m is.  That step is exact for
Phi = Y C Y(z^p)^{-1} because N C = p C N and Y, a uniform part, follows
Y_{i+1} = delta(Y_i) + Y_i N, the step at q = 1 with every a_j = 0; the
Phi builders check that rule on Y's rows and refuse a Y that breaks it.
The fit's row 0 of Y C for a unit twist is a column shift of row 0 of
Y diag(1, p, ..., p^(n-1)).

The audits take a parsed operator as it is or a monic one (P_n = 1), and
both equations are checked row by row with the one companion step
(_row_step).  Rows 0 .. n-2 say that the step of row i is row i+1; the
last row, times P_n, is sum_k P_k R_k = 0 over L's polynomial rows
P_0 .. P_n with R_n the step of R_{n-1}.  P_n has a nonzero constant
term, so each row vanishes to exactly the order of the monic one.  No row
of the Frobenius equation holds by construction, so verify_frobenius
checks them all, at q = p with the monic L, which A(z^p) needs only to
ceil(T/p) below the check order T.  Neither audit forms a SeriesMatrix
product.

Truncation budget: every Cartier application divides the known order by p,
so level-m operator data certified to order T needs a working order of at
least p^m (T - 1) + 1.  Gauss norms of truncated series are lower bounds
on the true norms; the diagnostics below label them as such.

Radius diagnostics read the Taylor matrices A_0 = I,
A_{j+1} = delta(A_j) + A_j (A - jI) of the companion matrix A without ever
forming A, from the parsed operator L = sum_i P_i D^i only: with integer
polynomials P_i, the matrix
C = P_n A is polynomial (superdiagonal P_n, last row -P_0 .. -P_{n-1}), and
B_j = P_n^j A_j is an integer polynomial matrix: from
delta(B_j) = j delta(P_n) P_n^{j-1} A_j + P_n^j delta(A_j) follows

    B_{j+1} = P_n delta(B_j) - j (delta(P_n) + P_n) B_j + B_j C,

where B_j C is B_j's columns shifted right times P_n, plus its last column
times -P_k in column k.  Only row 0 is needed, and each of its entries is
formed in one list pass per z-degree of P_n and P_c (_first_rows).  With
nabla v = delta(v) + v A on row vectors, row r of A_j is
nabla^(j falling) nabla^r e_0, and
x^(j falling) x^r = sum_{m <= r} c_m x^(j+m falling) with integers c_m, so
row r of A_j lies in the Z-span of row 0 of A_j .. A_{j+r}.  Where A mod z^T
is p-integral, row 0 of A_{j+1} = (nabla - j)(row 0 of A_j) has no smaller
valuation, so row 0 carries min v_p(A_j mod z^T).  radius_diagnostic refuses
other primes (2 D^2 - z at p = 2: row 0 of A_1 is integral, row 1 is z/2).
Let g_j be the gcd of row 0 of B_j mod z^T.  If u = P_n / P_n(0) lies in
Z_p[z] it is a unit of Z_p[[z]] (u(0) = 1), and multiplying by a unit
keeps the least valuation of the coefficients below z^T, so

    min v_p(A_j mod z^T) = v_p(g_j) - j v_p(P_n(0)).

The g_j do not depend on p, so they are computed once per operator
(taylor_gcds), one gcd per entry of row 0 and then the gcd of those; each
prime then costs a few integer valuations.  Otherwise the prime takes row 0
of B_j P_n^{-j} mod z^T, which is row 0 of A_j mod z^T, directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, islice, zip_longest
from math import gcd, lcm

from .opalg import ApparentSingularityAtZero, DeltaOperator, RawOperator, monicize
from .primes import vp_factorial, vp_int
from .series import (INF, InternalError, SeriesMatrix, TruncSeries, ValuationProfile,
                     reduce_row, right_divide)
# not called here: bench/test_bench.py traces this second binding site
from .solve import uniform_part  # noqa: F401

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotPIntegralOperator(ValueError):
    """Gauss-norm diagnostics need operator coefficients in Z_p[[z]]."""


class InsufficientTruncation(ValueError):
    """The working order cannot support the requested level/target order."""


class BadConstantShape(ValueError):
    """Constant matrix is not of the admissible Frobenius shape."""


def working_trunc_for(target: int, p: int, m: int) -> int:
    """Smallest working order whose level-m data is certified to target."""
    if m < 1:
        raise ValueError("level must be >= 1")
    return p**m * (target - 1) + 1


def certified_trunc(working: int, p: int, m: int) -> int:
    """ceil(working / p^m): nested ceilings collapse, ceil(ceil(W/p)/p) =
    ceil(W/p^2), so m Cartier steps cost one division."""
    return -(-working // p**m)


# ---------------------------------------------------------------------------
# admissible constant matrices: N C = p C N
# ---------------------------------------------------------------------------


def twisted_rows(p: int, n: int, gammas):
    """Rows of the constant matrix with C[i][j] = p^i * gamma_{j-i}
    (0-indexed); this parametrizes exactly the solutions of N C = p C N
    for the nilpotent shift N, gamma_0 being the pivot mu."""
    gammas = [Fraction(g) for g in gammas]
    if len(gammas) != n:
        raise ValueError("need n twist parameters")
    return tuple(
        tuple(
            Fraction(p) ** i * gammas[j - i] if j >= i else _F0 for j in range(n)
        )
        for i in range(n)
    )


def constant_shape_ok(rows, p: int) -> bool:
    """C is admissible: square, with a nonzero pivot mu = C[0][0], and the
    twisted_rows of its own first row, so N C = p C N."""
    n = len(rows)
    return (len(rows[0]) == n and rows[0][0] != 0
            and tuple(map(tuple, rows)) == twisted_rows(p, n, rows[0]))


# ---------------------------------------------------------------------------
# radius-of-convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusRow:
    j: int
    min_valuation: int | float  # Gauss norm of A_j is p^(-min_valuation)
    scaled_min_valuation: int | float  # same for A_j / j!


@dataclass(frozen=True)
class RadiusDiagnostic:
    prime: int
    trunc: int
    rows: tuple[RadiusRow, ...]
    trending_to_zero: bool  # window heuristic: last 10 norms strictly < 1


@dataclass(frozen=True)
class TaylorGcds:
    """The prime-independent part of the radius diagnostic of one operator."""

    rows: tuple[tuple[int, ...], ...]  # P_0 .. P_n, integers with gcd 1
    trunc: int
    gcds: tuple[int, ...]  # g_j = gcd of row 0 of B_j mod z^trunc (0 if it is 0)


def taylor_gcds(op: RawOperator, trunc: int, max_index: int) -> TaylorGcds:
    """g_0 .. g_max_index, g_j the gcd of the coefficients of row 0 of
    B_j = P_n^j A_j mod z^trunc (0 when that row is 0), taken entry by entry;
    the module docstring gives the row recurrence and why row 0 fixes every
    valuation, and _first_rows its pass per z-degree.  Only the current row
    is held.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    if trunc < 1:
        raise ValueError("truncation order must be positive")
    polys = op.poly_coeffs
    if polys[-1][0] == 0:
        raise ApparentSingularityAtZero(
            "leading polynomial vanishes at z = 0; shearing is out of scope"
        )
    content = gcd(*(c for poly in polys for c in poly))
    rows = tuple(tuple(c // content for c in poly) for poly in polys)
    gcds = tuple(gcd(*(gcd(*entry) for entry in b))
                 for b in _first_rows(rows, trunc, max_index))
    return TaylorGcds(rows, trunc, gcds)


def _first_rows(rows, trunc: int, max_index: int):
    """Yield row 0 of B_0 .. B_max_index as n coefficient lists mod z^trunc;
    each row is fresh, the previous one is dropped.

    As delta(P_n) + P_n has (d+1) P_{n,d} at z^d, entry c of the next row is

        out_c[k] = sum_d P_{n,d} ((k-d-j(d+1)) b_c[k-d] + b_{c-1}[k-d])
                         - P_{c,d} b_{n-1}[k-d],

    one list pass per z-degree d at which P_n or P_c is nonzero."""
    n = len(rows) - 1
    zero = [0] * trunc  # b_{-1}
    terms = [[(d, pn, pc) for d, (pn, pc)
              in enumerate(zip_longest(rows[n][:trunc], rows[c][:trunc], fillvalue=0))
              if pn or pc]
             for c in range(n)]
    b = [[int(c == 0)] + [0] * (trunc - 1) for c in range(n)]  # e_0
    for j in range(max_index + 1):
        yield b
        if j == max_index:
            return
        last = b[n - 1]
        nxt = []
        for c, entry in enumerate(b):
            prev = b[c - 1] if c else zero
            out = [0] * trunc
            for d, pn, pc in terms[c]:
                if not pn:
                    out[d:] = [o - pc * z for o, z in zip(out[d:], last)]
                    continue
                weights = count(-j * (d + 1))  # k - d - j (d + 1) from k = d on
                if pn == 1 and not pc:
                    out[d:] = [o + i * x + y
                               for o, i, x, y in zip(out[d:], weights, entry, prev)]
                else:
                    out[d:] = [o + pn * (i * x + y) - pc * z
                               for o, i, x, y, z in zip(out[d:], weights, entry, prev, last)]
            nxt.append(out)
        b = nxt


def _add_product(out: list, poly, s: list):
    """out += poly * s mod z^len(out), in place."""
    for d, c in enumerate(poly):
        if c:
            out[d:] = [o + c * x for o, x in zip(out[d:], s)]


def radius_diagnostic(source: TaylorGcds, p: int, max_index: int,
                      monic: DeltaOperator | None = None) -> RadiusDiagnostic:
    """Gauss norms of the Taylor matrices A_0 = I,
    A_{j+1} = delta(A_j) + A_j (A - jI), as exponents of p, for
    j = 0 .. max_index; `source` is taylor_gcds of the parsed operator.

    The monic operator must be p-integral up to the truncation order (checked
    on `monic`, the monic form at that order, when given).  Norms
    of truncated entries are lower bounds on the true Gauss norms.  The
    trend flag realizes the testable consequence of radius >= 1 (the norms
    tend to zero) and is diagnostic only.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    if max_index >= len(source.gcds):
        raise ValueError(f"gcds are computed up to j = {len(source.gcds) - 1} only")
    raw, trunc = RawOperator(source.rows), source.trunc
    if not (raw.integral_over_lead(p)
            or (monic or monicize(raw, trunc)).p_integrality(p).is_integral):
        raise NotPIntegralOperator(
            f"operator has a coefficient with negative {p}-adic valuation"
        )
    lead = source.rows[-1]
    lead_val = vp_int(lead[0], p)
    if gcd(*lead) % p**lead_val == 0:  # P_n / P_n(0) lies in Z_p[z]
        vals = [INF if g == 0 else vp_int(g, p) - j * lead_val
                for j, g in enumerate(source.gcds[: max_index + 1])]
    else:
        vals = _valuations_over_lead(source.rows, trunc, max_index, p)
    rows = tuple(RadiusRow(j, v, v - vp_factorial(j, p)) for j, v in enumerate(vals))
    window = rows[-min(10, len(rows)) :]
    trending = all(r.min_valuation >= 1 for r in window)
    return RadiusDiagnostic(p, trunc, rows, trending)


def _valuations_over_lead(rows, trunc: int, max_index: int, p: int) -> list:
    """min v_p of row 0 of B_j P_n^{-j} mod z^trunc (row 0 of A_j) at a
    prime where P_n / P_n(0) is not a unit of Z_p[[z]]."""
    lead = TruncSeries.from_coeffs(rows[-1], trunc)
    scale = TruncSeries.one(trunc)
    out = []
    for b in _first_rows(rows, trunc, max_index):
        out.append(min(
            (TruncSeries(tuple(entry)) * scale).valuation_profile(p).min_valuation
            for entry in b
        ))
        scale = scale.divide(lead)
    return out


# ---------------------------------------------------------------------------
# single transfer step
# ---------------------------------------------------------------------------


def _quotient_last_row(lam: SeriesMatrix, q: int) -> tuple[TruncSeries, ...]:
    """Last row of F_q = [delta(Lambda) + (1/q) Lambda N] Lambda^{-1} for
    Lambda = Lambda_q(Y) and the nilpotent shift N: the bracket's last row,
    an integer row over q times Lambda's, right-divided by Lambda.  F_q's
    system has fundamental matrix Lambda z^{N/q}.  Output order is
    Lambda.trunc."""
    den, last = lam.rows[-1]
    bracket = [[q * k * x for k, x in enumerate(last[0])]] + [
        [q * k * x + y for k, (x, y) in enumerate(zip(last[j], last[j - 1]))]
        for j in range(1, lam.n)]
    ((den, nums),) = right_divide(((q * den, bracket),), lam)
    return tuple(TruncSeries._from_nums(e, den) for e in nums)


def transfer_operator_L1(f_last_row, q: int) -> DeltaOperator:
    """Read the transferred monic operator off the last row of F_q, q = p^m
    for level m: a_{i-1} = -b_{n,i} / q^{n-i}."""
    n = len(f_last_row)
    coeffs = tuple(
        f_last_row[i] * (-Fraction(1, q ** (n - 1 - i))) for i in range(n)
    )
    op = DeltaOperator(coeffs)
    if not op.is_mum():
        raise InternalError("transferred operator must be MUM")
    return op


def _row_step(coeffs, q: int, order: int):
    """The step R -> delta(R) + q R B(z^q) on integer rows (den,
    [numerators of each entry]) mod z^order, B the companion matrix of the
    monic operator with coefficients a_0 .. a_{n-1} = coeffs: column j of
    q R B(z^q) is q R[j-1] - q a_j(z^q) R[n-1].

    -q a_j(z^q) is tail_j / d over the lcm d of the a_j's denominators,
    which must be known to ceil(order / q), so the step of a row over den
    is an integer row over d den.  d mostly cancels: when it divides every
    tail_j R[n-1], the step stays over den; otherwise it is restated over
    d den and reduced once.  Integral a_j (d = 1) skip the division."""
    d = lcm(*(a.den for a in coeffs))
    tails = []
    for a in coeffs:
        tail = [0] * order
        tail[::q] = [-q * x * (d // a.den) for x in a.nums[:-(-order // q)]]
        tails.append(tail)

    def step(row):
        den, nums = row
        last, out, rems = nums[-1], [], []
        for j, (entry, tail) in enumerate(zip(nums, tails)):
            acc = [0] * order
            _add_product(acc, tail, last)
            quot, rem = zip(*(divmod(x, d) for x in acc)) if d != 1 else (acc, ())
            left = nums[j - 1] if j else [0] * order
            out.append([k * x + q * y + c for k, (x, y, c) in enumerate(zip(entry, left, quot))])
            rems.append(rem)
        if any(any(r) for r in rems):
            return reduce_row(den * d, [[d * x + r for x, r in zip(entry, rem)]
                                        for entry, rem in zip(out, rems)])
        return den, out

    return step


def _h_rows(row0, operator: DeltaOperator, q: int, order: int):
    """Yield rows 0 .. n of H_m mod z^order as integer rows (den,
    [numerators of each entry]) from row 0, one such row, by the companion
    step H_{i+1} = delta(H_i) + q H_i B(z^q), B the companion matrix of
    L_m, which must be known to ceil(order / q).  A step is taken only when
    its row is asked for.  At q = p with L_m = L the same steps give the
    rows of a Frobenius matrix Phi from its row 0, since
    delta(Phi) = A Phi - p Phi A(z^p) has the same shape."""
    step = _row_step(operator.coeffs, q, order)
    row = row0[0], [e[:order] for e in row0[1]]
    yield row
    for _ in range(operator.order):
        row = step(row)
        yield row


def _agreement_order(row, other, order: int) -> int:
    """The first exponent below `order` at which the integer rows row and
    other differ, compared with cross-multiplied denominators; order when
    they agree below it."""
    (d, xs), (e, ys) = row, other
    g = gcd(d, e)
    fd, fe = e // g, d // g
    for u, v in zip(xs, ys):
        order = next((k for k, (x, y) in enumerate(zip(u[:order], v)) if x * fd != y * fe),
                     order)
    return order


def _last_row_order(polys, rows, order: int) -> int:
    """The order, at most `order`, to which sum_k P_k R_k vanishes, for
    series P_0 .. P_n and integer rows R_0 .. R_n: the last row of an
    equation delta(R) = A R - q R B(z^q) times P_n, R_n being one more
    companion step of R_{n-1}.  One integer sum per column over a common
    denominator of the terms, each column only to the order found so
    far."""
    terms = list(zip(polys, rows))
    scale = lcm(*(poly.den * den for poly, (den, _) in terms))
    factors = [[x * (scale // (poly.den * den)) for x in poly.nums] for poly, (den, _) in terms]
    for j in range(len(rows[0][1])):
        out = [0] * order
        for factor, (_, nums) in zip(factors, rows):
            _add_product(out, factor, nums[j])
        order = next((k for k, x in enumerate(out) if x), order)
    return order


def _require_identity_at_zero(y: SeriesMatrix):
    n = y.n
    c = y.constant_matrix()
    if any(c[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise ValueError("matrix must have constant term I")


def _require_uniform_part(y: SeriesMatrix):
    """Y(0) = I and Y's integer rows follow Y_{i+1} = delta(Y_i) + Y_i N,
    N the nilpotent shift, as the rows of a uniform part do: the companion
    step at q = 1 with every a_j = 0."""
    _require_identity_at_zero(y)
    order = y.trunc
    step = _row_step([TruncSeries.zero(order)] * y.n, 1, order)
    if any(_agreement_order(step(row), nxt, order) < order for row, nxt in zip(y.rows, y.rows[1:])):
        raise ValueError("matrix is not a uniform part: its rows must follow "
                         "Y_{i+1} = delta(Y_i) + Y_i N")


# ---------------------------------------------------------------------------
# iterated transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferData:
    """Level-m transfer data: L_m and row 0 of H_m, q = p^m, an integer row
    (den, [numerators of each entry]), stored reduced by one gcd, so that
    equal data compare equal.  Rows 1 .. n of H_m are derived on
    construction by H_{i+1} = delta(H_i) + q H_i B(z^q), B the companion
    matrix of L_m, to the order of row 0 capped at q operator.trunc, as
    integer rows too.  Rows 0 .. n-1 are H = H_m, and the steps to them
    are rows 0 .. n-2 of the intertwining equation delta(H) = A H -
    q H B(z^q), so they hold for every TransferData; row n is the extra
    step with which transfer_audit checks the last row, the only one that
    can fail.  h, H as a SeriesMatrix, is built on first read; the audit
    reads the integer rows."""

    p: int
    m: int
    operator: DeltaOperator  # L_m, certified to `trunc`
    h_row0: tuple  # row 0 of H_m, (den, nums), at the working order
    trunc: int
    rows: tuple = field(init=False, repr=False, compare=False)  # H_0 .. H_n: (den, nums)

    def __post_init__(self):
        den, nums = self.h_row0
        if len(nums) != self.operator.order:
            raise ValueError("row 0 of H_m needs one entry per order of L_m")
        # iterate_transfer's columns j >= 1 carry q^j, which can cancel
        # what den owes to them
        den, nums = reduce_row(den, nums)
        object.__setattr__(self, "h_row0", (den, tuple(map(tuple, nums))))
        q = self.p**self.m
        order = min(len(nums[0]), q * self.operator.trunc)
        object.__setattr__(self, "rows", tuple(_h_rows(self.h_row0, self.operator, q, order)))

    @cached_property
    def h(self) -> SeriesMatrix:
        """H_m, rows 0 .. n-1 of `rows`."""
        return SeriesMatrix.from_rows(self.rows[:-1])

    def h_constant_matrix(self):
        """H_m(0) as rows of Fractions."""
        return tuple(tuple(Fraction(e[0], den) for e in nums) for den, nums in self.rows[:-1])


def iterate_transfer(y: SeriesMatrix, p: int, m: int,
                     target_trunc: int | None = None) -> TransferData:
    """Level-m transfer data (L_m, H_m) from the uniform part Y of a MUM
    p-integral operator; Y.trunc is the working order W.

    Lambda_q(Y), q = p^m, is known to order ceil(W/q), the order L_m is
    certified to (a requested target is checked up front).  It is never
    inverted: L_m is read off the last row of F_q, the bracket's last row
    right-divided by Lambda_q(Y), as Y_{L_m} = S Lambda_q(Y) S^{-1}; row 0
    of H_m, at the full working order, is row 0 of Y right-divided by
    Lambda_q(Y)(z^q), column j times q^j, all on integer rows.  TransferData
    derives the other rows of H_m from row 0 and L_m.
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    working = y.trunc
    certified = certified_trunc(working, p, m)
    if target_trunc is not None and certified < target_trunc:
        raise InsufficientTruncation(
            f"level-{m} data from working order {working} is certified only "
            f"to {certified} < {target_trunc}; need working order >= "
            f"{working_trunc_for(target_trunc, p, m)}"
        )
    _require_identity_at_zero(y)
    q = p**m
    lam = y.cartier(q)
    operator = transfer_operator_L1(_quotient_last_row(lam, q), q)
    ((den, nums),) = right_divide((y.rows[0],), lam, q)
    row0 = (den, [[x * q**j for x in e] for j, e in enumerate(nums)])
    return TransferData(p, m, operator, row0, certified)


@dataclass(frozen=True)
class TransferAudit:
    h_constant_ok: bool
    equation_residual_order: int
    equation_trunc: int
    h_profile: ValuationProfile
    operator_profile: ValuationProfile
    operator_is_mum: bool

    @property
    def ok(self) -> bool:
        return (
            self.h_constant_ok
            and self.equation_residual_order >= self.equation_trunc
            and self.h_profile.is_integral
            and self.operator_profile.is_integral
            and self.operator_is_mum
        )


def transfer_audit(op: RawOperator | DeltaOperator, data: TransferData) -> TransferAudit:
    """Check every TransferData invariant that is decidable at this order.

    The intertwining equation is delta(H) = A H - q H B(z^q), A and B the
    companion matrices of L and L_m.  Its rows 0 .. n-2 are the recursion
    H_{i+1} = delta(H_i) + q H_i B(z^q) from which TransferData derives H's
    rows 1 .. n-1, so they hold for every TransferData.  Its last row is,
    with H_n one more step of that recursion and P_0 .. P_n L's polynomial
    rows, the residual sum_k P_k H_k = P_n (H_n + sum_{k<n} a_k H_k), one
    integer sum per column over a common denominator of the terms.
    P_n(0) != 0, so it vanishes to the same order as the monic equation.
    The check order is that of the rows, min(W, q L_m.trunc), capped at a
    monic op's own order.  Everything is read off TransferData's integer
    rows; the SeriesMatrix h is not built."""
    n = op.order
    q = data.p**data.m
    if data.operator.order != n:
        k = data.operator.order
        raise ValueError(f"transfer data is {k}x{k} but the operator has order {n}")
    h_constant_ok = all(c == (q**i if i == j else 0)
                        for i, row in enumerate(data.h_constant_matrix())
                        for j, c in enumerate(row))
    check_trunc, polys = _row_series(op, len(data.rows[0][1][0]))
    return TransferAudit(
        h_constant_ok,
        _last_row_order(polys, data.rows, check_trunc),
        check_trunc,
        ValuationProfile.of_rows(data.rows[:-1], data.p),
        data.operator.p_integrality(data.p),
        data.operator.is_mum(),
    )


def _row_series(op: RawOperator | DeltaOperator, trunc: int):
    """(order, [P_0 .. P_n]): the polynomial rows of op = sum_i P_i D^i as
    series mod z^order, order being trunc capped at a monic operator's own
    order.  P_n is 1 for a monic operator."""
    if isinstance(op, DeltaOperator):
        trunc = min(trunc, op.trunc)
    polys = [TruncSeries.from_coeffs(poly, trunc) for poly in op.poly_coeffs]
    if polys[-1].constant_term == 0:
        raise ApparentSingularityAtZero(
            "leading polynomial vanishes at z = 0; shearing is out of scope"
        )
    return trunc, polys


# ---------------------------------------------------------------------------
# Frobenius structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusCandidate:
    p: int
    phi: SeriesMatrix

    @property
    def constant(self):
        return self.phi.constant_matrix()

    @property
    def trunc(self) -> int:
        return self.phi.trunc


@dataclass(frozen=True)
class FrobeniusVerification:
    residual_order: int  # largest M' <= trunc with the equation 0 mod z^M'
    trunc: int
    profile: ValuationProfile
    det_nonzero: bool  # truncation-level surrogate for det(Phi) != 0
    constant_shape_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.residual_order >= self.trunc
            and self.profile.is_integral
            and self.det_nonzero
            and self.constant_shape_ok
        )


def verify_frobenius(op: RawOperator | DeltaOperator,
                     cand: FrobeniusCandidate) -> FrobeniusVerification:
    """Residual audit of delta(Phi) = A Phi - p Phi A(z^p); every finding
    about the candidate is reported as data.  A candidate whose size is not
    the operator's order raises ValueError, an operator with P_n(0) = 0
    ApparentSingularityAtZero.

    The equation is checked row by row on Phi's integer rows with the
    companion step of the monic L at q = p (op itself when monic, else
    monicized to ceil(T/p), all A(z^p) needs below the check order T):
    rows 0 .. n-2 say step(Phi_i) = Phi_{i+1}, and the last row, times
    P_n, is sum_k P_k Phi_k over L's polynomial rows with
    Phi_n = step(Phi_{n-1}), as in transfer_audit.  P_n(0) != 0, so the
    residual vanishes to the same order as the monic one.  det(Phi) mod z^T
    is nonzero when det(Phi(0)) is; only a singular Phi(0) needs the full
    determinant."""
    n, p = op.order, cand.p
    if cand.phi.n != n:
        raise ValueError(f"candidate is {cand.phi.n}x{cand.phi.n} but the operator has order {n}")
    check_trunc, polys = _row_series(op, cand.trunc)
    monic = op if isinstance(op, DeltaOperator) else monicize(op, -(-check_trunc // p))
    step = _row_step(monic.coeffs, p, check_trunc)
    rows = cand.phi.truncate(check_trunc).rows
    residual_order = check_trunc
    for row, nxt in zip(rows, rows[1:]):
        residual_order = _agreement_order(step(row), nxt, residual_order)
    return FrobeniusVerification(
        _last_row_order(polys, [*rows, step(rows[-1])], residual_order),
        check_trunc,
        cand.phi.valuation_profile(p),
        not (cand.phi.truncate(1).det().is_zero() and cand.phi.det().is_zero()),
        constant_shape_ok(cand.constant, p),
    )


def frobenius_from_constant(y: SeriesMatrix, constant_rows, p: int) -> FrobeniusCandidate:
    """Phi = Y C Y(z^p)^{-1} for an admissible constant C at the working
    order M, Y a uniform part: row 0 of Y C right-divided by Y(z^p), which
    reads Y below ceil(M/p) only, and rows 1 .. n-1 by rows 0 .. n-2 of the
    Frobenius equation (_frobenius_rows).

    Phi * Y(z^p) = Y C mod z^M holds by construction, and Phi(0) = C since
    Y(0) = I.  Only the last row of the Frobenius equation is
    verify_frobenius's to check.  A Y whose rows do not follow
    Y_{i+1} = delta(Y_i) + Y_i N raises ValueError.
    """
    _require_uniform_part(y)
    if not constant_shape_ok(constant_rows, p):
        raise BadConstantShape(
            "constant matrix must be square, upper triangular with C[i+1][j+1] = "
            "p*C[i][j] and nonzero pivot"
        )
    gammas = [Fraction(x) for x in constant_rows[0]]
    g = lcm(*(x.denominator for x in gammas))
    gammas = [x.numerator * (g // x.denominator) for x in gammas]
    # row 0 of Y C is sum_r gamma_r (row 0 of Y C_r), C_r the constant of e_r
    den, units = _unit_twists(y, p)
    row0 = [[sum(c * x for c, x in zip(gammas, column)) for column in zip(*entries)]
            for entries in zip(*units)]
    return FrobeniusCandidate(p, _frobenius_rows(y, p, [(den * g, row0)])[0])


# ---------------------------------------------------------------------------
# fitting the Frobenius constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusFit:
    found: bool
    constant: tuple | None  # rows of Fractions when found
    gammas: tuple | None
    profile: ValuationProfile  # profile of the Phi the fit built
    trunc: int
    orders_used: int  # congruence conditions absorbed from this many orders
    unit_pivot: bool


def fit_frobenius_constant(y: SeriesMatrix, p: int) -> FrobeniusFit:
    """Search the admissible constant family for a p-integral Phi.

    With the pivot fixed at 1, Phi depends affinely on the n-1 free twist
    parameters; p-integrality of every coefficient below Y's order M is a
    system of linear congruences mod powers of p, assembled order by order
    and solved exactly.  found is false only when no admissible constant
    with a unit pivot makes Phi p-integral mod z^M: the conditions on each
    coefficient are exact, the solver is complete, and Phi(0) = C forces
    integral twists.  orders_used counts the longest solvable prefix.
    Each basis Phi is row 0 right-divided by Y(z^p) and rows 1 .. n-1
    derived from it (_frobenius_rows), so Y must be a uniform part: a Y
    whose rows do not follow Y_{i+1} = delta(Y_i) + Y_i N raises ValueError.
    """
    _require_uniform_part(y)
    n, M = y.n, y.trunc
    # Phi is linear in the gammas, so the unit vectors give phi0 and the
    # basis, and the candidate for gammas (1, x_1, ..., x_{n-1}) is
    # phi0 + sum x_r basis_r
    phi0, *basis = _phi_basis(y, p)
    conditions_by_order = _congruence_conditions(phi0, basis, p, M)
    # a solution of a prefix solves every shorter one, so the first solvable
    # prefix counted down is the longest; the empty one (0 orders) always is
    for orders_used in range(M, -1, -1):
        rows = [row for k in range(orders_used) for row in conditions_by_order[k]]
        solution = _solve_congruences(rows, n - 1, p)
        if solution is not None:
            break
    gammas = (_F1, *(Fraction(x) for x in solution))
    phi = phi0
    for x, mat in zip(solution, basis):
        if x:
            phi = phi + mat.scale(x)
    profile = phi.valuation_profile(p)
    found = profile.is_integral
    return FrobeniusFit(found, twisted_rows(p, n, gammas) if found else None,
                        gammas if found else None, profile, M, orders_used, True)


def _phi_basis(y: SeriesMatrix, p: int) -> list[SeriesMatrix]:
    """Phi = Y C Y(z^p)^{-1} for the gammas e_0 .. e_{n-1}, from row 0 of
    each Y C (_unit_twists)."""
    den, units = _unit_twists(y, p)
    return _frobenius_rows(y, p, [(den, row) for row in units])


def _unit_twists(y: SeriesMatrix, p: int):
    """(den, [row 0 of Y C_r over den for r = 0 .. n-1]) for the constants
    C_r = diag(1, p, ..., p^(n-1)) N^r of the gammas e_r: row 0 of Y with
    column k scaled by p^k and shifted right by r."""
    n, zero = y.n, [0] * y.trunc
    den, row = y.rows[0]
    row = [[x * p**k for x in e] for k, e in enumerate(row)]
    return den, [[zero] * r + row[:n - r] for r in range(n)]


def _frobenius_rows(y: SeriesMatrix, p: int, rows0) -> list[SeriesMatrix]:
    """Phi for each integer row in rows0, row 0 of Y C for an admissible C:
    that row right-divided by Y(z^p) is row 0 of Phi, and
    Phi_{i+1} = delta(Phi_i) + p Phi_i A(z^p), rows 0 .. n-2 of the
    Frobenius equation, gives the others (_h_rows at q = p).

    The steps are exact because N C = p C N and a uniform part follows
    Y_{i+1} = delta(Y_i) + Y_i N, which the callers check
    (_require_uniform_part).  L, with companion matrix A, is read off Y as
    iterate_transfer reads L_m, at order ceil(M/p), which A(z^p) needs."""
    n, order = y.n, y.trunc
    operator = transfer_operator_L1(_quotient_last_row(y.truncate(-(-order // p)), 1), 1)
    return [SeriesMatrix.from_rows(islice(_h_rows(row, operator, p, order), n))
            for row in right_divide(rows0, y, p)]


def _congruence_conditions(phi0: SeriesMatrix, basis, p: int, M: int):
    """Per order k: rows (coeffs mod p^e, rhs mod p^e, e) expressing that
    the order-k coefficient of every entry of phi0 + sum x_r basis_r has
    nonnegative p-adic valuation, given integral unknowns x_r.  Entries are
    read off the matrices' integer rows; a row whose denominators are all
    prime to p gives no condition."""
    n = phi0.n
    # per entry (i, j): (den, numerators, v_p(den)) in phi0, then in each basis matrix
    entries = []
    for rows in zip(phi0.rows, *(mat.rows for mat in basis)):
        vds = [vp_int(den, p) for den, _ in rows]
        if any(vds):
            entries += [[(den, nums[j], vd) for (den, nums), vd in zip(rows, vds)]
                        for j in range(n)]
    by_order = []
    for k in range(M):
        rows = []
        for series in entries:
            vmin = min((vp_int(x[k], p) - vd for _, x, vd in series if x[k]), default=0)
            if vmin >= 0:
                continue  # holds for every integral assignment
            e = -vmin
            mod = p**e
            b, *a = (Fraction(x[k] * mod, den) for den, x, _ in series)
            coeffs = [_rational_mod(x, mod) for x in a]
            rhs = (-_rational_mod(b, mod)) % mod
            rows.append((coeffs, rhs, e))
        by_order.append(rows)
    return by_order


def _rational_mod(x: Fraction, mod: int) -> int:
    num, den = x.numerator, x.denominator
    return num * pow(den, -1, mod) % mod


def _solve_congruences(rows, unknowns: int, p: int):
    """Solve linear congruences sum_j a_j x_j = b (mod p^e), one modulus per
    row, in integers x_j.  Returns a solution vector, or None when none
    exists.

    Rows are lifted to the largest modulus p^E and eliminated over Z/p^E
    with full pivoting: each pivot is an entry of least valuation v among
    the remaining rows and free columns, so p^v divides the rest of its row
    and its column, and every row operation can be undone.  The system is
    solvable exactly when the rows left over have right-hand side 0 and
    each pivot row's own right-hand side is divisible by p^v.
    """
    e_max = max((e for _, _, e in rows), default=0)
    mod = p**e_max
    a = [[x * p ** (e_max - e) % mod for x in (*coeffs, rhs)] for coeffs, rhs, e in rows]
    free = list(range(unknowns))
    pivots = []  # (row, column, valuation) in elimination order
    while free:
        nonzero = [(vp_int(row[c], p), c, r) for r, row in enumerate(a) for c in free if row[c]]
        if not nonzero:
            break
        v, c, r = min(nonzero)
        row = a.pop(r)
        free.remove(c)
        unit_inv = pow(row[c] // p**v, -1, mod)
        row = [x * unit_inv % mod for x in row]
        for other in a:
            if other[c]:
                factor = other[c] // p**v
                other[:] = [(x - factor * y) % mod for x, y in zip(other, row)]
        pivots.append((row, c, v))
    if any(row[-1] for row in a):
        return None
    solution = [0] * unknowns
    for row, c, v in reversed(pivots):
        if row[-1] % p**v:
            return None
        acc = (row[-1] - sum(x * s for x, s in zip(row, solution))) % mod
        solution[c] = acc // p**v
    return solution


# ---------------------------------------------------------------------------
# reduction congruence
# ---------------------------------------------------------------------------


def reduction_congruence_check(f: TruncSeries, p: int, m: int) -> bool:
    """Level-m reduction congruence H_m[0][0] Lambda_q(f)(z^q) == f
    mod z^{q+1}, q = p^m, for f = Y[0][0] the holomorphic solution, with
    its forced consequences h_k = f_k in Z_p for 0 < k < q, at working
    order f.trunc > q.  The congruence holds for every Y with Y(0) = I, so
    the verdict is f_1 .. f_{q-1} in Z_p: mod z^{q+1},
    Lambda_q(Y)^{-1}(z^q) == I - Y_q z^q and Y[0][k] = O(z) for k >= 1 give
    H_m[0][0] == f (1 - f_q z^q), and Lambda_q(f)(z^q) == 1 + f_q z^q."""
    if m < 1:
        raise ValueError("level must be >= 1")
    q = p**m
    if q >= f.trunc:
        raise InsufficientTruncation(f"congruence mod z^{q + 1} needs working order > {q}")
    if f.nums[0] != f.den:
        raise ValueError("f must have constant term 1")
    return f.truncate(q).valuation_profile(p).is_integral
