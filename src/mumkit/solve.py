"""Series solutions of MUM operators at z = 0.

For a MUM operator L of order n the fundamental solutions are log-structured:
column j is sum_k f_{1,k} (log z)^{j-k}/(j-k)!, and the power-series data is
the matrix Y with rows related by f_{i+1,k} = f_{i,k-1} + delta(f_{i,k}).

The first row comes from one Frobenius recurrence.  Read L as sum_i P_i(z) D^i,
so that L(z^s) = sum_k Q_k(s) z^{s+k} with Q_k(s) = sum_i P_{i,k} s^i; MUM means
Q_0(s) = P_{n,0} s^n with P_{n,0} != 0.  Put c_0 = 1 and, for m >= 1,
    P_{n,0} (m+e)^n c_m(e) = -sum_{k>=1} Q_k(m-k+e) c_{m-k}(e)  mod e^n.
Then L(sum_m c_m(e) z^{m+e}) = P_{n,0} e^n z^e; expanding z^e in e log z gives
f_{1,j+1} = sum_m [e^j]c_m z^m for j < n.  Only the k with Q_k != 0 enter:
deg_z + 1 of them for a parsed operator, every k for a monic series operator.

It runs on ints: the rows are scaled by the lcm of their denominators, and
each c_m is kept alone, as one integer vector over one denominator d_m,
reduced by one gcd; the right-hand side is summed over the lcm of the
d_{m-k} it needs.  Coefficient t of Q_k(m-k+e) is
Q_k^[t](m-k) = sum_i C(i,t) P_{i,k} (m-k)^(i-t), evaluated by Horner's rule
on small integers from the table _taylor_rows, which verify_solution reads
too; its product with c_{m-k} mod e^width costs width(width+1)/2 products
of a small and a large integer per active row k.
"""

from __future__ import annotations

from math import comb, gcd, lcm

from .opalg import ApparentSingularityAtZero, DeltaOperator, NotMUM, RawOperator
from .series import SeriesMatrix, TruncSeries


def _rows(op, trunc: int) -> list[tuple[int, list]]:
    """(k, [(i, P_{i,k}) with P_{i,k} != 0]) for each z-degree k < trunc where L has a term."""
    rows = [(k, [(i, P[k]) for i, P in enumerate(op.poly_coeffs) if k < len(P) and P[k]])
            for k in range(trunc)]
    return [row for row in rows if row[1]]


def _integer_rows(op, trunc: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The rows of s L, s the lcm of the P_{i,k} denominators, on integers."""
    rows = _rows(op, trunc)
    s = lcm(*(p.denominator for _, terms in rows for _, p in terms))
    return [(k, [(i, p.numerator * (s // p.denominator)) for i, p in terms])
            for k, terms in rows]


def _taylor_rows(rows, width: int) -> list[tuple[int, list]]:
    """Per integer row (k, terms) of s L: (k, [(t, [C(i,t) P_{i,k} for
    i = top .. t])]) for the t < width with Q_k^[t] != 0, top the largest i
    in terms.  Horner's rule on the list at s gives
    Q_k^[t](s) = sum_i C(i,t) P_{i,k} s^(i-t), coefficient t of Q_k(s+e)."""
    out = []
    for k, terms in rows:
        coeffs, top = dict(terms), max(i for i, _ in terms)
        polys = [(t, [comb(i, t) * coeffs.get(i, 0) for i in range(top, t - 1, -1)])
                 for t in range(min(top, width - 1) + 1)]
        out.append((k, [(t, poly) for t, poly in polys if any(poly)]))
    return out


def _frobenius(op, trunc: int, width: int) -> tuple[int, list[list[int]]]:
    """sum_m [e^j]c_m z^m for j < width, from the recurrence above, as one
    integer row (den, [numerators of each j]) over the lcm of the d_m.  Each
    d_m reduces c_m as a whole, so the row is reduced as a whole."""
    if trunc < 1:
        raise ValueError("truncation order must be positive")
    if isinstance(op, DeltaOperator) and op.trunc < trunc:
        raise ValueError("operator truncation is below the requested order")
    n = op.order
    lead = op.poly_coeffs[n][0]
    if not lead:
        raise ApparentSingularityAtZero(
            "leading polynomial vanishes at z = 0; shearing is out of scope"
        )
    if any(P[0] for P in op.poly_coeffs[:n] if P):
        raise NotMUM("operator coefficients must vanish at z = 0")
    # row 0 of a MUM operator is P_{n,0} D^n alone
    (_, [(_, lead)]), *support = _integer_rows(op, trunc)
    support = _taylor_rows(support, width)
    # cs[m] = d_m c_m(e) mod e^width, as integers; c_0 = 1
    dens, cs = [1], [[int(t == 0) for t in range(width)]]
    for m in range(1, trunc):
        active = [(k, polys) for k, polys in support if k <= m]
        den = lcm(*(dens[m - k] for k, _ in active))
        rhs = [0] * width  # over den
        for k, polys in active:
            # Q_k(m-k+e) mod e^width times c_{m-k}(e)
            s, c = m - k, cs[m - k]
            part = [0] * width
            for u, poly in polys:
                q = 0
                for x in poly:
                    q = q * s + x
                for t in range(u, width):
                    part[t] += q * c[t - u]
            scale = den // dens[m - k]
            for t, x in enumerate(part):
                rhs[t] -= scale * x
        # 1/(P_{n,0} (m+e)^n) = sum_u (-1)^u C(n+u-1, u) m^(width-1-u) e^u
        #                       / (P_{n,0} m^(n+width-1))
        inv = [(-1) ** u * comb(n + u - 1, u) * m ** (width - 1 - u) for u in range(width)]
        c = [sum(inv[u] * rhs[t - u] for u in range(t + 1)) for t in range(width)]
        den *= lead * m ** (n + width - 1)
        g = gcd(den, *c) if den > 0 else -gcd(den, *c)
        dens.append(den // g)
        cs.append([x // g for x in c])
    den = lcm(*dens)
    scales = [den // d for d in dens]
    return den, [[c[t] * s for c, s in zip(cs, scales)] for t in range(width)]


def solve_f(op: DeltaOperator | RawOperator, trunc: int) -> TruncSeries:
    """The unique power-series solution with constant term 1."""
    den, (f,) = _frobenius(op, trunc, 1)
    return TruncSeries._from_nums(f, den)


def solve_first_row(op: DeltaOperator | RawOperator, trunc: int,
                    count: int | None = None) -> tuple[TruncSeries, ...]:
    """f_{1,1} .. f_{1,count} (count defaults to n) with f_{1,j}(0) = 0 for
    j > 1, making each log-column of the fundamental matrix a solution of L.
    The result is exactly the first count entries of the full row; a
    narrower row is cheaper, since the recurrence runs mod e^count."""
    n = op.order
    if count is None:
        count = n
    if not 1 <= count <= n:
        raise ValueError(f"count must be in 1..{n}, got {count}")
    den, nums = _frobenius(op, trunc, count)
    return tuple(TruncSeries._from_nums(e, den) for e in nums)


def uniform_part(op: DeltaOperator | RawOperator, trunc: int) -> SeriesMatrix:
    """Y with Y(0) = I whose columns against z^N give the fundamental matrix;
    rows follow f_{i+1,k} = f_{i,k-1} + delta(f_{i,k}), on integers over the
    first row's denominator."""
    n = op.order
    den, row = _frobenius(op, trunc, n)
    rows = [row]
    for _ in range(n - 1):
        row = [[k * x for k, x in enumerate(row[0])]] + [
            [y + k * x for k, (x, y) in enumerate(zip(row[j], row[j - 1]))] for j in range(1, n)]
        rows.append(row)
    return SeriesMatrix.from_rows((den, row) for row in rows)


def verify_solution(op: DeltaOperator | RawOperator,
                    first_row: tuple[TruncSeries, ...]) -> int:
    """Largest M' <= trunc, the order of first_row, such that
    sum_{t<=j} L^[t](f_{1,j+1-t}) = 0 mod z^{M'} for every column j,
    L^[t] = sum_i C(i,t) P_i D^{i-t} read from the rows of
    L = sum_i P_i(z) D^i; equals trunc on correct input.  From a parsed L the
    residual is P_n times the monic one, and P_n(0) != 0.  It runs on
    integers: the rows of s L, and the columns as numerators over the lcm
    of their denominators.  Coefficient m of column j's residual is
    sum_{k, t} Q_k^[t](m-k) f_{1,j+1-t}[m-k] with
    Q_k^[t](s) = sum_i C(i,t) P_{i,k} s^(i-t), which is evaluated once per
    (m, k, t), by Horner's rule on the table the recurrence reads
    (_taylor_rows), and shared by the columns."""
    trunc, width = first_row[0].trunc, len(first_row)
    den = lcm(*(f.den for f in first_row))
    columns = [[x * (den // f.den) for x in f.nums] for f in first_row]
    rows = _taylor_rows(_integer_rows(op, trunc), width)
    for m in range(trunc):
        values = []  # (t, Q_k^[t](m-k), m-k)
        for k, polys in rows:
            if k > m:
                break
            s = m - k
            for t, poly in polys:
                q = 0
                for c in poly:
                    q = q * s + c
                values.append((t, q, s))
        for j in range(width):
            if sum(q * columns[j - t][s] for t, q, s in values if t <= j):
                return m
    return trunc
