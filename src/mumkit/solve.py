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
each c_m is kept as integer vectors over one denominator d_m, reduced by one
gcd; the right-hand side is summed over the lcm of the d_{m-k} it needs.
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


def _frobenius(op, trunc: int, width: int) -> tuple[TruncSeries, ...]:
    """sum_m [e^j]c_m z^m for j < width, from the recurrence above, on integers."""
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
    # shifted[m][i] = d_m (m+e)^i c_m(e) mod e^width, i = 0..n, as integers; c_0 = 1
    dens = [1]
    shifted = [[[int(t == i) for t in range(width)] for i in range(n + 1)]]
    for m in range(1, trunc):
        active = [(k, terms) for k, terms in support if k <= m]
        den = lcm(*(dens[m - k] for k, _ in active))
        rhs = [0] * width  # over den
        for k, terms in active:
            part = [0] * width
            for i, p in terms:
                for t, x in enumerate(shifted[m - k][i]):
                    part[t] += p * x
            scale = den // dens[m - k]
            for t, x in enumerate(part):
                rhs[t] -= scale * x
        # 1/(P_{n,0} (m+e)^n) = sum_u (-1)^u C(n+u-1, u) m^(width-1-u) e^u
        #                       / (P_{n,0} m^(n+width-1))
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
    return tuple(TruncSeries._from_nums([row[0][t] * s for row, s in zip(shifted, scales)], den)
                 for t in range(width))


def solve_f(op: DeltaOperator | RawOperator, trunc: int) -> TruncSeries:
    """The unique power-series solution with constant term 1."""
    return _frobenius(op, trunc, 1)[0]


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
    return _frobenius(op, trunc, count)


def uniform_part(op: DeltaOperator | RawOperator, trunc: int) -> SeriesMatrix:
    """Y with Y(0) = I whose columns against z^N give the fundamental matrix;
    rows follow f_{i+1,k} = f_{i,k-1} + delta(f_{i,k})."""
    rows = [solve_first_row(op, trunc)]
    n = op.order
    for _ in range(n - 1):
        prev = rows[-1]
        nxt = [prev[0].delta()]
        for k in range(1, n):
            nxt.append(prev[k - 1] + prev[k].delta())
        rows.append(tuple(nxt))
    return SeriesMatrix(tuple(rows))


def verify_solution(op: DeltaOperator | RawOperator,
                    first_row: tuple[TruncSeries, ...]) -> int:
    """Largest M' <= trunc, the order of first_row, such that
    sum_{t<=j} L^[t](f_{1,j+1-t}) = 0 mod z^{M'} for every column j,
    L^[t] = sum_i C(i,t) P_i D^{i-t} read from the rows of
    L = sum_i P_i(z) D^i; equals trunc on correct input.  From a parsed L the
    residual is P_n times the monic one, and P_n(0) != 0.  It runs on
    integers: the rows of s L, and the columns as numerators over the lcm
    of their denominators."""
    trunc = first_row[0].trunc
    den = lcm(*(f.den for f in first_row))
    columns = [[x * (den // f.den) for x in f.nums] for f in first_row]
    rows = _integer_rows(op, trunc)
    for m in range(trunc):
        for j in range(len(columns)):
            r = sum(comb(i, t) * p * (m - k) ** (i - t) * columns[j - t][m - k]
                    for k, terms in rows if k <= m for i, p in terms for t in range(min(i, j) + 1))
            if r:
                return m
    return trunc
