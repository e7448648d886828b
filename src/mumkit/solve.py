"""Series solutions of MUM operators at z = 0.

For a MUM operator L of order n the fundamental solutions are log-structured:
column j is sum_k f_{1,k} (log z)^{j-k}/(j-k)!, and the power-series data is
the matrix Y with rows related by f_{i+1,k} = f_{i,k-1} + delta(f_{i,k}).
This module computes the first row column-by-column (triangular in the log
degree, using the divided derivatives L^[t]), derives the remaining rows by
the row identity, and verifies residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .opalg import DeltaOperator, NotMUM
from .series import InternalError, SeriesMatrix, TruncSeries

_F0 = Fraction(0)


@dataclass(frozen=True)
class SolutionBasis:
    op: DeltaOperator
    first_row: tuple[TruncSeries, ...]
    uniform_part: SeriesMatrix

    @property
    def trunc(self) -> int:
        return self.first_row[0].trunc

    @property
    def f(self) -> TruncSeries:
        """The holomorphic solution, normalized f(0) = 1."""
        return self.first_row[0]

    @property
    def g(self) -> TruncSeries:
        """The single-log companion: f*log(z) + g solves L, g(0) = 0."""
        if len(self.first_row) < 2:
            raise ValueError("order-1 operator has no log solution")
        return self.first_row[1]


def _require_mum(op: DeltaOperator):
    if not op.is_mum():
        raise NotMUM("operator coefficients must vanish at z = 0")


def _solve_recurrence(op: DeltaOperator, rhs: TruncSeries | None, trunc: int,
                      constant: Fraction) -> TruncSeries:
    """Unique y with y(0) = constant and L(y) = rhs (rhs = 0 when None).

    Coefficientwise, with a_i(z) = sum_{k>=1} a_{i,k} z^k and 0^0 = 1:
        m^n y_m + sum_{i<n} sum_{k=1}^{m} a_{i,k} (m-k)^i y_{m-k} = rhs_m.
    The m^n pivot never vanishes for m >= 1, which is exactly the MUM shape.
    """
    n = op.order
    a = [c.coeffs for c in op.coeffs]
    out = [Fraction(constant)] + [_F0] * (trunc - 1)
    for m in range(1, trunc):
        acc = rhs.coeffs[m] if rhs is not None else _F0
        for i in range(n):
            ai = a[i]
            for k in range(1, m + 1):
                c = ai[k]
                if c:
                    y = out[m - k]
                    if y:
                        acc -= c * (m - k) ** i * y
        out[m] = acc / Fraction(m) ** n
    return TruncSeries(tuple(out))


def solve_f(op: DeltaOperator, trunc: int) -> TruncSeries:
    """The unique power-series solution with constant term 1."""
    _require_mum(op)
    if op.trunc < trunc:
        raise ValueError("operator truncation is below the requested order")
    return _solve_recurrence(op, None, trunc, Fraction(1))


def solve_first_row(op: DeltaOperator, trunc: int) -> tuple[TruncSeries, ...]:
    """f_{1,1} .. f_{1,n}: column j solves
    L(f_{1,j}) = -sum_{t=1}^{j-1} L^[t](f_{1,j-t}) with f_{1,j}(0) = 0,
    making each log-column of the fundamental matrix a solution of L."""
    _require_mum(op)
    if op.trunc < trunc:
        raise ValueError("operator truncation is below the requested order")
    derivatives = [op.delta_derivative(t) for t in range(1, op.order)]
    row = [_solve_recurrence(op, None, trunc, Fraction(1))]
    for j in range(2, op.order + 1):
        rhs = TruncSeries.zero(trunc)
        for t in range(1, j):
            rhs = rhs - derivatives[t - 1].apply(row[j - t - 1]).truncate(trunc)
        if rhs.constant_term != 0:
            raise InternalError("log-column right-hand side must vanish at z = 0")
        row.append(_solve_recurrence(op, rhs, trunc, Fraction(0)))
    return tuple(row)


def uniform_part(op: DeltaOperator, trunc: int) -> SeriesMatrix:
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


def solution_basis(op: DeltaOperator, trunc: int) -> SolutionBasis:
    y = uniform_part(op, trunc)
    return SolutionBasis(op, y.entries[0], y)


def verify_solution(basis: SolutionBasis) -> int:
    """Largest M' <= trunc such that every defining relation of the first
    row holds mod z^{M'}; equals trunc on correct input."""
    op = basis.op
    trunc = basis.trunc
    order = trunc
    residuals = [op.apply(basis.first_row[0].truncate(trunc))]
    derivatives = [op.delta_derivative(t) for t in range(1, op.order)]
    for j in range(2, op.order + 1):
        r = op.apply(basis.first_row[j - 1].truncate(trunc))
        for t in range(1, j):
            r = r + derivatives[t - 1].apply(basis.first_row[j - t - 1])
        residuals.append(r)
    for r in residuals:
        fn = r.first_nonzero()
        if fn is not None and fn < order:
            order = fn
    return order
