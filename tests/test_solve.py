import math
import random
from fractions import Fraction
from math import comb

import pytest

from mumkit import (
    ApparentSingularityAtZero,
    DeltaOperator,
    NotMUM,
    RawOperator,
    SeriesMatrix,
    TruncSeries,
    hypergeometric,
    monicize,
    parse_operator,
    solve_f,
    solve_first_row,
    uniform_part,
    verify_solution,
)
from mumkit.solve import _frobenius, _rows
from series_oracles import companion, power_table_frobenius
from tests.conftest import quintic_f_coeff, quintic_g_coeff, random_mum_operator

F = Fraction
# non-hypergeometric, deg_z P_i up to 3 and P_n(0) = 2
NONHYPER = "(2+2*z-z^2)*D^3 + z*D^2 - 3*z^2*D + 5*z^3 - z"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_solve_f_trivial_operator():
    op = monicize(parse_operator("D^2"), 6)
    assert solve_f(op, 6).coeffs == (1, 0, 0, 0, 0, 0)


def test_solve_f_quintic_closed_form(quintic30):
    f = solve_f(quintic30, 25)
    assert list(f.coeffs) == [quintic_f_coeff(n) for n in range(25)]


def test_solve_g_quintic_closed_form(quintic_row30):
    g = quintic_row30[1]
    assert g.coeffs[1] == 770
    assert list(g.coeffs)[:20] == [quintic_g_coeff(n) for n in range(20)]


def test_solve_f_hypergeometric_term_ratio():
    # for H((1/2,1/2),(1,1)) the coefficients satisfy
    # f_m / f_{m-1} = (m - 1/2)^2 / m^2
    op = monicize(hypergeometric([F(1, 2), F(1, 2)], [1, 1], 1), 12)
    f = solve_f(op, 12)
    assert f.coeffs[0] == 1
    for m in range(1, 12):
        assert f.coeffs[m] == f.coeffs[m - 1] * (m - F(1, 2)) ** 2 / m**2


def test_solve_first_row_trivial():
    op = monicize(parse_operator("D^2"), 5)
    row = solve_first_row(op, 5)
    assert row[0].coeffs == (1, 0, 0, 0, 0)
    assert row[1].is_zero()


def test_solve_requires_mum():
    raw = parse_operator("D - 1")
    for op in (monicize(raw, 4), raw):
        with pytest.raises(NotMUM):
            solve_f(op, 4)
        with pytest.raises(NotMUM):
            solve_first_row(op, 4)
    # an apparent singularity at zero is reported before the MUM test
    with pytest.raises(ApparentSingularityAtZero):
        solve_first_row(parse_operator("z*D^2 + D - z"), 4)


def test_solve_needs_enough_operator_order():
    op = monicize(parse_operator("D^2"), 4)
    with pytest.raises(ValueError):
        solve_f(op, 10)
    for source in (op, parse_operator("D^2")):
        with pytest.raises(ValueError):
            solve_first_row(source, 0)


# ---------------------------------------------------------------------------
# the integer recurrence against the Fraction recurrence
# ---------------------------------------------------------------------------


def recurrence_frobenius(op, trunc, width):
    """sum_m [e^j]c_m z^m for j < width from
    P_{n,0} (m+e)^n c_m(e) = -sum_{k>=1} Q_k(m-k+e) c_{m-k}(e) mod e^width,
    order by order in Fraction arithmetic; shifted[m][i] = (m+e)^i c_m(e)."""
    n = op.order
    lead = op.poly_coeffs[n][0]
    support = [row for row in _rows(op, trunc) if row[0]]
    shifted = [[[F(int(t == i)) for t in range(width)] for i in range(n + 1)]]
    for m in range(1, trunc):
        rhs = [F(0)] * width
        for k, terms in support:
            if k > m:
                break
            for i, p in terms:
                for t, x in enumerate(shifted[m - k][i]):
                    rhs[t] -= p * x
        inv = [F((-1) ** u * comb(n + u - 1, u), lead * m ** (n + u)) for u in range(width)]
        powers = [[sum(inv[u] * rhs[t - u] for u in range(t + 1)) for t in range(width)]]
        for _ in range(n):
            powers.append([m * x + y for x, y in zip(powers[-1], [0] + powers[-1])])
        shifted.append(powers)
    return tuple(TruncSeries(tuple(s[0][t] for s in shifted)) for t in range(width))


@pytest.mark.parametrize("seed", range(12))
def test_frobenius_matches_recurrence_on_random_mum_operators(seed):
    # rows of different denominators meet: P_n(0) in {1, 2, -3, 5}, deg_z <= 3
    rng = random.Random(300 + seed)
    raw = random_mum_operator(rng)
    for trunc in (1, 2, rng.randint(3, 8), 16):
        for op in (raw, monicize(raw, trunc)):
            for width in (1, op.order):
                # one integer row over the lcm of the c_m's denominators,
                # reduced as a whole
                den, nums = _frobenius(op, trunc, width)
                assert math.gcd(den, *(x for e in nums for x in e)) == 1
                assert tuple(TruncSeries(tuple(F(x, den) for x in e)) for e in nums) == \
                    recurrence_frobenius(op, trunc, width)
            assert solve_f(op, trunc) == recurrence_frobenius(op, trunc, 1)[0]
            assert solve_first_row(op, trunc) == recurrence_frobenius(op, trunc, op.order)


def test_frobenius_matches_recurrence_on_the_unscaled_quintic():
    # denominators of c_m are powers of 5, hundreds of bits tall at order 40
    raw = hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1, 1, 1, 1])
    for op in (raw, monicize(raw, 40)):
        assert solve_first_row(op, 40) == recurrence_frobenius(op, 40, 4)


@pytest.mark.parametrize("seed", range(8))
def test_frobenius_matches_recurrence_by_power_table(seed):
    # Horner's rule on Q_k(m-k+e) against the power table of (m+e)^i c_m(e):
    # the same integer row, parsed and monic, at every width 1 .. n
    rng = random.Random(700 + seed)
    raw = random_mum_operator(rng)
    for trunc in (1, rng.randint(2, 12), 40):
        for op in (raw, monicize(raw, trunc)):
            for width in range(1, op.order + 1):
                assert _frobenius(op, trunc, width) == power_table_frobenius(op, trunc, width)


# ---------------------------------------------------------------------------
# explicit g-recurrence from the first variation of the f-recurrence
# ---------------------------------------------------------------------------


def test_g_recurrence_explicit_form():
    # m^n g_m + sum a_{i,k} (m-k)^i g_{m-k}
    #   = -[ n m^{n-1} f_m + sum i a_{i,k} (m-k)^{i-1} f_{m-k} ]
    rng = random.Random(12)
    alpha = [F(rng.randint(1, 5), rng.randint(2, 7)) for _ in range(3)]
    op = monicize(hypergeometric(alpha, [1, 1, 1], rng.randint(2, 50)), 14)
    n = op.order
    row = solve_first_row(op, 14)
    f, g = row[0], row[1]
    a = [c.coeffs for c in op.coeffs]
    for m in range(1, 14):
        lhs = F(m) ** n * g.coeffs[m]
        rhs = -F(n) * F(m) ** (n - 1) * f.coeffs[m]
        for i in range(n):
            for k in range(1, m + 1):
                c = a[i][k]
                if not c:
                    continue
                lhs += c * F(m - k) ** i * g.coeffs[m - k]
                if i >= 1:
                    rhs -= i * c * F(m - k) ** (i - 1) * f.coeffs[m - k]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# independent oracle: log-polynomial application of L
# ---------------------------------------------------------------------------


def apply_operator_to_log_poly(op: DeltaOperator, parts):
    """Apply the monic operator to sum_e parts[e] * (log z)^e / e! using only
    delta(s * l^e/e!) = delta(s) l^e/e! + s l^{e-1}/(e-1)!."""

    def delta_parts(ps):
        out = []
        for e, s in enumerate(ps):
            term = s.delta()
            if e + 1 < len(ps):
                term = term + ps[e + 1]
            out.append(term)
        return out

    acc = [s for s in parts]
    for _ in range(op.order):
        acc = delta_parts(acc)
    for i, a in enumerate(op.coeffs):
        di = parts
        for _ in range(i):
            di = delta_parts(di)
        acc = [s + a * t for s, t in zip(acc, di)]
    return acc


def test_first_row_makes_log_columns_solutions(quintic30, quintic_row30):
    op = quintic30.truncate(20)
    row = [s.truncate(20) for s in quintic_row30]
    n = op.order
    zero = TruncSeries.zero(20)
    for j in range(1, n + 1):
        # column j: sum_k f_{1,k} l^{j-k}/(j-k)! => parts[e] = f_{1,j-e}
        parts = [row[j - 1 - e] if 0 <= j - 1 - e < n else zero for e in range(n)]
        parts = [parts[e] if e <= j - 1 else zero for e in range(n)]
        result = apply_operator_to_log_poly(op, parts)
        for component in result:
            assert component.is_zero(), f"column {j} is not annihilated"


def test_log_columns_of_random_mum_operator():
    rng = random.Random(21)
    alpha = [F(rng.randint(1, 6), rng.randint(2, 5)) for _ in range(3)]
    op = monicize(hypergeometric(alpha, [1, 1, 1], 7), 10)
    row = solve_first_row(op, 10)
    zero = TruncSeries.zero(10)
    n = op.order
    for j in range(1, n + 1):
        parts = [row[j - 1 - e] if 0 <= j - 1 - e < n and e <= j - 1 else zero
                 for e in range(n)]
        for component in apply_operator_to_log_poly(op, parts):
            assert component.is_zero()


# ---------------------------------------------------------------------------
# uniform part
# ---------------------------------------------------------------------------


def test_uniform_part_trivial():
    op = monicize(parse_operator("D^3"), 4)
    assert uniform_part(op, 4) == SeriesMatrix.identity(3, 4)


def test_uniform_part_constant_is_identity(quintic_y20):
    n = quintic_y20.n
    c = quintic_y20.constant_matrix()
    assert c == tuple(
        tuple(F(int(i == j)) for j in range(n)) for i in range(n)
    )


def test_uniform_part_satisfies_system(quintic30, quintic_y20):
    op = quintic30.truncate(20)
    a = companion(op)
    n = op.order
    nilpotent = SeriesMatrix.from_constant(
        [[F(int(j == i + 1)) for j in range(n)] for i in range(n)], 20
    )
    residual = quintic_y20.delta() - a * quintic_y20 + quintic_y20 * nilpotent
    assert residual.residual_order() == 20


def test_uniform_part_system_for_random_operators():
    rng = random.Random(31)
    for _ in range(5):
        n = rng.randint(2, 4)
        alpha = [F(rng.randint(1, 8), rng.randint(2, 9)) for _ in range(n)]
        op = monicize(hypergeometric(alpha, [1] * n, rng.randint(1, 20)), 9)
        y = uniform_part(op, 9)
        a = companion(op)
        nilmat = SeriesMatrix.from_constant(
            [[F(int(j == i + 1)) for j in range(n)] for i in range(n)], 9
        )
        assert (y.delta() - a * y + y * nilmat).residual_order() == 9
    # non-hypergeometric operators read from their polynomials, with a
    # leading coefficient that is not a unit at z = 0
    for _ in range(6):
        n = rng.randint(2, 4)
        polys = [[0] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                 for _ in range(n)]
        polys.append([rng.choice([2, -3, 5])] + [rng.randint(-4, 4) for _ in range(3)])
        raw = RawOperator(tuple(tuple(p) for p in polys))
        op = monicize(raw, 9)
        assert solve_first_row(raw, 9) == solve_first_row(op, 9)
        y = uniform_part(raw, 9)
        nilmat = SeriesMatrix.from_constant(
            [[F(int(j == i + 1)) for j in range(n)] for i in range(n)], 9
        )
        assert (y.delta() - companion(op) * y + y * nilmat).residual_order() == 9


def test_uniform_part_against_matrix_recursion_oracle(quintic30, quintic_raw):
    # solve delta(Y) = A Y - Y N order by order as a 16x16 linear system;
    # completely independent of the row/column recurrences
    trunc = 12
    op = quintic30.truncate(trunc)
    n = op.order
    a = companion(op)
    a_coeffs = [
        [[a.entry(i, j).coeffs[k] for j in range(n)] for i in range(n)]
        for k in range(trunc)
    ]
    nil = [[F(int(j == i + 1)) for j in range(n)] for i in range(n)]
    ys = [[[F(int(i == j)) for j in range(n)] for i in range(n)]]
    for k in range(1, trunc):
        rhs = [[F(0)] * n for _ in range(n)]
        for l in range(1, k + 1):
            for i in range(n):
                for j in range(n):
                    rhs[i][j] += sum(
                        a_coeffs[l][i][t] * ys[k - l][t][j] for t in range(n)
                    )
        # solve k X + X N - N X = rhs entrywise by back substitution:
        # unknowns ordered so that X[i][j] depends on X[i+1][j], X[i][j-1]
        x = [[F(0)] * n for _ in range(n)]
        for i in range(n - 1, -1, -1):
            for j in range(n):
                acc = rhs[i][j]
                # (X N)[i][j] = X[i][j-1]; (N X)[i][j] = X[i+1][j]
                if j >= 1:
                    acc -= x[i][j - 1]
                if i + 1 < n:
                    acc += x[i + 1][j]
                x[i][j] = acc / k
        ys.append(x)
    for source in (op, quintic_raw):
        y_direct = uniform_part(source, trunc)
        for i in range(n):
            for j in range(n):
                assert [ys[k][i][j] for k in range(trunc)] == list(
                    y_direct.entry(i, j).coeffs
                )


# ---------------------------------------------------------------------------
# verification and fault injection
# ---------------------------------------------------------------------------


def test_verify_solution_full_order(quintic30, quintic_raw):
    for op in (quintic30.truncate(15), quintic_raw, parse_operator(NONHYPER)):
        assert verify_solution(op, solve_first_row(op, 15)) == 15


def test_verify_solution_trivial_operator():
    op = monicize(parse_operator("D^2"), 8)
    assert verify_solution(op, solve_first_row(op, 8)) == 8


def perturb(series, index, amount=F(1)):
    coeffs = list(series.coeffs)
    coeffs[index] += amount
    return TruncSeries(tuple(coeffs))


def test_verify_solution_detects_f3_fault(quintic30):
    op = quintic30.truncate(12)
    row = solve_first_row(op, 12)
    bad_row = (perturb(row[0], 3),) + row[1:]
    assert verify_solution(op, bad_row) <= 3


def test_verify_solution_detects_any_single_fault(quintic30, quintic_raw):
    for op in (quintic30.truncate(10), quintic_raw, parse_operator(NONHYPER)):
        first_row = solve_first_row(op, 10)
        for column in range(op.order):
            for index in range(1, 10, 4):
                row = list(first_row)
                row[column] = perturb(row[column], index)
                assert verify_solution(op, tuple(row)) < 10, (op, column, index)


def verify_solution_by_fractions(op, first_row):
    """verify_solution in Fraction arithmetic, on the unscaled rows of L."""
    trunc = first_row[0].trunc
    columns = [f.coeffs for f in first_row]
    rows = _rows(op, trunc)
    for m in range(trunc):
        for j in range(len(columns)):
            r = sum(comb(i, t) * p * (m - k) ** (i - t) * columns[j - t][m - k]
                    for k, terms in rows if k <= m for i, p in terms for t in range(min(i, j) + 1))
            if r:
                return m
    return trunc


@pytest.mark.parametrize("text", ["D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)", NONHYPER])
def test_verify_solution_matches_fraction_form(text):
    trunc = 9
    raw = parse_operator(text)
    for op in (raw, monicize(raw, trunc)):
        first_row = solve_first_row(op, trunc)
        assert verify_solution(op, first_row) == verify_solution_by_fractions(op, first_row) == trunc
        for column in range(raw.order):
            for index in range(trunc):
                for amount in (F(1), F(1, 7), F(-3, 2)):
                    row = list(first_row)
                    row[column] = perturb(row[column], index, amount)
                    bad = tuple(row)
                    assert verify_solution(op, bad) == verify_solution_by_fractions(op, bad)


@pytest.mark.parametrize("text", ["D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)", NONHYPER])
def test_verify_solution_raw_and_monic_agree(text):
    # the residual from the parsed rows is P_n times the monic one and
    # P_n(0) != 0, so every fault shows at the same order in both
    trunc = 10
    raw = parse_operator(text)
    monic = monicize(raw, trunc)
    first_row = solve_first_row(raw, trunc)
    assert first_row == solve_first_row(monic, trunc)
    for column in range(raw.order):
        for index in range(trunc):
            row = list(first_row)
            row[column] = perturb(row[column], index)
            orders = [verify_solution(op, tuple(row)) for op in (raw, monic)]
            assert orders[0] == orders[1] <= max(index, 1), (column, index, orders)


def test_series_solution_is_multiple_of_f(quintic30, quintic_raw):
    # any power-series solution with value c at 0 equals c*f; the solution
    # with y_0 = 5 comes from the dense recurrence of the monic operator,
    #   m^n y_m = -sum_{i<n} sum_{k=1}^{m} a_{i,k} (m-k)^i y_{m-k}
    n = quintic30.order
    a = [c.coeffs for c in quintic30.coeffs]
    y = [F(5)]
    for m in range(1, 12):
        acc = sum(a[i][k] * (m - k) ** i * y[m - k]
                  for i in range(n) for k in range(1, m + 1))
        y.append(-acc / F(m) ** n)
    for op in (quintic30, quintic_raw):
        assert tuple(y) == tuple(5 * c for c in solve_f(op, 12).coeffs)
