import random
from fractions import Fraction

import pytest

from mumkit import (
    INF,
    ApparentSingularityAtZero,
    OperatorSyntaxError,
    TruncSeries,
    UnknownOperator,
    ZeroLeadingCoefficient,
    builtin,
    format_operator,
    hypergeometric,
    monicize,
    parse_operator,
)
from mumkit.opalg import _NCOperator
from series_oracles import apply, companion, delta_derivative, quotient_by_products

F = Fraction

QUINTIC_TEXT = "D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)"


# ---------------------------------------------------------------------------
# independent oracle: evaluate the operator text as an action on polynomials,
# using only delta(z^k) = k z^k; no shared code with the parser's expansion
# ---------------------------------------------------------------------------


def poly_delta(c):
    return [k * x for k, x in enumerate(c)]


def poly_shift(c):
    return [F(0)] + list(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[k] if k < len(a) else F(0)) + (b[k] if k < len(b) else F(0))
        for k in range(n)
    ]


def poly_scale(a, s):
    return [x * s for x in a]


def quintic_action(c):
    """delta^4(f) - 5 z (5d+1)(5d+2)(5d+3)(5d+4) f on a polynomial."""
    d4 = c
    for _ in range(4):
        d4 = poly_delta(d4)
    inner = c
    for shift in (4, 3, 2, 1):
        inner = poly_add(poly_scale(poly_delta(inner), 5), poly_scale(inner, shift))
    return poly_add(d4, poly_scale(poly_shift(inner), -5))


def raw_action(raw, c):
    out = [F(0)]
    for i, poly in enumerate(raw.poly_coeffs):
        di = c
        for _ in range(i):
            di = poly_delta(di)
        term = [F(0)] * (len(poly) + len(di))
        for a, pa in enumerate(poly):
            for b, db in enumerate(di):
                term[a + b] += pa * db
        out = poly_add(out, term)
    return out


def trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_pure_power():
    raw = parse_operator("D^2")
    assert raw.order == 2
    assert raw.poly_coeffs == ((), (), (1,))


def repeated_products(op, e):
    out = _NCOperator.scalar(F(1))
    for _ in range(e):
        out = out * op
    return out.terms


def test_pow_matches_repeated_products():
    # D^e and powers of a polynomial are built directly, (z*D)^e and
    # (D + z)^e by products; all four must agree with e products
    d, z, one = _NCOperator.d(), _NCOperator.z(), _NCOperator.scalar(F(1))
    for op in (d, z, one - z * _NCOperator.scalar(F(2)), z * d, d + z, _NCOperator()):
        for e in range(7):
            assert op.pow(e).terms == repeated_products(op, e)
    # D z = z (D + 1), so (z D)^3 = z^3 (D + 2)(D + 1) D
    assert parse_operator("(z*D)^3").poly_coeffs == ((), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, 1))
    assert parse_operator("(1 - 2*z)^3*D^4").poly_coeffs == ((), (), (), (), (1, -6, 12, -8))


def test_parse_quintic_expansion():
    raw = parse_operator(QUINTIC_TEXT)
    assert raw.poly_coeffs == (
        (0, -120),
        (0, -1250),
        (0, -4375),
        (0, -6250),
        (1, -3125),
    )


def test_parse_quintic_against_action_oracle():
    raw = parse_operator(QUINTIC_TEXT)
    rng = random.Random(3)
    for _ in range(25):
        c = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        assert trim(raw_action(raw, c)) == trim(quintic_action(c))


def test_parse_first_order():
    raw = parse_operator("(1-z)*D - 1")
    assert raw.order == 1
    assert raw.poly_coeffs == ((-1,), (1, -1))


def test_parse_noncommutative_order_matters():
    # D*z = z*D + z, so the two orderings differ by z
    left = parse_operator("D*z")
    right = parse_operator("z*D")
    assert left.poly_coeffs == ((0, 1), (0, 1))
    assert right.poly_coeffs == ((), (0, 1))


def test_parse_rational_literals():
    raw = parse_operator("2*D - 1/2")
    assert raw.poly_coeffs == ((-1,), (4,))  # cleared by the denominator lcm


def test_parse_syntax_error_position():
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator("D^2 +\n* z")
    assert err.value.line == 2
    assert err.value.col == 1


def test_parse_unknown_character():
    # superscript two and Arabic-Indic three are not digits of the grammar
    for text in ("D + w", "D^2 - ²*z", "D - ٣*z"):
        with pytest.raises(OperatorSyntaxError):
            parse_operator(text)


def test_parse_zero_operator():
    with pytest.raises(ZeroLeadingCoefficient):
        parse_operator("D - D")


def test_parse_no_differential_part():
    with pytest.raises(ZeroLeadingCoefficient):
        parse_operator("z + 1")


def test_parse_trailing_input():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("D 2")


# ---------------------------------------------------------------------------
# printer round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "D^2",
        QUINTIC_TEXT,
        "(1-z)*D - 1",
        "-3*D^2 + z*D - 1/2",
        "D*z*D - 7*z^3",
    ],
)
def test_parse_print_parse_fixed_point(text):
    raw = parse_operator(text)
    printed = format_operator(raw)
    again = parse_operator(printed)
    assert again == raw
    assert format_operator(again) == printed


def test_print_round_trips_random_hypergeometrics():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        alpha = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        beta = [F(1)] * n
        raw = hypergeometric(alpha, beta, rng.randint(1, 100))
        assert parse_operator(format_operator(raw)) == raw


# ---------------------------------------------------------------------------
# monicize / MUM / companion
# ---------------------------------------------------------------------------


def test_monicize_trivial():
    op = monicize(parse_operator("D^2"), 5)
    assert all(a.is_zero() for a in op.coeffs)
    assert op.is_mum()


def test_monicize_quintic_series_division():
    op = monicize(parse_operator(QUINTIC_TEXT), 6)
    expected = quotient_by_products(TruncSeries.from_coeffs([0, -6250], 6),
                                    TruncSeries.from_coeffs([1, -3125], 6))
    assert op.coeffs[3] == expected
    assert op.is_mum()


def test_monicize_constant_division():
    op = monicize(parse_operator("2*D - z"), 4)
    assert op.coeffs[0].coeffs == (0, F(-1, 2), 0, 0)


def test_monicize_singularity_at_zero():
    with pytest.raises(ApparentSingularityAtZero):
        monicize(parse_operator("z*D - 1"), 4)
    # order 0 leaves no constant term to test, which is not a singularity
    with pytest.raises(ValueError, match="truncation order"):
        monicize(parse_operator(QUINTIC_TEXT), 0)


def test_is_mum_negative():
    assert not monicize(parse_operator("D - 1"), 4).is_mum()


def test_companion_shape():
    op = monicize(parse_operator("D^2"), 3)
    a = companion(op)
    assert a.entry(0, 0).is_zero()
    assert a.entry(0, 1).coeffs == (1, 0, 0)
    assert a.entry(1, 0).is_zero()
    assert a.entry(1, 1).is_zero()


def test_companion_quintic_last_row():
    op = monicize(parse_operator(QUINTIC_TEXT), 5)
    a = companion(op)
    for j in range(4):
        assert a.entry(3, j) == -op.coeffs[j]
        if j < 3:
            assert a.entry(j, j + 1).coeffs[0] == 1


def test_companion_constant_is_nilpotent_for_mum():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(2, 4)
        alpha = [F(rng.randint(1, 7), rng.randint(2, 7)) for _ in range(n)]
        op = monicize(hypergeometric(alpha, [1] * n, 1), 3)
        assert op.is_mum()
        rows = companion(op).constant_matrix()
        power = rows
        for _ in range(n - 1):
            power = [
                [
                    sum(power[i][k] * rows[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        assert all(x == 0 for row in power for x in row)


# ---------------------------------------------------------------------------
# divided derivatives
# ---------------------------------------------------------------------------


def test_delta_derivative_power_rule():
    op = monicize(parse_operator("D^2"), 4)
    d1 = delta_derivative(op, 1)
    assert [c.coeffs[0] for c in d1.coeffs] == [0, 2]
    d2 = delta_derivative(op, 2)
    assert [c.coeffs[0] for c in d2.coeffs] == [1]


def test_delta_derivative_with_coefficient():
    a1 = TruncSeries.from_coeffs([0, 3], 4)
    op = monicize(parse_operator("D^2"), 4)
    op = type(op)((TruncSeries.zero(4), a1))
    d1 = delta_derivative(op, 1)
    assert d1.coeffs[0] == a1
    assert d1.coeffs[1].coeffs[0] == 2


def test_delta_derivative_zero_is_identity():
    op = monicize(parse_operator(QUINTIC_TEXT), 5)
    full = delta_derivative(op, 0)
    s = TruncSeries.from_coeffs([1, 4, 9, 2, 5], 5)
    assert full.apply(s) == apply(op, s)


# ---------------------------------------------------------------------------
# hypergeometric constructor / builtins
# ---------------------------------------------------------------------------


def test_hypergeometric_recovers_quintic():
    raw = hypergeometric([F(1, 5), F(2, 5), F(3, 5), F(4, 5)], [1, 1, 1, 1], 3125)
    assert raw == parse_operator(QUINTIC_TEXT)


def test_hypergeometric_beta_ones_is_mum():
    raw = hypergeometric([F(1, 3), F(2, 3)], [1, 1], 27)
    assert monicize(raw, 4).is_mum()


def test_hypergeometric_order_one():
    raw = hypergeometric([1], [1], 1)
    assert raw.poly_coeffs == ((0, -1), (1, -1))


def test_builtin_quintic_round_trip():
    raw = builtin("quintic")
    assert raw == parse_operator(QUINTIC_TEXT)
    assert parse_operator(format_operator(raw)) == raw


def test_builtin_unknown():
    with pytest.raises(UnknownOperator):
        builtin("sextic")


# ---------------------------------------------------------------------------
# operator p-integrality
# ---------------------------------------------------------------------------


def test_p_integrality_zero_coefficients():
    op = monicize(parse_operator("D^2"), 4)
    assert op.p_integrality(3).min_valuation == INF


def test_p_integrality_quintic():
    op = monicize(parse_operator(QUINTIC_TEXT), 8)
    profile = op.p_integrality(7)
    assert profile.min_valuation == 0
    assert profile.is_integral


def test_p_integrality_halves():
    op = monicize(parse_operator("2*D - z"), 4)
    assert op.p_integrality(2).min_valuation == -1
