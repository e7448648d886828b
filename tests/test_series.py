import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mumkit import (
    INF,
    BadConstantTerm,
    SeriesMatrix,
    TruncSeries,
    ValuationProfile,
    ZeroConstantTerm,
    g_over_f,
    hypergeometric,
    iterate_transfer,
    monicize,
    parse_operator,
    solve_first_row,
    uniform_part,
    vp,
)
from mumkit.series import right_divide
from series_oracles import (
    SingularConstant,
    diagonal,
    invert_constant_matrix,
    matrix_from_rows,
    newton_matrix_inverse,
    power_by_products,
    quotient_by_products,
    recurrence_inverse,
    ref_add,
    ref_cartier_pullback,
    ref_delta,
    ref_divide,
    ref_exp,
    ref_log,
    ref_mul,
    ref_substitute_power,
    ref_rows_profile,
    ref_valuation_profile,
    z_power,
)

F = Fraction


def S(coeffs, trunc=None):
    return TruncSeries.from_coeffs(coeffs, trunc)


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
series_strategy = st.lists(small_fractions, min_size=1, max_size=12).map(
    lambda cs: TruncSeries.from_coeffs(cs)
)
unit_series = st.lists(small_fractions, min_size=0, max_size=10).map(
    lambda cs: TruncSeries.from_coeffs([F(1)] + cs)
)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    a = S([1, 1], 3)
    b = S([1, -1], 3)
    assert (a * b).coeffs == (F(1), F(0), F(-1))


def test_mul_identity():
    b = S([3, F(1, 2), 7], 5)
    assert (TruncSeries.one(5) * b).coeffs == b.coeffs


def test_mul_geometric_telescopes():
    geo = S([1] * 5)
    assert (geo * S([1, -1], 5)).coeffs == (F(1), 0, 0, 0, 0)


def test_mul_min_trunc():
    assert (S([1] * 7) * S([1] * 4)).trunc == 4


def naive_convolution(a, b, trunc):
    return [
        sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
        for k in range(trunc)
    ]


def test_mul_against_bruteforce_random_polys():
    rng = random.Random(7)
    for _ in range(200):
        a = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))]
        b = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))]
        trunc = min(len(a), len(b))
        got = S(a) * S(b)
        assert list(got.coeffs) == naive_convolution(a, b, trunc)


def test_every_operation_against_bruteforce_on_random_polys():
    # degree <= 6 integer polynomials, every operation replayed naively
    rng = random.Random(42)
    for _ in range(150):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        sa, sb = S(a), S(b)
        n = min(len(a), len(b))
        pad = lambda c, m: c + [0] * (m - len(c))
        assert list((sa + sb).coeffs) == [
            x + y for x, y in zip(pad(a, n), pad(b, n))
        ]
        assert list((sa - sb).coeffs) == [
            x - y for x, y in zip(pad(a, n), pad(b, n))
        ]
        assert list(sa.delta().coeffs) == [k * c for k, c in enumerate(a)]
        q = rng.randint(1, 4)
        sub = sa.substitute_power(q)
        assert all(
            sub.coeffs[e] == (a[e // q] if e % q == 0 else 0)
            for e in range(sub.trunc)
        )
        p = rng.choice([2, 3, 5, 7])
        cart = sa.cartier(p)
        assert all(
            cart.coeffs[i] == a[i * p] for i in range(cart.trunc)
        )
        pull = sa.cartier(p).substitute_power(p, sa.trunc)
        assert all(
            pull.coeffs[e] == (a[e] if e % p == 0 else 0)
            for e in range(len(a))
        )


def schoolbook(a, b):
    """c_k = sum_{i+j=k} a_i b_j over every pair below the smaller order."""
    n = min(a.trunc, b.trunc)
    return tuple(sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)), F(0))
                 for k in range(n))


@st.composite
def shaped_series(draw):
    """Dense, zero-heavy, z^q-sparse, constant or zero, at orders 1..14."""
    trunc = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(("dense", "zero_heavy", "sparse", "constant", "zero")))
    if shape == "dense":
        cs = draw(st.lists(small_fractions, min_size=trunc, max_size=trunc))
    elif shape == "zero_heavy":
        cs = [draw(small_fractions) if draw(st.integers(0, 4)) == 0 else F(0)
              for _ in range(trunc)]
    elif shape == "sparse":
        q = draw(st.integers(2, 5))
        inner = draw(st.lists(small_fractions, min_size=1, max_size=-(-trunc // q)))
        return S(inner).substitute_power(q, min(trunc, q * len(inner)))
    elif shape == "constant":
        return TruncSeries.constant(draw(small_fractions), trunc)
    else:
        return TruncSeries.zero(trunc)
    return S(cs)


# ---------------------------------------------------------------------------
# the stored form: integer numerators over one denominator, reduced
# ---------------------------------------------------------------------------


def fresh(s):
    """s with its coefficients not yet read as Fractions."""
    return s + TruncSeries.zero(s.trunc)


def assert_reduced(s, expected):
    """s is stored reduced as a whole and has the coefficients expected."""
    assert s.den >= 1 and math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.trunc
    assert s.coeffs == tuple(expected)


@settings(max_examples=200, deadline=None)
@given(shaped_series(), shaped_series(), small_fractions, st.integers(1, 4),
       st.sampled_from([2, 3, 5]))
def test_operations_stay_reduced_and_match_fraction_reference(a, b, c, k, p):
    A, B = a.coeffs, b.coeffs
    mat = lambda s: SeriesMatrix(((s,),))
    for x in (a, fresh(a)):
        cases = [
            (x + b, ref_add(A, B)),
            (x - b, ref_add(A, B, -1)),
            (-x, tuple(-y for y in A)),
            (x * b, ref_mul(A, B)),
            (x * c, tuple(c * y for y in A)),
            (c - x, (c - A[0],) + tuple(-y for y in A[1:])),
            ((mat(x) * mat(b)).entry(0, 0), ref_mul(A, B)),
            (SeriesMatrix.sum_of_products(((mat(x), mat(b)), (mat(b), mat(x)))).entry(0, 0),
             ref_add(ref_mul(A, B), ref_mul(B, A))),
            (x.delta(), ref_delta(A)),
            (x.shift(k), (F(0),) * k + A),
            (x.truncate(min(k, x.trunc)), A[:k]),
            (x.substitute_power(k), ref_substitute_power(A, k, k * (len(A) - 1) + 1)),
            (x.cartier(p), A[::p]),
            (x.cartier(p).substitute_power(p, x.trunc), ref_cartier_pullback(A, p)),
            (x.cartier(p * p).substitute_power(p * p, x.trunc), ref_cartier_pullback(A, p * p)),
            ((x - x[0]).exp(), ref_exp((F(0),) + A[1:])),
            ((x - x[0] + 1).log(), ref_log((F(1),) + A[1:])),
        ]
        if B[0]:
            cases.append((x.divide(b), ref_divide(A, B)))
        for s, expected in cases:
            assert_reduced(s, expected)
        assert [x[j] for j in range(x.trunc)] == list(A)
        assert x.is_zero() == (not any(A))
        assert x.first_nonzero() == next((j for j, y in enumerate(A) if y), None)
        profile = x.valuation_profile(p)
        assert (profile.min_valuation, profile.negative_valuations) == \
            ref_valuation_profile(A, p)


@settings(max_examples=100, deadline=None)
@given(shaped_series())
def test_eq_and_hash_follow_the_coefficients(a):
    n = a.trunc
    same = [fresh(a), TruncSeries(a.coeffs), TruncSeries.from_coeffs(list(a.coeffs), n),
            a * TruncSeries.one(n), -(-a), (a * 2) * F(1, 2), a.substitute_power(3).cartier(3),
            (a.shift(2) * F(1, 3)).cartier(1).substitute_power(1, n + 2).cartier(1) * 3]
    for s in same[:-1]:
        assert s == a and hash(s) == hash(a) and s.coeffs == a.coeffs
    assert same[-1] == a.shift(2) and hash(same[-1]) == hash(a.shift(2))
    bumped = a + z_power(n - 1, n) * F(1, 7)
    assert bumped != a and bumped.coeffs != a.coeffs
    assert a != a.shift(1)


def test_eq_and_hash_of_zero_series_built_differently():
    zeros = [TruncSeries.zero(3), TruncSeries((0, 0, 0)), S([0], 3), S([], 3),
             S([F(1, 2), 3, F(5, 7)]) - S([F(1, 2), 3, F(5, 7)]), TruncSeries.constant(0, 3),
             S([F(1, 3), F(2, 9)], 3) * TruncSeries.zero(3), S([F(1, 6)], 3) * 0]
    for z in zeros:
        assert (z.nums, z.den) == ((0, 0, 0), 1)
        assert z == zeros[0] and hash(z) == hash(zeros[0])
    assert TruncSeries.zero(3) != TruncSeries.zero(4)
    assert len({*zeros, TruncSeries.zero(4)}) == 2


@settings(max_examples=200, deadline=None)
@given(shaped_series(), shaped_series())
def test_mul_matches_schoolbook(a, b):
    prod = a * b
    assert prod.trunc == min(a.trunc, b.trunc)
    assert prod.coeffs == schoolbook(a, b)


@st.composite
def sparse_and_dense(draw):
    """A dense series and a sparse one (a constant, a polynomial or a series
    in z^q) at one order, each over its own denominator."""
    trunc = draw(st.integers(1, 16))
    rng = draw(st.randoms(use_true_random=False))
    dens = (1, 2, 9, 5**3, 7 * 11, 2**40 - 87)

    def series(keep):
        den = rng.choice(dens)
        return S([F(rng.randint(-10**6, 10**6), den) if keep(k) else 0 for k in range(trunc)])

    q = draw(st.integers(2, 5))
    shape = draw(st.sampled_from((lambda k: k == 0, lambda k: k < 3, lambda k: k % q == 0)))
    return series(lambda k: True), series(shape)


@settings(max_examples=200, deadline=None)
@given(sparse_and_dense(), sparse_and_dense())
def test_sparse_times_dense_sums_match_schoolbook(first, second):
    # each term loops over its sparser operand, on either side, and scales
    # it to the lcm of the terms' denominators
    (d1, s1), (d2, s2) = first, second
    pairs = ((d1, s1), (s2, d2))
    expected = ref_add(schoolbook(d1, s1), schoolbook(s2, d2))
    assert (d1 * s1).coeffs == schoolbook(d1, s1)
    assert (s2 * d2).coeffs == schoolbook(s2, d2)
    mat = lambda x: SeriesMatrix(((x,),))
    assert SeriesMatrix.sum_of_products(tuple((mat(x), mat(y)) for x, y in pairs)) \
        .entry(0, 0).coeffs == expected[:min(d1.trunc, d2.trunc)]


def test_sparse_times_dense_with_unequal_denominators():
    # the terms' denominators differ, so at least one is scaled (scale != 1)
    dense = S([F(k + 1, 3) for k in range(10)])
    sparse = S([F(5, 7) if k % 3 == 0 else 0 for k in range(10)])
    const = S([F(2, 9)], 10)
    for pairs in (((dense, sparse),), ((sparse, dense),), ((dense, sparse), (const, dense)),
                  ((dense, const), (sparse, dense), (dense, dense))):
        expected = schoolbook(*pairs[0])
        for x, y in pairs[1:]:
            expected = ref_add(expected, schoolbook(x, y))
        assert all((x * y).coeffs == schoolbook(x, y) for x, y in pairs)
        mat = lambda x: SeriesMatrix(((x,),))
        total = SeriesMatrix.sum_of_products(tuple((mat(x), mat(y)) for x, y in pairs))
        assert total.entry(0, 0).coeffs == expected


# ---------------------------------------------------------------------------
# division; the inverse 1/a is one.divide(a)
# ---------------------------------------------------------------------------


def inverse(a):
    return TruncSeries.one(a.trunc).divide(a)


def test_invert_geometric():
    assert inverse(S([1, -1], 6)).coeffs == (1, 1, 1, 1, 1, 1)


def test_invert_one():
    assert inverse(TruncSeries.one(4)).coeffs == (1, 0, 0, 0)


def test_invert_quintic_denominator():
    inv = inverse(S([1, -3125], 5))
    assert inv.coeffs == tuple(F(3125) ** k for k in range(5))


def test_invert_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        S([1, 2, 3]).divide(S([0, 1], 3))
    with pytest.raises(ZeroConstantTerm):
        TruncSeries.one(1).divide(TruncSeries.zero(1))


@given(series_strategy)
@settings(max_examples=80)
def test_invert_roundtrip(a):
    if a.constant_term == 0:
        return
    assert (a * inverse(a)).coeffs == TruncSeries.one(a.trunc).coeffs


non_unit_constants = small_fractions.filter(lambda c: c not in (0, 1, -1))


@settings(max_examples=200, deadline=None)
@given(shaped_series(), st.one_of(st.just(F(-3, 7)), non_unit_constants))
def test_invert_matches_recurrence(a, c0):
    a = TruncSeries((c0,) + a.coeffs[1:])
    assert inverse(a).coeffs == recurrence_inverse(a)


@settings(max_examples=200, deadline=None)
@given(shaped_series(), shaped_series(), st.one_of(st.just(F(-3, 7)), non_unit_constants))
def test_divide_matches_recurrence(a, b, c0):
    b = TruncSeries((c0,) + b.coeffs[1:])
    quotient = a.divide(b)
    assert quotient.trunc == min(a.trunc, b.trunc)
    assert quotient.coeffs == quotient_by_products(a, b).coeffs


def test_divide_matches_recurrence_at_unequal_orders():
    a = S([F(1, 3), F(-2, 7), 0, F(5, 6), 0, F(-1, 10), 4, F(9, 2), 0])
    b = S([F(5, 2), 0, F(1, 3), F(-7, 4), 0])
    for x, y in ((a, b), (b, a), (a.truncate(5), b), (a, b.truncate(1))):
        assert x.divide(y).trunc == min(x.trunc, y.trunc)
        assert x.divide(y).coeffs == quotient_by_products(x, y).coeffs


@pytest.fixture(scope="module")
def tall_fg():
    # the unscaled quintic: the denominators of f and g are powers of 5
    # hundreds of bits tall at order 40
    f, g = solve_first_row(hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1, 1, 1, 1]), 40)[:2]
    assert max(c.denominator for c in f.coeffs).bit_length() > 200
    return f, g


def test_invert_matches_recurrence_on_tall_series(tall_fg):
    f, g = tall_fg
    assert inverse(f).coeffs == recurrence_inverse(f)
    one_plus_g = g + 1
    assert inverse(one_plus_g).coeffs == recurrence_inverse(one_plus_g)
    for trunc in (1, 2, 3, 17, 33):
        assert inverse(f.truncate(trunc)).coeffs == recurrence_inverse(f.truncate(trunc))


def test_divide_matches_recurrence_on_tall_series(tall_fg):
    f, g = tall_fg
    one_plus_g = g + 1
    for a, b in ((g, f), (f, one_plus_g), (one_plus_g, f), (g.truncate(25), f),
                 (f, one_plus_g.truncate(31))):
        assert a.divide(b).coeffs == quotient_by_products(a, b).coeffs


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_divide_matches_recurrence_by_sparse_divisor(tall_fg, p):
    # f(z^p), as in the Dieudonne ratio: only every p-th divisor term is nonzero
    f, g = tall_fg
    sparse = f.substitute_power(p).truncate(f.trunc)
    for a in (g, f, g + 1):
        assert a.divide(sparse).coeffs == quotient_by_products(a, sparse).coeffs


def test_divide_matches_recurrence_by_short_divisors(tall_fg):
    # two-term leading polynomials, as monicize and the radius fallback divide by
    f, g = tall_fg
    small = S([F(1, 3), F(-2, 7), 0, F(5, 6), 0, 0, F(-1, 10)] * 4)
    for b in (S([3, 1], 40), S([1, -3125], 40)):
        for a in (f, g, small, S([2, 0, -1], 40)):
            assert a.divide(b).coeffs == quotient_by_products(a, b).coeffs


def test_mul_of_unequal_heights_matches_schoolbook(tall_fg):
    # tall g against the reduced f^-1, and both against small mixed
    # denominators, at mixed truncation orders
    f, g = tall_fg
    f_inv = TruncSeries(recurrence_inverse(f))
    small = S([F(1, 3), F(-2, 7), 0, F(5, 6), 0, 0, F(-1, 10)] * 4)
    for a, b in ((g, f_inv), (g.truncate(25), f_inv), (g, f_inv.truncate(31)),
                 (small, g), (f_inv.truncate(9), small), (g, g), (small, small)):
        assert (a * b).coeffs == schoolbook(a, b)
        assert (b * a).coeffs == schoolbook(a, b)


@pytest.mark.parametrize("e", range(21))
def test_pow_int_is_repeated_multiplication(e):
    # the integer power as dieudonne_check forms it: exp(e log a), a(0) = 1
    a = S([1, F(-1, 5), 0, F(7, 2), F(1, 9)], 12)
    expected = power_by_products(a, e)
    assert (e * a.log()).exp() == expected
    assert (-e * a.log()).exp().coeffs == recurrence_inverse(expected)


# ---------------------------------------------------------------------------
# delta, substitution, cartier
# ---------------------------------------------------------------------------


def test_delta_examples():
    assert TruncSeries.one(3).delta().is_zero()
    assert S([0, 1], 3).delta().coeffs == (0, 1, 0)
    assert S([1, 2, 3]).delta().coeffs == (0, 2, 6)


def test_substitute_power_identity():
    a = S([2, 3, 4])
    assert a.substitute_power(1).coeffs == a.coeffs


def test_substitute_power_cube():
    out = S([1, 1]).substitute_power(3)
    assert out.coeffs == (1, 0, 0, 1)
    assert out.trunc == 4


def test_substitute_power_doubling():
    out = S([1] * 5).substitute_power(2)
    assert out.trunc == 9
    assert out.coeffs[:5] == (1, 0, 1, 0, 1)
    assert out.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_substitute_power_to_a_chosen_order():
    # f is known mod z^3, so f(z^2) is known mod z^6: exponent 5 is a gap
    out = S([1, 2, 3]).substitute_power(2, 6)
    assert out.coeffs == (1, 0, 2, 0, 3, 0)
    assert S([1, 2, 3]).substitute_power(2, 2).coeffs == (1, 0)
    for bad in (0, 7):
        with pytest.raises(ValueError):
            S([1, 2, 3]).substitute_power(2, bad)


def test_cartier_all_ones_fixed_point():
    geo = S([1] * 7)
    out = geo.cartier(3)
    assert out.trunc == 3  # ceil(7/3)
    assert out.coeffs == (1, 1, 1)


def test_cartier_kills_z():
    assert S([0, 1]).cartier(2).is_zero()


def test_cartier_index_selection():
    assert S([1, 2, 3, 4, 5]).cartier(2).coeffs == (1, 3, 5)


def test_cartier_pullback_keeps_trunc():
    a = S([1, 2, 3, 4, 5, 6, 7])
    out = a.cartier(2).substitute_power(2, a.trunc)
    assert out.trunc == a.trunc
    assert out.coeffs == (1, 0, 3, 0, 5, 0, 7) == ref_cartier_pullback(a.coeffs, 2)


@given(series_strategy, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=120)
def test_cartier_twists_delta(a, p):
    # Lambda_p(delta(f)) = p * delta(Lambda_p(f))
    lhs = a.delta().cartier(p)
    rhs = a.cartier(p).delta() * p
    assert lhs.coeffs == rhs.coeffs


@given(series_strategy, series_strategy, st.sampled_from([2, 3, 5]))
@settings(max_examples=120)
def test_cartier_projection_formula(a, b, p):
    # Lambda_p(f * g(z^p)) = Lambda_p(f) * g
    prod = a * b.substitute_power(p).truncate(min(a.trunc, b.trunc))
    lhs = prod.cartier(p)
    rhs = a.cartier(p) * b
    n = min(lhs.trunc, rhs.trunc)
    assert lhs.coeffs[:n] == rhs.coeffs[:n]


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------


def test_exp_zero():
    assert TruncSeries.zero(4).exp().coeffs == (1, 0, 0, 0)


def test_log_one():
    assert TruncSeries.one(4).log().is_zero()


def test_exp_770z():
    assert S([0, 770], 3).exp().coeffs == (1, 770, 296450)


def test_exp_against_bruteforce_sum():
    # exp(a) = sum a^k / k! computed by naive powering
    a = S([0, 2, F(-1, 3), 5], 8)
    acc = TruncSeries.one(8)
    power = TruncSeries.one(8)
    fact = 1
    for k in range(1, 8):
        power = power * a
        fact *= k
        acc = acc + power * F(1, fact)
    assert a.exp().coeffs == acc.coeffs


def test_exp_bad_constant_term():
    with pytest.raises(BadConstantTerm):
        TruncSeries.one(3).exp()
    with pytest.raises(BadConstantTerm):
        TruncSeries.zero(3).log()


def recurrence_exp(a):
    """k E_k = sum_{j=1..k} (j a_j) E_{k-j}, order by order in Fraction
    arithmetic."""
    out = [F(1)]
    for k in range(1, a.trunc):
        out.append(sum((j * a.coeffs[j] * out[k - j] for j in range(1, k + 1)), F(0)) / k)
    return tuple(out)


def recurrence_log(a):
    """k L_k = k a_k - sum_{j=1..k-1} (j L_j) a_{k-j}, order by order in
    Fraction arithmetic."""
    out = [F(0)]
    for k in range(1, a.trunc):
        acc = k * a.coeffs[k] - sum((j * out[j] * a.coeffs[k - j] for j in range(1, k)), F(0))
        out.append(acc / k)
    return tuple(out)


@st.composite
def tall_mixed_series(draw):
    """Dense, zero-heavy or z^q-sparse, with denominators mixing small
    primes and tall prime powers, at orders 1..24."""
    trunc = draw(st.integers(1, 24))
    dens = st.sampled_from((1, 2, 3, 7, 12, 5**9, 2**31 - 1, 3**15 * 7))
    coeff = st.builds(F, st.integers(-10**6, 10**6), dens)
    shape = draw(st.sampled_from(("dense", "zero_heavy", "sparse")))
    if shape == "sparse":
        q = draw(st.integers(2, 5))
        inner = draw(st.lists(coeff, min_size=1, max_size=-(-trunc // q)))
        return S(inner).substitute_power(q, min(trunc, q * len(inner)))
    if shape == "zero_heavy":
        return S([draw(coeff) if draw(st.integers(0, 3)) == 0 else 0 for _ in range(trunc)])
    return S(draw(st.lists(coeff, min_size=trunc, max_size=trunc)))


exp_log_inputs = st.one_of(shaped_series(), tall_mixed_series())


@settings(max_examples=200, deadline=None)
@given(exp_log_inputs)
def test_exp_matches_recurrence(a):
    a = TruncSeries((F(0),) + a.coeffs[1:])
    assert a.exp().coeffs == recurrence_exp(a)


@settings(max_examples=200, deadline=None)
@given(exp_log_inputs)
def test_log_matches_recurrence(a):
    a = TruncSeries((F(1),) + a.coeffs[1:])
    assert a.log().coeffs == recurrence_log(a)


@pytest.mark.parametrize("tail", [(), (F(5, 3),), (F(-7, 2), F(1, 9)), (0, F(2, 5))])
def test_exp_log_match_recurrence_at_orders_1_and_2(tail):
    for trunc in (1, 2):
        a = S([0, *tail], trunc)
        assert a.exp().coeffs == recurrence_exp(a)
        b = S([1, *tail], trunc)
        assert b.log().coeffs == recurrence_log(b)


def test_exp_log_match_recurrence_on_unscaled_quintic_h():
    # h = g/f of the unscaled quintic: denominators about 1700 bits tall at 150
    f, g = solve_first_row(hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1, 1, 1, 1]), 150)[:2]
    h = g_over_f(f, g)
    assert max(c.denominator for c in h.coeffs).bit_length() > 1500
    e = h.exp()
    assert e.coeffs == recurrence_exp(h)
    assert e.log() == h
    assert f.log().coeffs == recurrence_log(f)


@given(st.lists(small_fractions, min_size=0, max_size=9))
@settings(max_examples=80)
def test_exp_log_roundtrip(tail):
    a = TruncSeries.from_coeffs([F(0)] + tail)
    assert a.exp().log().coeffs == a.coeffs
    b = TruncSeries.from_coeffs([F(1)] + tail)
    assert b.log().exp().coeffs == b.coeffs


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_vp_basics():
    assert vp(F(50), 5) == 2
    assert vp(F(1, 5), 5) == -1
    assert vp(F(0), 5) == INF
    assert INF > 10**9
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            vp(F(6), p)


def test_valuation_profile_integers():
    profile = S([1, 5], 4).valuation_profile(5)
    assert profile.min_valuation == 0
    assert profile.negative_valuations == ()
    assert profile.is_integral


def test_valuation_profile_single_denominator():
    profile = S([0, F(1, 5)]).valuation_profile(5)
    assert profile.min_valuation == -1
    assert profile.negative_valuations == ((1, -1),)


def test_valuation_profile_factor_six():
    a = S([1, F(1, 6)])
    assert a.valuation_profile(2).min_valuation == -1
    assert a.valuation_profile(5).min_valuation == 0


def test_valuation_profile_zero_series():
    profile = TruncSeries.zero(3).valuation_profile(7)
    assert profile.min_valuation == INF
    assert profile.is_integral


@st.composite
def profiled_series(draw):
    """(series, p): numerators divisible by p^i, over a denominator prime
    to p or divisible by p, or the zero series; dense, zero-heavy or
    sparse."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    trunc = draw(st.integers(1, 16))
    if draw(st.integers(0, 5)) == 0:
        return TruncSeries.zero(trunc), p
    rng = draw(st.randoms(use_true_random=False))
    unit = draw(st.sampled_from([1, 11, 13 * 17, 2**5 * 3**4 * 5**2 * 7]))
    den = unit // math.gcd(unit, p**20) * p ** draw(st.integers(0, 3))
    scale = p ** draw(st.integers(0, 4))
    keep = draw(st.sampled_from((1, 2, 3)))
    cs = [F(rng.randint(-50, 50) * scale, den) if rng.randrange(keep) == 0 else 0
          for _ in range(trunc)]
    return S(cs), p


@settings(max_examples=300, deadline=None)
@given(profiled_series())
def test_valuation_profile_matches_the_per_coefficient_oracle(case):
    a, p = case
    profile = a.valuation_profile(p)
    assert (profile.min_valuation, profile.negative_valuations) == \
        ref_valuation_profile(a.coeffs, p)


@st.composite
def integer_rows(draw):
    """(rows, p): integer rows (den, [numerator lists]) as transfer data
    holds them, not reduced, with dens prime to p or divisible by it, zero
    rows and zero entries, and numerators divisible by powers of p, so that
    negative valuations meet at one exponent from several entries and rows."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    trunc = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        den = rng.choice((1, 11, 13 * 17)) * p ** rng.randint(0, 3)
        kind = rng.randrange(4)
        nums = [[0 if kind == 0 or rng.randrange(3) == 0
                 else rng.randint(-30, 30) * p ** rng.randint(0, 4) for _ in range(trunc)]
                for _ in range(rng.randint(1, 3))]
        rows.append((den, nums))
    return rows, p


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_valuation_profile_of_rows_matches_the_per_coefficient_oracle(case):
    rows, p = case
    profile = ValuationProfile.of_rows(rows, p)
    series = [tuple(F(x, den) for x in entry) for den, nums in rows for entry in nums]
    assert (profile.min_valuation, profile.negative_valuations) == ref_rows_profile(series, p)
    assert profile.prime == p


@pytest.mark.parametrize("text", ["D^2 - 16*z*D^2 - 16*z*D - 4*z", "(2+z)*D^2 - z*D - 1/3*z",
                                  "(2+2*z-z^2)*D^3 + z*D^2 - 3*z^2*D + 5*z^3 - z"])
def test_valuation_profile_of_matrices_operators_and_transfer_rows(text):
    # every profile the library takes is of_rows: of SeriesMatrix entries,
    # of a monic operator's coefficients and of the integer rows of H_m
    raw = parse_operator(text)
    monic, y = monicize(raw, 10), uniform_part(raw, 10)
    for p in (2, 3, 5):
        profile = monic.p_integrality(p)
        assert (profile.min_valuation, profile.negative_valuations) == \
            ref_rows_profile([a.coeffs for a in monic.coeffs], p)
        profile = y.valuation_profile(p)
        assert (profile.min_valuation, profile.negative_valuations) == \
            ref_rows_profile([e.coeffs for row in y.entries for e in row], p)
        data = iterate_transfer(y, p, 1)
        profile = ValuationProfile.of_rows(data.rows[:-1], p)
        assert (profile.min_valuation, profile.negative_valuations) == \
            ref_rows_profile([e.coeffs for row in data.h.entries for e in row], p)


def test_valuation_profile_of_columns_divisible_by_powers_of_q():
    # H_m's shape: column j a multiple of q^j, q = p^m, over a denominator
    # prime to p (a gcd) or divisible by p (per coefficient)
    rng = random.Random(17)
    for p, m in ((2, 1), (3, 2), (5, 1)):
        q = p**m
        for den in (7, 7 * p, 7 * p**3):
            mat = matrix_from_rows(
                [S([F(rng.randint(-40, 40) * q**j, den) for _ in range(9)]) for j in range(3)]
                for _ in range(3))
            profile = mat.valuation_profile(p)
            assert (profile.min_valuation, profile.negative_valuations) == \
                ref_rows_profile([e.coeffs for row in mat.entries for e in row], p)
            if den == 7:
                # column j alone: v_p of the gcd of its numerators, at least j m
                for j in range(3):
                    column = ValuationProfile.of_rows(
                        ((row[j].den, (row[j].nums,)) for row in mat.entries), p)
                    assert column.min_valuation >= j * m and column.negative_valuations == ()


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def inverse_by_right_division(m):
    """m^{-1} from right_divide: with A_0 = m(0), m A_0^{-1} has constant
    term I, and B (m A_0^{-1}) = A_0^{-1} for B = m^{-1}."""
    a0_inv = SeriesMatrix.from_constant(invert_constant_matrix(m.constant_matrix()), m.trunc)
    return matrix_from_rows(right_divide(a0_inv.entries, m * a0_inv))


def test_mat_invert_identity():
    eye = SeriesMatrix.identity(3, 5)
    assert matrix_from_rows(right_divide(eye.entries, eye)) == eye


def test_mat_invert_diagonal():
    m = diagonal([1, 7], 4)
    inv = inverse_by_right_division(m)
    assert inv.entry(0, 0).coeffs[0] == 1
    assert inv.entry(1, 1).coeffs[0] == F(1, 7)
    assert inv.entry(0, 1).is_zero()


def test_mat_invert_neumann_series():
    # (I + N z)^{-1} = I - N z + N^2 z^2 - ... for nilpotent N
    n = 3
    trunc = 6
    nilp = [[F(int(j == i + 1)) for j in range(n)] for i in range(n)]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [F(int(i == j)), nilp[i][j]]
            row.append(S(coeffs, trunc))
        entries.append(tuple(row))
    m = SeriesMatrix(tuple(entries))
    inv = matrix_from_rows(right_divide(SeriesMatrix.identity(n, trunc).entries, m))
    # N^2 has a single nonzero entry at (0, 2); N^3 = 0
    assert inv.entry(0, 1).coeffs[1] == -1
    assert inv.entry(0, 2).coeffs[2] == 1
    assert (m * inv) == SeriesMatrix.identity(n, trunc)


def test_mat_invert_singular():
    # right_divide needs M(0) = I; it refuses a singular M(0) as any other
    with pytest.raises(ValueError, match="constant term I"):
        right_divide(SeriesMatrix.identity(2, 3).entries, diagonal([0, 1], 3))


def test_mat_invert_random_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        trunc = rng.randint(1, 6)
        entries = tuple(
            tuple(
                S(
                    [F(int(i == j)) + F(rng.randint(-3, 3), rng.randint(1, 4))]
                    + [F(rng.randint(-4, 4)) for _ in range(trunc - 1)],
                )
                for j in range(n)
            )
            for i in range(n)
        )
        m = SeriesMatrix(entries)
        try:
            inv = inverse_by_right_division(m)
        except SingularConstant:
            continue
        assert m * inv == SeriesMatrix.identity(n, trunc)
        assert inv * m == SeriesMatrix.identity(n, trunc)


def coefficients(mat):
    return tuple(tuple(e.coeffs for e in row) for row in mat.entries)


def entrywise_product(a, b):
    """Coefficients of (A B)[i][j] = sum_k A[i][k] B[k][j], each entry
    product by schoolbook and the sum taken in Fractions, to the smaller
    order."""
    n = a.n
    return tuple(
        tuple(
            tuple(sum(terms, F(0)) for terms in zip(*(schoolbook(a.entry(i, k), b.entry(k, j))
                                                     for k in range(n))))
            for j in range(n)
        )
        for i in range(n)
    )


def add_coefficients(x, y):
    trunc = min(len(x[0][0]), len(y[0][0]))
    return tuple(tuple(tuple(u + v for u, v in zip(ex[:trunc], ey[:trunc]))
                       for ex, ey in zip(rx, ry))
                 for rx, ry in zip(x, y))


def recurrence_matrix_inverse(m):
    """Coefficients of m^{-1} order by order: B_0 = A_0^{-1} and
    B_k = -B_0 sum_{j=1..k} A_j B_{k-j}, in Fraction arithmetic."""
    n, trunc = m.n, m.trunc
    a = [[[m.entry(i, j).coeffs[k] for j in range(n)] for i in range(n)]
         for k in range(trunc)]
    b0 = invert_constant_matrix(a[0])
    out = [b0]
    for k in range(1, trunc):
        acc = [[sum((a[j][i][l] * out[k - j][l][c] for j in range(1, k + 1)
                     for l in range(n)), F(0))
                for c in range(n)] for i in range(n)]
        out.append([[-sum((b0[i][l] * acc[l][c] for l in range(n)), F(0))
                     for c in range(n)] for i in range(n)])
    return tuple(tuple(tuple(out[k][i][j] for k in range(trunc)) for j in range(n))
                 for i in range(n))


TALL_DENOMINATORS = (1, 7, 2**61 - 1, 5**40, 3**60 * 7, 5**90)


def mixed_fraction(rng):
    """A small fraction, or a tall one: numerators up to 10^40 over
    denominators up to 5^90."""
    if rng.random() < 0.5:
        return F(rng.randint(-20, 20), rng.randint(1, 12))
    return F(rng.randint(-10**40, 10**40), rng.choice(TALL_DENOMINATORS))


def matrix_entry(rng, shape, trunc):
    """Dense, zero-heavy, z^q-sparse, constant or zero, at order trunc."""
    cs = [mixed_fraction(rng) for _ in range(trunc)]
    if shape == "zero_heavy":
        cs = [c if rng.random() < 0.3 else 0 for c in cs]
    elif shape == "sparse":
        q = rng.randint(2, 4)
        cs = [c if k % q == 0 else 0 for k, c in enumerate(cs)]
    elif shape == "constant":
        cs = cs[:1]
    elif shape == "zero":
        cs = []
    return S(cs, trunc)


entry_shapes = st.sampled_from(("dense", "zero_heavy", "sparse", "constant", "zero"))
sizes, orders = st.integers(1, 4), st.integers(1, 9)


def draw_matrix(draw, n, trunc):
    """An n x n matrix at order trunc: each entry's shape is drawn, its
    coefficients come from a drawn Random, and one row may be zero."""
    rng = draw(st.randoms(use_true_random=False))
    zero_row = draw(st.sampled_from((None,) + tuple(range(n))))
    return matrix_from_rows(
        [TruncSeries.zero(trunc) if i == zero_row else matrix_entry(rng, draw(entry_shapes), trunc)
         for _ in range(n)]
        for i in range(n))


@st.composite
def matrix_pairs(draw, count):
    """`count` (A, B) pairs of one size n in 1..4, every operand at its
    own order in 1..9."""
    n = draw(sizes)
    return [(draw_matrix(draw, n, draw(orders)), draw_matrix(draw, n, draw(orders)))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(1))
def test_matmul_matches_entrywise_product(pairs):
    (a, b), = pairs
    prod = a * b
    assert prod.trunc == min(a.trunc, b.trunc)
    assert coefficients(prod) == entrywise_product(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(matrix_pairs))
def test_sum_of_products_matches_entrywise_sum(pairs):
    expected = entrywise_product(*pairs[0])
    for a, b in pairs[1:]:
        expected = add_coefficients(expected, entrywise_product(a, b))
    assert coefficients(SeriesMatrix.sum_of_products(pairs)) == expected


@st.composite
def invertible_matrices(draw):
    """A series matrix whose constant term is an invertible matrix other
    than the identity."""
    n = draw(sizes)
    m = draw_matrix(draw, n, draw(orders))
    rng = draw(st.randoms(use_true_random=False))
    const = [[mixed_fraction(rng) for _ in range(n)] for _ in range(n)]
    try:
        invert_constant_matrix(const)
    except SingularConstant:
        assume(False)
    assume(const != [[int(i == j) for j in range(n)] for i in range(n)])
    return matrix_from_rows(
        [TruncSeries((F(const[i][j]),) + m.entry(i, j).coeffs[1:]) for j in range(n)]
        for i in range(n))


@settings(max_examples=150, deadline=None)
@given(invertible_matrices())
def test_matinv_against_recurrence_oracle(m):
    assert coefficients(inverse_by_right_division(m)) == recurrence_matrix_inverse(m)


@st.composite
def newton_inputs(draw):
    """(matrix, singular): n <= 4, order 1..20, small fractional entries in
    dense, zero-heavy or z^q-sparse shapes.  A(0) is neither the identity
    nor diagonal (for n >= 2) and has a fractional entry; when singular,
    its last row is a multiple of its first."""
    n, trunc = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    rng = draw(st.randoms(use_true_random=False))
    singular = n > 1 and draw(st.booleans())
    const = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    if singular:
        c = F(rng.randint(-3, 3), 2)
        const[-1] = [x * c for x in const[0]]
    else:
        try:
            invert_constant_matrix(const)
        except SingularConstant:
            assume(False)
    assume(any(x.denominator > 1 for row in const for x in row))
    assume(n == 1 or any(const[i][j] for i in range(n) for j in range(n) if i != j))
    assume(const != [[int(i == j) for j in range(n)] for i in range(n)])

    def tail():
        shape, q = rng.choice(("dense", "zero_heavy", "sparse")), rng.randint(2, 4)
        return [F(rng.randint(-20, 20), rng.randint(1, 12))
                if shape == "dense" or (shape == "sparse" and k % q == 0)
                or (shape == "zero_heavy" and rng.random() < 0.3) else 0
                for k in range(1, trunc)]

    return matrix_from_rows([S([const[i][j]] + tail()) for j in range(n)]
                                  for i in range(n)), singular


@settings(max_examples=100, deadline=None)
@given(newton_inputs())
def test_matinv_matches_newton_doubling(case):
    m, singular = case
    if singular:
        # A(0) is not I, so right_divide refuses A itself
        with pytest.raises(ValueError, match="constant term I"):
            right_divide(m.entries, m)
        return
    assert coefficients(inverse_by_right_division(m)) == coefficients(newton_matrix_inverse(m))


def test_matmul_and_matinv_on_quintic_y(quintic_y30):
    y = quintic_y30
    y_inv = matrix_from_rows(right_divide(SeriesMatrix.identity(4, 30).entries, y))
    assert coefficients(y_inv) == recurrence_matrix_inverse(y)
    assert coefficients(y * y_inv) == coefficients(SeriesMatrix.identity(4, 30))
    for q in (3, 9):
        lam = y.cartier(q)
        lam_inv = matrix_from_rows(right_divide(SeriesMatrix.identity(4, lam.trunc).entries, lam))
        assert coefficients(lam_inv) == recurrence_matrix_inverse(lam)
        lam_sub = lam_inv.substitute_power(q, 30)
        assert coefficients(y * lam_sub) == entrywise_product(y, lam_sub)
        assert coefficients(lam_sub * y) == entrywise_product(lam_sub, y)
        assert coefficients(y * lam) == entrywise_product(y, lam)
        pairs = ((y, lam_sub), (y_inv, lam.substitute_power(q, 30)))
        assert coefficients(SeriesMatrix.sum_of_products(pairs)) == add_coefficients(
            entrywise_product(*pairs[0]), entrywise_product(*pairs[1]))


@st.composite
def right_division_cases(draw):
    """(rows, M, s): M(0) = I and random, mostly non-integral coefficients
    from z^1 on, in every entry shape, at an order in 1..12; s in 1..3; one
    row or n rows of series at an order in 1..12, one of them possibly
    zero.  Either order may lie below s."""
    n, s = draw(sizes), draw(st.integers(1, 3))
    m = draw_matrix(draw, n, draw(st.integers(1, 12)))
    m = matrix_from_rows(
        [TruncSeries((F(int(i == j)),) + m.entry(i, j).coeffs[1:]) for j in range(n)]
        for i in range(n))
    rows = draw_matrix(draw, n, draw(st.integers(1, 12))).entries
    return rows[:draw(st.sampled_from((1, n)))], m, s


def product_by_oracle_inverse(rows, m, s):
    """Coefficients of each row X times M^{-1}(z^s), the Newton-doubling
    inverse substituted, mod z^t for t the smaller of X's order and s M's
    order; each entry a sum of schoolbook products in Fractions."""
    t = min(rows[0][0].trunc, s * m.trunc)
    inv = newton_matrix_inverse(m).substitute_power(s, t)
    return tuple(
        tuple(tuple(sum(terms, F(0))
                    for terms in zip(*(ref_mul(x.coeffs[:t], inv.entry(i, l).coeffs)
                                       for i, x in enumerate(row))))
              for l in range(m.n))
        for row in rows)


@settings(max_examples=200, deadline=None)
@given(right_division_cases())
def test_right_divide_matches_the_oracle_inverse(case):
    rows, m, s = case
    out = right_divide(rows, m, s)
    assert len(out) == len(rows)
    assert tuple(tuple(e.coeffs for e in row) for row in out) == product_by_oracle_inverse(*case)


def test_right_divide_rescales_a_class_when_its_denominator_grows():
    # M = I + (z/3) N, N the 3 x 3 shift, so e_0 M(z^s)^{-1} = (1, -z^s/3,
    # z^2s/9): the class of 0 mod s goes from denominator 1 to 3 to 9, and
    # U_0 = e_0 must survive both steps
    trunc = 4
    third, zero, one = S([0, F(1, 3)], trunc), TruncSeries.zero(trunc), TruncSeries.one(trunc)
    m = matrix_from_rows([[one, third, zero], [zero, one, third], [zero, zero, one]])
    x = TruncSeries.one(10)
    for s in (1, 2, 3):
        t = min(10, s * trunc)
        (row,) = right_divide([(x, TruncSeries.zero(10), TruncSeries.zero(10))], m, s)
        assert row == (S([1], t), S([0] * s + [F(-1, 3)], t), S([0] * 2 * s + [F(1, 9)], t))


def test_matrix_det_and_profiles():
    m = SeriesMatrix.from_constant([[1, F(1, 3)], [0, F(5, 7)]], 3)
    d = m.det()
    assert d.coeffs[0] == F(5, 7)
    profile = m.valuation_profile(7)
    assert profile.min_valuation == -1
    assert profile.negative_valuations == ((0, -1),)


def test_matrix_ops_are_entrywise():
    m = SeriesMatrix.from_constant([[1, 2], [3, 4]], 4)
    z = S([0, 1], 4)
    shifted = m.map(lambda e: e * z)
    assert shifted.delta().entry(1, 0).coeffs == (0, 3, 0, 0)
    assert shifted.cartier(2).trunc == 2
    assert shifted.substitute_power(2).trunc == 7


def test_shift_extends_knowledge():
    a = S([1, 2, 3])
    out = a.shift(2)
    assert out.trunc == 5
    assert out.coeffs == (0, 0, 1, 2, 3)


def test_from_coeffs_rejects_nonpositive_trunc():
    for trunc in (0, -2):
        with pytest.raises(ValueError):
            S([1, 2, 3], trunc)


def test_truncate_cannot_extend():
    with pytest.raises(ValueError):
        S([1, 2]).truncate(5)
