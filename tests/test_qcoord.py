import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumkit import (
    BadNormalization,
    TruncSeries,
    builtin,
    canonical_coordinate,
    dieudonne_check,
    exp_integrality_check,
    g_over_f,
    hypergeometric,
    n_integrality_report,
    omega_congruence_check,
    solve_first_row,
)
from series_oracles import power_by_products, quotient_by_products, recurrence_inverse

F = Fraction


def S(coeffs, trunc=None):
    return TruncSeries.from_coeffs(coeffs, trunc)


# ---------------------------------------------------------------------------
# canonical coordinate
# ---------------------------------------------------------------------------


def test_q_of_trivial_pair():
    q = canonical_coordinate(TruncSeries.one(5), TruncSeries.zero(5))
    assert q.coeffs == (0, 1, 0, 0, 0, 0)


def test_q_quintic_prefix(quintic_row30):
    f, g = quintic_row30[0], quintic_row30[1]
    q = canonical_coordinate(f, g)
    assert q.trunc == 31
    assert q.coeffs[:4] == (0, 1, 770, 1014275)


def test_q_quintic_against_bruteforce_exp(quintic_row30):
    f = quintic_row30[0].truncate(12)
    g = quintic_row30[1].truncate(12)
    h = quotient_by_products(g, f)
    acc = TruncSeries.one(12)
    power = TruncSeries.one(12)
    fact = 1
    for k in range(1, 12):
        power = power * h
        fact *= k
        acc = acc + power * F(1, fact)
    q = canonical_coordinate(f, g)
    assert q.coeffs[1:13] == acc.coeffs


def test_q_normalization():
    with pytest.raises(BadNormalization):
        canonical_coordinate(S([2, 1], 3), TruncSeries.zero(3))
    with pytest.raises(BadNormalization):
        canonical_coordinate(TruncSeries.one(3), S([1, 1], 3))


def test_q_scaling_consistency(quintic_row30):
    # replacing z by c z maps q(z) to (1/c) q(c z)
    c = F(3)
    f = quintic_row30[0].truncate(10)
    g = quintic_row30[1].truncate(10)
    scale = lambda s: TruncSeries(tuple(x * c**k for k, x in enumerate(s.coeffs)))
    q_scaled = canonical_coordinate(scale(f), scale(g))
    q = canonical_coordinate(f, g)
    expected = TruncSeries(
        tuple(x * c ** (k - 1) for k, x in enumerate(q.coeffs))
    )
    assert q_scaled == expected


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=0, max_size=8))
@settings(max_examples=60)
def test_q_has_unit_linear_coefficient(tail):
    f = TruncSeries.from_coeffs([F(1)] + tail)
    g = TruncSeries.from_coeffs([F(0)] + tail[::-1])
    q = canonical_coordinate(f, g)
    assert q.coeffs[0] == 0
    assert q.coeffs[1] == 1


# ---------------------------------------------------------------------------
# Dieudonne
# ---------------------------------------------------------------------------


def test_dieudonne_constant_one():
    ok, profile = dieudonne_check(TruncSeries.one(6).log(), 3)
    assert ok and profile.min_valuation >= 0


def test_dieudonne_geometric_series():
    # (1 - z^p) / (1 - z)^p = 1 mod p
    geo = S([1] * 12)
    for p in (2, 3, 5):
        ok, _ = dieudonne_check(geo.log(), p)
        assert ok


def test_dieudonne_geometric_binomial_oracle():
    # direct check: ratio coefficients are binomial alternating sums
    geo = S([1] * 10)
    p = 3
    log_geo = geo.log()  # the ratio as dieudonne_check forms it
    ratio = (p * log_geo - log_geo.substitute_power(p).truncate(10)).exp()
    # (1-z)^{-p} * ... recompute from scratch with integer binomials
    from math import comb

    direct_num = [F(comb(p + k - 1, k)) for k in range(10)]  # 1/(1-z)^p
    expansion = S(direct_num) * S([1] + [0] * (p - 1) + [-1], 10)
    assert ratio.coeffs == expansion.coeffs


@pytest.mark.parametrize("raw", (
    builtin("quintic"),
    hypergeometric(["1/12", "5/12", "7/12", "11/12"], [1, 1, 1, 1], 2**12 * 3**6),  # hg09
    hypergeometric(["1/5", "2/5", "3/5", "4/5"], [1, 1, 1, 1]),
), ids=("quintic", "hg09", "quintic_unscaled"))
def test_dieudonne_ratio_matches_power_over_recurrence_inverse(raw):
    # f^p / f(z^p) = exp(p L - L(z^p)), L = log f, against p products and the
    # order-by-order inverse of f(z^p)
    M = 60
    f = solve_first_row(raw, M)[0]
    log_f = f.log()
    for p in (2, 3, 5, 7, 13):
        ratio = (p * log_f - log_f.substitute_power(p).truncate(M)).exp()
        expected = power_by_products(f, p) * TruncSeries(
            recurrence_inverse(f.substitute_power(p).truncate(M)))
        assert ratio == expected
        profile = ((expected - TruncSeries.one(M)) * F(1, p)).valuation_profile(p)
        assert dieudonne_check(log_f, p) == (profile.is_integral, profile)


def test_dieudonne_detects_denominator():
    for p in (2, 5):
        bad = S([1, F(1, p)], 4)
        ok, profile = dieudonne_check(bad.log(), p)
        assert not ok
        assert profile.min_valuation < 0


def test_dieudonne_random_integer_series():
    rng = random.Random(17)
    for _ in range(30):
        coeffs = [1] + [rng.randint(-50, 50) for _ in range(9)]
        for p in (2, 3, 5):
            ok, _ = dieudonne_check(S(coeffs).log(), p)
            assert ok


def test_dieudonne_requires_unit_constant():
    # log f(0) = 0 exactly when f(0) = 1; f itself passed for log f is refused
    with pytest.raises(BadNormalization):
        dieudonne_check(S([2, 1], 3), 2)
    with pytest.raises(BadNormalization):
        dieudonne_check(S([1, 1], 3), 2)


# ---------------------------------------------------------------------------
# exponential integrality
# ---------------------------------------------------------------------------


def test_expint_zero():
    assert exp_integrality_check(TruncSeries.zero(5), 3)


def test_expint_p_times_z():
    p = 5
    h = S([0, p], 10)
    assert exp_integrality_check(h, p)
    # and exp(pz) - 1 is divisible by p coefficientwise
    e = h.exp()
    scaled = (e - TruncSeries.one(10)) * F(1, p)
    assert scaled.valuation_profile(p).is_integral


def test_expint_rejects_z_over_p():
    assert not exp_integrality_check(S([0, F(1, 5)], 6), 5)


def test_expint_requires_zero_constant():
    with pytest.raises(BadNormalization):
        exp_integrality_check(TruncSeries.one(4), 3)


# ---------------------------------------------------------------------------
# omega congruence
# ---------------------------------------------------------------------------


def test_omega_trivial():
    ok, _ = omega_congruence_check(g_over_f(TruncSeries.one(6), TruncSeries.zero(6)), 5)
    assert ok


def test_omega_quintic_small(quintic_row30):
    f, g = quintic_row30[0], quintic_row30[1]
    for p in (7, 11):
        ok, profile = omega_congruence_check(g_over_f(f, g), p)
        assert ok, profile


def test_omega_rejects_denominator():
    # the offending term of g(z^p)/f(z^p) sits at z^p, so keep p < trunc
    ok, profile = omega_congruence_check(g_over_f(TruncSeries.one(5), S([0, F(1, 2)], 5)), 2)
    assert not ok
    assert profile.min_valuation < 0


def two_quotient_omega(f, g, p, trunc):
    """The omega congruence as (g/f)(z^p) - p (g/f), with g(z^p) / f(z^p)
    formed from the substituted series."""
    fM, gM = f.truncate(trunc), g.truncate(trunc)
    pulled = quotient_by_products(gM.substitute_power(p).truncate(trunc),
                                  fM.substitute_power(p).truncate(trunc))
    d = pulled - p * quotient_by_products(gM, fM)
    profile = d.valuation_profile(p)
    return profile.is_integral and d.constant_term == 0, profile


@pytest.mark.parametrize("trunc", (20, 100))
def test_omega_matches_the_two_quotient_formula(quintic_raw, trunc):
    f, g = solve_first_row(quintic_raw, trunc)[:2]
    h = g_over_f(f, g)
    for p in (5, 7):
        assert omega_congruence_check(h, p) == two_quotient_omega(f, g, p, trunc)
        assert omega_congruence_check(h.truncate(13), p) == two_quotient_omega(f, g, p, 13)
    # g + z^2/7 puts 1/7 at z^14 in h(z^7), which -7 h cannot cancel
    bad_g = g + S([0, 0, F(1, 7)], trunc)
    expected = two_quotient_omega(f, bad_g, 7, trunc)
    assert not expected[0]
    assert omega_congruence_check(g_over_f(f, bad_g), 7) == expected


def test_omega_normalization():
    with pytest.raises(BadNormalization):
        omega_congruence_check(TruncSeries.one(4), 5)
    for f, g in ((S([2, 1], 4), TruncSeries.zero(4)), (TruncSeries.one(4), S([1, 1], 4))):
        with pytest.raises(BadNormalization):
            g_over_f(f, g)


def test_omega_implies_exp_integrality(quintic_row30):
    # an omega congruence that holds forces exp(g/f) to stay p-integral
    f, g = quintic_row30[0], quintic_row30[1]
    h = g_over_f(f, g)
    for p in (7, 11, 13):
        ok, _ = omega_congruence_check(h, p)
        if ok:
            assert h.exp().valuation_profile(p).is_integral


# ---------------------------------------------------------------------------
# N-integrality report
# ---------------------------------------------------------------------------


def test_report_integer_series():
    report = n_integrality_report(S([1, 2, 3], 5))
    assert report.bad_primes == ()
    assert report.suggested_N == 1
    assert report.per_prime == ()
    assert report.certified_trunc == 5
    assert report.unfactored_residue == 1


def test_report_powers_of_two():
    s = TruncSeries(tuple(F(1, 2**n) for n in range(8)))
    report = n_integrality_report(s)
    assert report.bad_primes == (2,)
    assert report.suggested_N == 2
    assert report.worst_valuations == ((2, -7),)
    assert report.per_prime[0][0] == 2
    assert report.per_prime[0][1].min_valuation == -7


def test_report_respects_prime_bound():
    s = S([1, F(1, 2), F(1, 101)], 4)
    report = n_integrality_report(s, prime_bound=10)
    assert report.bad_primes == (2, 101)
    assert report.suggested_N == 202
    assert [p for p, _ in report.per_prime] == [2]


def test_report_quintic_q_is_integral(quintic_row30):
    f, g = quintic_row30[0], quintic_row30[1]
    q = canonical_coordinate(f, g)
    report = n_integrality_report(q, subject="q(quintic)")
    assert report.bad_primes == ()
    assert report.suggested_N == 1


def test_report_same_bad_primes_with_or_without_z_shift(quintic_row30):
    f = quintic_row30[0].truncate(12)
    g = quintic_row30[1].truncate(12)
    e = quotient_by_products(g, f).exp()
    assert (
        n_integrality_report(e).bad_primes
        == n_integrality_report(e.shift(1)).bad_primes
    )


def test_report_unfactored_residue_guard():
    p1, p2 = 1000003, 1000033
    s = S([1, F(1, p1 * p2)], 3)
    report = n_integrality_report(s)
    assert report.unfactored_residue == p1 * p2
    assert report.bad_primes == ()  # nothing below the cap divides it
