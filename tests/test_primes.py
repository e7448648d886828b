"""The p-adic valuation of integers and trial-division factoring, against
the one-division-at-a-time loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumkit.primes import factor, is_prime, vp_int

PRIMES = st.sampled_from([2, 3, 5, 7, 13, 1000003])


def naive_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30).filter(bool), PRIMES, st.integers(0, 2000))
def test_vp_int_matches_the_division_loop(u, p, k):
    # u may hold p itself, so v_p(u p^k) can exceed k
    n = u * p**k
    assert vp_int(n, p) == naive_vp(n, p)
    assert vp_int(-n, p) == vp_int(n, p)


def test_vp_int_of_powers_of_two():
    # every v in 0..69 takes a different path down the ladder of squares
    for k in range(70):
        for u in (1, 3, -1, -5):
            assert vp_int(u * 2**k, 2) == k


def test_vp_int_rejects_zero_and_small_p():
    with pytest.raises(ValueError, match="infinite"):
        vp_int(0, 3)
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="p >= 2"):
            vp_int(12, p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 7919]),
                          st.integers(1, 300)), max_size=4),
       st.sampled_from([1, 1000003, 1000033 * 1000037]))
def test_factor_matches_the_division_loop(powers, residue):
    n = residue
    for p, e in powers:
        n *= p**e
    exps, left = factor(n)
    assert all(is_prime(p) for p in exps)
    assert exps == {p: naive_vp(n, p) for p in exps}
    product = left
    for p, e in exps.items():
        product *= p**e
    assert product == n
    # a prime cofactor is recorded as a factor; a product of two primes
    # above the trial cap stays as the residue
    assert left == (1 if residue < 10**12 else residue)
