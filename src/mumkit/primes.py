"""Small number-theory helpers: primality, prime enumeration, smooth factoring."""

from __future__ import annotations

import math

# factor() divides by trial divisors up to this bound only
TRIAL_CAP = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(bound)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def factor(n: int) -> tuple[dict[int, int], int]:
    """Factor n > 0 by trial division up to TRIAL_CAP.

    Returns (exponents, residue).  residue == 1 means the factorization is
    complete; otherwise residue is the unfactored cofactor (it is recorded,
    never silently dropped).  Denominators arising in this package are smooth
    in practice, so the cap is a guard against pathological inputs only.
    """
    if n <= 0:
        raise ValueError("factor() expects a positive integer")
    exps: dict[int, int] = {}
    for p in (2, 3, 5):
        v, n = _strip(n, p)
        if v:
            exps[p] = v
    d = 7
    # wheel over numbers coprime to 2,3,5
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while d * d <= n and d <= TRIAL_CAP:
        if n % d == 0:
            exps[d], n = _strip(n, d)
        d += increments[idx]
        idx = (idx + 1) % 8
    if n > 1:
        if d * d > n or is_prime(n):
            exps[n] = exps.get(n, 0) + 1
            n = 1
    return exps, n


def _strip(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v the multiplicity of p >= 2 in n != 0.

    Divides by p, p^2, p^4, ... while they divide, then descends through
    the same powers, so it takes O(log v) big divisions instead of v."""
    powers = []
    pk = p
    while not n % pk:
        n //= pk
        powers.append(pk)
        pk *= pk
    # p^(2^k - 1) is out, k = len(powers), and v_p(n) < 2^k is left: one
    # bit of it per power, from the largest down
    v = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        if not n % powers[i]:
            n //= powers[i]
            v += 1 << i
    return v, n


def vp_int(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    if p < 2:
        raise ValueError(f"vp_int needs p >= 2, got {p}")
    if n == 0:
        raise ValueError("vp_int of zero is infinite")
    if n % p:
        return 0  # the common case costs one remainder
    return _strip(n, p)[0]


def vp_factorial(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v
