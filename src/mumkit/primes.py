"""Small number-theory helpers: primality, prime enumeration, smooth factoring."""

from __future__ import annotations

import math


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


def factor(n: int, trial_cap: int = 10**6) -> tuple[dict[int, int], int]:
    """Factor n > 0 by trial division up to trial_cap.

    Returns (exponents, residue).  residue == 1 means the factorization is
    complete; otherwise residue is the unfactored cofactor (it is recorded,
    never silently dropped).  Denominators arising in this package are smooth
    in practice, so the cap is a guard against pathological inputs only.
    """
    if n <= 0:
        raise ValueError("factor() expects a positive integer")
    exps: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over numbers coprime to 2,3,5
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while d * d <= n and d <= trial_cap:
        if n % d == 0:
            exps[d] = exps.get(d, 0) + 1
            n //= d
        else:
            d += increments[idx]
            idx = (idx + 1) % 8
    if n > 1:
        if d * d > n or is_prime(n):
            exps[n] = exps.get(n, 0) + 1
            n = 1
    return exps, n


def vp_int(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    if p < 2:
        raise ValueError(f"vp_int needs p >= 2, got {p}")
    if n == 0:
        raise ValueError("vp_int of zero is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v
