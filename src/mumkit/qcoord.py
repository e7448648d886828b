"""Canonical coordinate and the integrality congruence checks.

All checks here are certificates "up to the truncation order M": they
inspect every computed coefficient exactly and say nothing about the
infinite tail.  Every report records the order it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primes import factor
from .series import InternalError, TruncSeries, ValuationProfile


class BadNormalization(ValueError):
    """canonical_coordinate and the congruence checks need f(0)=1, g(0)=0."""


def _require_fg(f: TruncSeries, g: TruncSeries):
    if f.constant_term != 1:
        raise BadNormalization("f must have constant term 1")
    if g.constant_term != 0:
        raise BadNormalization("g must have constant term 0")


def g_over_f(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """h = g/f, to order min(f.trunc, g.trunc); needs f(0) = 1, g(0) = 0."""
    _require_fg(f, g)
    return g.divide(f)


def canonical_coordinate(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """q = z * exp(g/f); the mirror-map coordinate.  Output order is
    min(f.trunc, g.trunc) + 1 because the z-shift loses nothing."""
    return g_over_f(f, g).exp().shift(1)


def dieudonne_check(log_f: TruncSeries, p: int):
    """Is f(z)^p / f(z^p) in 1 + p z Z_p[[z]] up to the order of L = log f?

    Returns (ok, profile) where profile audits (f^p/f(z^p) - 1)/p, so the
    check passes exactly when profile.min_valuation >= 0.  The ratio is
    exp(p L - L(z^p)), which is exact because f(0) = 1, i.e. L(0) = 0.  L
    does not depend on p, so a caller checking several primes forms it once.
    """
    if log_f.constant_term != 0:
        raise BadNormalization("log f must have constant term 0")
    M = log_f.trunc
    ratio = (p * log_f - log_f.substitute_power(p, M)).exp()
    scaled = (ratio - TruncSeries.one(M)) * Fraction(1, p)
    profile = scaled.valuation_profile(p)
    return profile.is_integral, profile


def exp_integrality_check(h: TruncSeries, p: int) -> bool:
    """Does (1/p) h(z^p) - h have nonnegative p-adic valuations up to h's
    order?  When it does, exp(h) is p-integral; that consequence is
    re-checked directly as a guard against arithmetic slips."""
    if h.constant_term != 0:
        raise BadNormalization("h must have constant term 0")
    d = h.substitute_power(p, h.trunc) * Fraction(1, p) - h
    ok = d.valuation_profile(p).is_integral
    if ok and not h.exp().valuation_profile(p).is_integral:
        raise InternalError(f"exp(h) is not {p}-integral although h passed")
    return ok


def omega_congruence_check(h: TruncSeries, p: int):
    """Is h(z^p) - p*h in z Z_p[[z]] up to h's order, for h = g_over_f(f, g)?
    This is the log-free form of the omega congruence; (g/f)(z^p) is
    h(z^p), so h is formed once for every prime."""
    if h.constant_term != 0:
        raise BadNormalization("h must have constant term 0")
    d = h.substitute_power(p, h.trunc) - p * h
    profile = d.valuation_profile(p)
    return profile.is_integral, profile


@dataclass(frozen=True)
class IntegralityReport:
    """Denominator audit of a series prefix.

    bad_primes is exact for the inspected prefix (every prime dividing some
    coefficient denominator, no bound); suggested_N is their radical, so a
    caller wanting f(Nz) integral must instead use worst_valuations, which
    carries the per-prime extremes.  Full per-prime profiles are retained
    only for bad primes up to prime_bound.  unfactored_residue records any
    cofactor the trial-division cap could not split (1 when complete).
    """

    subject: str
    certified_trunc: int
    bad_primes: tuple[int, ...]
    suggested_N: int
    worst_valuations: tuple[tuple[int, int], ...]
    per_prime: tuple[tuple[int, ValuationProfile], ...]
    unfactored_residue: int


def n_integrality_report(s: TruncSeries, prime_bound: int = 100,
                         subject: str = "series") -> IntegralityReport:
    """Factor every coefficient denominator of s up to its order."""
    if s.den == 1:
        return IntegralityReport(subject, s.trunc, (), 1, (), (), 1)
    exps, residue = factor(s.den)
    bad = tuple(sorted(exps))
    worst = tuple((p, -e) for p, e in sorted(exps.items()))
    per_prime = tuple(
        (p, s.valuation_profile(p))
        for p in bad
        if p <= prime_bound
    )
    n = 1
    for p in bad:
        n *= p
    return IntegralityReport(subject, s.trunc, bad, n, worst, per_prime, residue)
