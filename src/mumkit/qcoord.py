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


def dieudonne_check(f: TruncSeries, p: int, trunc: int | None = None):
    """Is f(z)^p / f(z^p) in 1 + p z Z_p[[z]] up to the requested order?

    Returns (ok, profile) where profile audits (f^p/f(z^p) - 1)/p, so the
    check passes exactly when profile.min_valuation >= 0.  The ratio is
    exp(p L - L(z^p)) with L = log f, which is exact because f(0) = 1.
    """
    if f.constant_term != 1:
        raise BadNormalization("f must have constant term 1")
    M = f.trunc if trunc is None else min(trunc, f.trunc)
    return _dieudonne_from_log(f.truncate(M).log(), p)


def _dieudonne_from_log(log_f: TruncSeries, p: int):
    """dieudonne_check from L = log f, to L's order.  L does not depend on
    p, so a caller checking several primes forms it once."""
    M = log_f.trunc
    ratio = (p * log_f - log_f.substitute_power(p).truncate(M)).exp()
    scaled = (ratio - TruncSeries.one(M)) * Fraction(1, p)
    profile = scaled.valuation_profile(p)
    return profile.is_integral, profile


def exp_integrality_check(h: TruncSeries, p: int, trunc: int | None = None) -> bool:
    """Does (1/p) h(z^p) - h have nonnegative p-adic valuations up to M?
    When it does, exp(h) is p-integral; that consequence is re-checked
    directly as a guard against arithmetic slips."""
    if h.constant_term != 0:
        raise BadNormalization("h must have constant term 0")
    M = h.trunc if trunc is None else min(trunc, h.trunc)
    hM = h.truncate(M)
    d = hM.substitute_power(p).truncate(M) * Fraction(1, p) - hM
    ok = d.valuation_profile(p).is_integral
    if ok and not hM.exp().valuation_profile(p).is_integral:
        raise InternalError(f"exp(h) is not {p}-integral although h passed")
    return ok


def omega_congruence_check(h: TruncSeries, p: int, trunc: int | None = None):
    """Is h(z^p) - p*h in z Z_p[[z]] up to the requested order, for
    h = g_over_f(f, g)?  This is the log-free form of the omega congruence;
    (g/f)(z^p) is h(z^p), so h is formed once for every prime."""
    if h.constant_term != 0:
        raise BadNormalization("h must have constant term 0")
    M = h.trunc if trunc is None else min(trunc, h.trunc)
    hM = h.truncate(M)
    d = hM.substitute_power(p).truncate(M) - p * hM
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
                         trunc: int | None = None,
                         subject: str = "series") -> IntegralityReport:
    """Factor every coefficient denominator of s up to the requested order."""
    M = s.trunc if trunc is None else min(trunc, s.trunc)
    s = s.truncate(M)
    if s.den == 1:
        return IntegralityReport(subject, M, (), 1, (), (), 1)
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
    return IntegralityReport(subject, M, bad, n, worst, per_prime, residue)
