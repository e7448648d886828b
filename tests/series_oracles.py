"""Fraction-arithmetic forms of the series quotient and power, kept as exact
oracles for the integer recurrence behind TruncSeries.divide, exp and log.
They read only the public API."""

from fractions import Fraction

from mumkit import TruncSeries


def recurrence_inverse(a):
    """The order-by-order inverse b_k = -(1/a_0) sum_{j=1..k} a_j b_{k-j},
    in Fraction arithmetic."""
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.trunc):
        out.append(-inv0 * sum((a.coeffs[j] * out[k - j] for j in range(1, k + 1)),
                               Fraction(0)))
    return tuple(out)


def quotient_by_products(a, b):
    """a / b as a times the order-by-order inverse of b, to the smaller order."""
    return a * TruncSeries(recurrence_inverse(b))


def power_by_products(a, e):
    """a^e as e products, starting from 1."""
    out = TruncSeries.one(a.trunc)
    for _ in range(e):
        out = out * a
    return out
