"""Truncated formal power series and series matrices over exact rationals.

A TruncSeries knows its coefficients c_0 .. c_{M-1} exactly and nothing
beyond; M is the truncation order.  Binary operations truncate to the
smaller operand order, except where a sharper output order is provable
(substitute_power, cartier, shift), in which case the method documents
its exact output order.  Everything is immutable.

A series is stored as integer numerators over one denominator, reduced as
a whole, and every operation runs on those integers: sums over the lcm of
the two denominators, with one running gcd per result.  The coefficients
as reduced Fractions are built only when read.  Products have one loop,
_dot, a sum of integer convolutions over the lcm of the terms'
denominators that skips zero entries and coefficients and loops over the
sparser operand of each term on the outside: a product of two series is
one _dot term, and each entry of a sum of SeriesMatrix products is one
_dot.  right_divide solves U M(z^s) = X for a few rows X order by order on
integers, so no matrix inverse is ever formed.  Every valuation profile,
of a series, a matrix, a monic operator or integer rows, is
ValuationProfile.of_rows.
divide, exp and log share one recurrence on integers, which keeps the
coefficients found so far as numerators over one running denominator;
coefficient k of log(a) is that of delta(a) / a over k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul

from .primes import vp_int

INF = math.inf  # valuation of the zero coefficient; compares above any int

_F0 = Fraction(0)


class InternalError(RuntimeError):
    """An invariant of mumkit's own arithmetic failed: a bug, not bad input."""


class ZeroConstantTerm(ValueError):
    """Division by a series with vanishing constant term."""


class BadConstantTerm(ValueError):
    """exp needs c0 = 0, log needs c0 = 1."""


def _over_lcm(nums: list[int], v: int, den: int) -> tuple[int, list[int]]:
    """nums over v restated over lcm(v, den); unchanged when den divides v."""
    if v % den == 0:
        return v, nums
    scale = den // math.gcd(v, den)
    return v * scale, [x * scale for x in nums]


def _recurrence(lead, r, dr: int, w, dw: int) -> "TruncSeries":
    """x_0 .. x_{n-1}, n = len(r), from lead_k x_k = r_k / dr + sum_{j>=1} (w_j / dw) x_{k-j}.

    lead, r and w hold integers, lead nonzero ones; r over dr and w over dw
    should be reduced, as their denominators enter every step.  x_0 ..
    x_{k-1} are kept as numerators over one running denominator v, the lcm
    of their denominators, and zero w_j are skipped, so each x_k costs one
    integer sum and is reduced once, as a Fraction.  Those Fractions come
    with the series as its coefficients."""
    terms = [(j, x) for j, x in enumerate(w) if x and j]
    out, nums, v = [], [], 1
    for k, rk in enumerate(r):
        acc = 0
        for j, x in terms:
            if j > k:
                break
            acc += x * nums[k - j]
        xk = Fraction(dr * acc + dw * rk * v, dr * dw * v * lead[k])
        out.append(xk)
        v, nums = _over_lcm(nums, v, xk.denominator)
        nums.append(xk.numerator * (v // xk.denominator))
    return TruncSeries._from_nums(nums, v, tuple(out))


def vp(x: Fraction, p: int):
    """p-adic valuation of a rational; INF for zero."""
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


@dataclass(frozen=True)
class ValuationProfile:
    """p-adic audit of the coefficients of one or more series: the minimum
    valuation over all of them, plus the list of offending exponents.

    negative_valuations holds (exponent, valuation) pairs for valuations < 0
    only, so min_valuation >= 0 exactly when the list is empty.
    """

    prime: int
    min_valuation: int | float
    negative_valuations: tuple[tuple[int, int], ...]

    @property
    def is_integral(self) -> bool:
        return self.min_valuation >= 0

    @staticmethod
    def of_rows(rows, p: int) -> "ValuationProfile":
        """The profile of the coefficients of integer rows (den, [numerator
        lists]), coefficient k of an entry being its numerator k over den:
        v_p is v_p(numerator) - v_p(den), and each exponent keeps its least
        negative valuation.  A row whose den p does not divide has no
        negative valuation, and its least is that of the gcd of its
        numerators; any other row is read coefficient by coefficient."""
        min_v, neg = INF, {}
        for den, nums in rows:
            vd = vp_int(den, p)
            if not vd:
                g = math.gcd(*chain.from_iterable(nums))
                if g:
                    min_v = min(min_v, vp_int(g, p))
                continue
            for entry in nums:
                for k, x in enumerate(entry):
                    if x:
                        v = vp_int(x, p) - vd
                        if v < min_v:
                            min_v = v
                        if v < neg.get(k, 0):
                            neg[k] = v
        return ValuationProfile(p, min_v, tuple(sorted(neg.items())))


@dataclass(frozen=True, init=False, slots=True)
class TruncSeries:
    """Power series known exactly modulo z^trunc, with trunc = len(nums).

    Coefficient k is nums[k] / den, reduced as a whole: den >= 1,
    gcd(den, *nums) = 1, and den = 1 for the zero series.  So den is the
    lcm of the coefficient denominators, and two series are equal exactly
    when their coefficients are.  `coeffs`, the coefficients as reduced
    Fractions, is built on first read and kept."""

    nums: tuple[int, ...]
    den: int
    _coeffs: tuple[Fraction, ...] | None = field(compare=False, repr=False)

    def __init__(self, coeffs):
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("truncation order must be positive")
        # the lcm of reduced denominators leaves no factor common to all
        den = math.lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", cs)

    @staticmethod
    def _from_nums(nums, den: int, coeffs=None) -> "TruncSeries":
        """The series nums[k] / den, den >= 1, reduced by one running gcd
        that stops once it reaches 1.  coeffs, when given, are its
        coefficients as reduced Fractions."""
        if not nums:
            raise ValueError("truncation order must be positive")
        g = den
        if g != 1:
            for x in nums:
                if x:
                    g = math.gcd(g, x)
                    if g == 1:
                        break
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        s = object.__new__(TruncSeries)
        object.__setattr__(s, "nums", tuple(nums))
        object.__setattr__(s, "den", den)
        object.__setattr__(s, "_coeffs", coeffs)
        return s

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs, trunc: int | None = None) -> "TruncSeries":
        """Build from an explicit coefficient list; when trunc exceeds the
        list length the series is a polynomial and the tail is genuinely
        zero, so zero-padding is knowledge, not a guess."""
        cs = list(coeffs)
        if trunc is None:
            return TruncSeries(cs or [0])
        if trunc < 1:
            raise ValueError("truncation order must be positive")
        s = TruncSeries(cs[:trunc] or [0])
        return TruncSeries._from_nums(s.nums + (0,) * (trunc - s.trunc), s.den)

    @staticmethod
    def zero(trunc: int) -> "TruncSeries":
        return TruncSeries._from_nums((0,) * trunc, 1)

    @staticmethod
    def one(trunc: int) -> "TruncSeries":
        return TruncSeries._from_nums((1,) + (0,) * (trunc - 1), 1)

    @staticmethod
    def constant(c, trunc: int) -> "TruncSeries":
        c = Fraction(c)
        return TruncSeries._from_nums((c.numerator,) + (0,) * (trunc - 1), c.denominator)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            d = self.den
            cs = tuple(Fraction(x, d) if x else _F0 for x in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def trunc(self) -> int:
        return len(self.nums)

    def __getitem__(self, k: int) -> Fraction:
        if self._coeffs is None and isinstance(k, int):
            return Fraction(self.nums[k], self.den)
        return self.coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return self[0]

    def truncate(self, trunc: int) -> "TruncSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend knowledge by truncating")
        if trunc == self.trunc:
            return self
        cs = self._coeffs
        return TruncSeries._from_nums(self.nums[:trunc], self.den,
                                      None if cs is None else cs[:trunc])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def first_nonzero(self) -> int | None:
        return next((k for k, x in enumerate(self.nums) if x), None)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.trunc})"

    # -- ring operations (min-trunc rule) -----------------------------------

    def _plus(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self.den, other.den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return TruncSeries._from_nums(
            [x * sa + y * sb for x, y in zip(self.nums, other.nums)], da * sa)

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            return self._plus(other, 1)
        return self + TruncSeries.constant(other, self.trunc)

    __radd__ = __add__

    def __neg__(self):
        cs = self._coeffs
        return TruncSeries._from_nums(tuple(-x for x in self.nums), self.den,
                                      None if cs is None else tuple(-c for c in cs))

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            return self._plus(other, -1)
        return self - TruncSeries.constant(other, self.trunc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a series, to the smaller order, as one _dot term, or
        with a scalar."""
        if isinstance(other, TruncSeries):
            n = min(self.trunc, other.trunc)
            return _dot([(_sparse(self, n), _sparse(other, n))], n)
        c = Fraction(other)
        return TruncSeries._from_nums([c.numerator * x for x in self.nums],
                                      c.denominator * self.den)

    __rmul__ = __mul__

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """self / other, to the smaller order; requires other(0) != 0.

        b_0 h_k = a_k - sum_{j>=1} b_j h_{k-j}, run on b's numerators B over
        its denominator d as B_0 h_k = d a_k - sum B_j h_{k-j}.  Zero b_j are
        skipped, so dividing by a polynomial of degree e costs about n * e
        integer products."""
        if not other.nums[0]:
            raise ZeroConstantTerm("cannot divide by a series with c0 = 0")
        n = min(self.trunc, other.trunc)
        a, b = self.truncate(n), other.truncate(n)
        # d a over a's denominator, reduced as a is: d/g and a.den/g are coprime
        g = math.gcd(a.den, b.den)
        return _recurrence([b.nums[0]] * n, [x * (b.den // g) for x in a.nums], a.den // g,
                           [-x for x in b.nums], 1)

    # -- calculus and substitutions ------------------------------------------

    def delta(self) -> "TruncSeries":
        """The Euler derivative z*d/dz: coefficient k maps to k*c_k."""
        return TruncSeries._from_nums([k * x for k, x in enumerate(self.nums)], self.den)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by z^k.  Output order trunc + k: no knowledge is lost."""
        cs = self._coeffs
        return TruncSeries._from_nums((0,) * k + self.nums, self.den,
                                      None if cs is None else (_F0,) * k + cs)

    def substitute_power(self, q: int, trunc: int | None = None) -> "TruncSeries":
        """f(z^q).  Output order q*(trunc-1) + 1 by default; gaps between
        surviving exponents are genuinely zero, so any order up to
        q*self.trunc may be asked for."""
        if q < 1:
            raise ValueError("substitution exponent must be >= 1")
        n = q * (self.trunc - 1) + 1 if trunc is None else trunc
        if not 1 <= n <= q * self.trunc:
            raise ValueError(f"f(z^{q}) is known to order {q * self.trunc} only")
        kept = self.truncate((n - 1) // q + 1)
        out = [0] * n
        out[::q] = kept.nums
        return TruncSeries._from_nums(out, kept.den)

    def cartier(self, p: int) -> "TruncSeries":
        """Coefficient extraction sum a_{ip} z^i.  Output order ceil(trunc/p)."""
        return TruncSeries._from_nums(self.nums[::p], self.den)

    def exp(self) -> "TruncSeries":
        """Formal exponential; requires c0 = 0.  k E_k = sum_{j>=1} (j c_j) E_{k-j}
        with E_0 = 1."""
        if self.nums[0]:
            raise BadConstantTerm("exp needs a series with c0 = 0")
        n = self.trunc
        d = self.delta()
        return _recurrence([1, *range(1, n)], [1] + [0] * (n - 1), 1, d.nums, d.den)

    def log(self) -> "TruncSeries":
        """Formal logarithm; requires c0 = 1.  delta(log a) = delta(a) / a, so
        L_k = u_k / k for u = delta(a) / a."""
        if self.nums[0] != self.den:
            raise BadConstantTerm("log needs a series with c0 = 1")
        u = self.delta().divide(self)
        return TruncSeries((_F0,) + tuple(u[k] / k for k in range(1, self.trunc)))

    # -- p-adic audit ---------------------------------------------------------

    def valuation_profile(self, p: int) -> ValuationProfile:
        return ValuationProfile.of_rows(((self.den, (self.nums,)),), p)


@dataclass(frozen=True)
class SeriesMatrix:
    """Square matrix of TruncSeries sharing one truncation order."""

    entries: tuple[tuple[TruncSeries, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")
        truncs = {e.trunc for row in self.entries for e in row}
        if len(truncs) != 1:
            raise ValueError("all entries must share one truncation order")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_constant(rows, trunc: int) -> "SeriesMatrix":
        return SeriesMatrix(
            tuple(
                tuple(TruncSeries.constant(x, trunc) for x in row) for row in rows
            )
        )

    @staticmethod
    def identity(n: int, trunc: int) -> "SeriesMatrix":
        one = TruncSeries.one(trunc)
        zero = TruncSeries.zero(trunc)
        return SeriesMatrix(
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            )
        )

    # -- basics ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def trunc(self) -> int:
        return self.entries[0][0].trunc

    def entry(self, i: int, j: int) -> TruncSeries:
        return self.entries[i][j]

    def constant_matrix(self):
        """The matrix of constant terms, as rows of Fractions."""
        return tuple(tuple(e.constant_term for e in row) for row in self.entries)

    def truncate(self, trunc: int) -> "SeriesMatrix":
        return self.map(lambda e: e.truncate(trunc))

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def residual_order(self) -> int:
        """Largest k <= trunc with all entries = 0 mod z^k."""
        order = self.trunc
        for row in self.entries:
            for e in row:
                fn = e.first_nonzero()
                if fn is not None and fn < order:
                    order = fn
        return order

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "SeriesMatrix":
        return self.map(lambda e: -e)

    def scale(self, c) -> "SeriesMatrix":
        c = Fraction(c)
        return self.map(lambda e: e * c)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return _sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(pairs) -> "SeriesMatrix":
        """Sum of the products A B over the (A, B) pairs, to the smallest order."""
        return _sum_of_products(pairs)

    def delta(self) -> "SeriesMatrix":
        return self.map(lambda e: e.delta())

    def substitute_power(self, q: int, trunc: int | None = None) -> "SeriesMatrix":
        return self.map(lambda e: e.substitute_power(q, trunc))

    def cartier(self, p: int) -> "SeriesMatrix":
        return self.map(lambda e: e.cartier(p))

    def det(self) -> TruncSeries:
        """Determinant by cofactor expansion (dimensions here are small)."""
        n = self.n
        if n == 1:
            return self.entries[0][0]
        acc = TruncSeries.zero(self.trunc)
        for j in range(n):
            if self.entries[0][j].is_zero():
                continue
            minor = SeriesMatrix(
                tuple(
                    tuple(row[jj] for jj in range(n) if jj != j)
                    for row in self.entries[1:]
                )
            )
            term = self.entries[0][j] * minor.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    # -- p-adic audit ---------------------------------------------------------------

    def valuation_profile(self, p: int) -> ValuationProfile:
        """The profile of all entries, each read as its own integer row."""
        return ValuationProfile.of_rows(
            ((e.den, (e.nums,)) for row in self.entries for e in row), p)


def _sparse(e: TruncSeries, trunc: int):
    """e's nonzero coefficients below trunc: ((exponent, numerator) pairs, den)."""
    return [(k, x) for k, x in enumerate(e.nums[:trunc]) if x], e.den


def _dot(terms, trunc: int) -> TruncSeries:
    """Sum of x y over the pairs of _sparse operands, mod z^trunc, over L,
    the lcm of the products d e of their denominators.  Each term loops
    over its sparser operand on the outside and scales that one by
    L / (d e); the result is reduced once."""
    terms = [(x, y) if len(x[0]) <= len(y[0]) else (y, x) for x, y in terms if x[0] and y[0]]
    den = math.lcm(*(x[1] * y[1] for x, y in terms))
    out = [0] * trunc
    for (xs, d), (ys, e) in terms:
        scale = den // (d * e)
        for a, u in xs:
            u *= scale
            for b, v in ys:
                if a + b >= trunc:
                    break
                out[a + b] += u * v
    return TruncSeries._from_nums(out, den)


def _sum_of_products(pairs) -> SeriesMatrix:
    """Sum of A B over the (A, B) pairs, on integers, to the smallest order.

    Each distinct operand is read once, as _sparse entries; output entry
    (i, j) is the _dot of the terms A[i][k] B[k][j].  Zero entries and
    coefficients are skipped, so a product by a sparse matrix visits its
    nonzero entries only."""
    trunc = min(min(a.trunc, b.trunc) for a, b in pairs)
    sparse = {}
    for mat in (operand for pair in pairs for operand in pair):
        if id(mat) not in sparse:
            sparse[id(mat)] = [[_sparse(e, trunc) for e in row] for row in mat.entries]
    sides = [(sparse[id(a)], sparse[id(b)]) for a, b in pairs]
    n = pairs[0][0].n
    return SeriesMatrix(tuple(
        tuple(_dot([(x, y) for left, right in sides
                    for x, y in zip(left[i], (r[j] for r in right))], trunc)
              for j in range(n))
        for i in range(n)))


def right_divide(rows, mat: SeriesMatrix, s: int = 1) -> tuple:
    """The rows U with U mat(z^s) = X, one for each row X of series in
    `rows`, mod z^t for t the smallest of the rows' orders and s mat.trunc;
    mat(0) must be I.

    With each X over the lcm e of its denominators and M_j, mat's
    coefficient j, over the lcm d of its own, e U_k = e X_k - (1/d)
    sum_{j>=1} e U_{k-sj} M_j.  U_k meets only U_{k-s}, U_{k-2s}, ..., so
    the e U_k with k = r mod s, of every row, are kept as numerators over
    one running denominator v_r, and each entry of the sum is one integer
    dot product over v_r d.  Each step is reduced by one gcd; when v_r
    grows, the earlier numerators of its class are rescaled.  No inverse
    is formed."""
    if any(e.nums[0] != (e.den if i == j else 0)
           for i, row in enumerate(mat.entries) for j, e in enumerate(row)):
        raise ValueError("matrix must have constant term I")
    n = mat.n
    trunc = min(min(e.trunc for row in rows for e in row), s * mat.trunc)
    top = (trunc - 1) // s + 1  # M_j is read for j < top
    d = math.lcm(*(e.den for row in mat.entries for e in row))
    # column l of M_{top-1} .. M_1 over d; at step t of a class its last
    # n t numerators meet the class's t earlier steps of a row, oldest first
    cols = [[e.nums[j] * (d // e.den) for j in range(top - 1, 0, -1) for e in col]
            for col in zip(*mat.entries)]
    by_step = [[col[(top - 1 - t) * n:] for col in cols] for t in range(top)]
    es = [math.lcm(*(c.den for c in x)) for x in rows]
    xs = [[[y * (e // c.den) for y in c.nums[:trunc]] for c in x] for x, e in zip(rows, es)]
    # per class r and row: e U_r, e U_{r+s}, ... as one flat list, over
    # dens[r]; e U_r = e X_r for r < s is integral
    done = [[[xk[r] for xk in x] for x in xs] for r in range(min(s, trunc))]
    dens = [1] * len(done)
    for k in range(s, trunc):
        t, r = divmod(k, s)
        hs, v = done[r], dens[r]
        vd = v * d
        num = [xk[k] * vd - sum(map(mul, col, h))
               for x, h in zip(xs, hs) for xk, col in zip(x, by_step[t])]
        g = math.gcd(vd, *num)
        if g != 1:
            num = [y // g for y in num]
        den = vd // g
        if v % den:
            f = den // math.gcd(v, den)
            done[r] = hs = [[y * f for y in h] for h in hs]
            dens[r] = v = v * f
        if v != den:
            f = v // den
            num = [y * f for y in num]
        for i, h in enumerate(hs):
            h += num[i * n:i * n + n]
    v = math.lcm(*dens)
    scales = [v // w for w in dens]
    return tuple(tuple(TruncSeries._from_nums(
        [done[k % s][i][k // s * n + l] * scales[k % s] for k in range(trunc)], v * e)
        for l in range(n)) for i, e in enumerate(es))
