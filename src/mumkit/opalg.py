"""Differential-operator algebra in the Euler derivation D = z*d/dz.

Operators are parsed from a small text grammar, expanded with the
noncommutative rewrite D*f(z) = f(z)*D + delta(f), normalized to integer
polynomial coefficients (RawOperator), and turned into monic operators
with truncated-series coefficients (DeltaOperator).  The library works on
the parsed operator wherever it can; a DeltaOperator carries only what is
read of it: its coefficients and polynomial rows, the MUM test and its
p-integrality profile.

Grammar (whitespace insignificant, `^` binds tighter than `*`):

    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" uint)?
    base     := "D" | "z" | rational | "(" expr ")"
    rational := int ("/" uint)?

Signed integer literals are accepted at base position so that the
canonical printer round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .primes import vp_int
from .series import TruncSeries, ValuationProfile


class OperatorSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ZeroLeadingCoefficient(ValueError):
    """Expansion produced no usable leading coefficient (zero operator or
    an operator with no differential part)."""


class ApparentSingularityAtZero(ValueError):
    """Monic normalization needs the leading polynomial nonzero at z = 0."""


class NotMUM(ValueError):
    """Operation requires maximal unipotent monodromy at zero."""


class UnknownOperator(KeyError):
    pass


# ---------------------------------------------------------------------------
# polynomials in z (dense tuples of ints and Fractions: only a/b literals
# are Fractions) and the noncommutative algebra
# ---------------------------------------------------------------------------


def _poly_trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim(
        [
            (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
            for k in range(n)
        ]
    )


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_delta(a):
    return _poly_trim([k * c for k, c in enumerate(a)])


class _NCOperator:
    """Element of Q[z][D] during expansion: a map D-power -> polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, tuple[Fraction, ...]] | None = None):
        self.terms = {}
        if terms:
            for i, poly in terms.items():
                if poly:
                    self.terms[i] = poly

    @staticmethod
    def scalar(c: int | Fraction) -> "_NCOperator":
        return _NCOperator({0: _poly_trim([c])})

    @staticmethod
    def z() -> "_NCOperator":
        return _NCOperator({0: (0, 1)})

    @staticmethod
    def d() -> "_NCOperator":
        return _NCOperator({1: (1,)})

    def __add__(self, other):
        out = dict(self.terms)
        for i, poly in other.terms.items():
            merged = _poly_add(out.get(i, ()), poly)
            if merged:
                out[i] = merged
            else:
                out.pop(i, None)
        return _NCOperator(out)

    def __neg__(self):
        return _NCOperator(
            {i: tuple(-c for c in poly) for i, poly in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # p(z) D^i * q(z) D^j: push D^i through q(z) with D*q = q*D + delta(q)
        out: dict[int, tuple[Fraction, ...]] = {}
        for i, p in self.terms.items():
            for j, q in other.terms.items():
                # layers: D^i q = sum_k layer[k] D^k
                layers = {0: q}
                for _ in range(i):
                    nxt: dict[int, tuple[Fraction, ...]] = {}
                    for k, poly in layers.items():
                        nxt[k + 1] = _poly_add(nxt.get(k + 1, ()), poly)
                        dp = _poly_delta(poly)
                        if dp:
                            nxt[k] = _poly_add(nxt.get(k, ()), dp)
                    layers = {k: v for k, v in nxt.items() if v}
                for k, poly in layers.items():
                    contrib = _poly_mul(p, poly)
                    if contrib:
                        merged = _poly_add(out.get(k + j, ()), contrib)
                        if merged:
                            out[k + j] = merged
                        else:
                            out.pop(k + j, None)
        return _NCOperator(out)

    def pow(self, e: int) -> "_NCOperator":
        """self^e: D^e directly, any other operator by e noncommutative
        products."""
        if self.terms == {1: (1,)}:
            return _NCOperator({e: (1,)})
        result = _NCOperator.scalar(1)
        for _ in range(e):
            result = result * self
        return result


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM D Z + - * / ^ ( ) EOF
    text: str
    line: int
    col: int


_DIGITS = "0123456789"  # str.isdigit also accepts non-ASCII digits


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "D":
            tokens.append(_Token("D", ch, line, col))
        elif ch == "z":
            tokens.append(_Token("Z", ch, line, col))
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
        else:
            raise OperatorSyntaxError(f"unexpected character {ch!r}", line, col)
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise OperatorSyntaxError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def parse(self) -> _NCOperator:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise OperatorSyntaxError(
                f"trailing input {tok.text!r}", tok.line, tok.col
            )
        return value

    def expr(self) -> _NCOperator:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> _NCOperator:
        value = self.factor()
        while self.peek().kind == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> _NCOperator:
        base = self.base()
        if self.peek().kind == "^":
            self.next()
            tok = self.expect("NUM")
            return base.pow(int(tok.text))
        return base

    def base(self) -> _NCOperator:
        tok = self.peek()
        if tok.kind == "D":
            self.next()
            return _NCOperator.d()
        if tok.kind == "Z":
            self.next()
            return _NCOperator.z()
        if tok.kind == "(":
            self.next()
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "-":
            self.next()
            return _NCOperator.scalar(-self.rational())
        if tok.kind == "NUM":
            return _NCOperator.scalar(self.rational())
        raise OperatorSyntaxError(
            f"expected D, z, a rational or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    def rational(self) -> int | Fraction:
        """An integer literal as an int, a/b as a Fraction."""
        tok = self.expect("NUM")
        num = int(tok.text)
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("NUM")
            den = int(den_tok.text)
            if den == 0:
                raise OperatorSyntaxError(
                    "zero denominator", den_tok.line, den_tok.col
                )
            return Fraction(num, den)
        return num


# ---------------------------------------------------------------------------
# operator types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawOperator:
    """sum_i P_i(z) D^i with integer polynomial coefficients, P_n != 0."""

    poly_coeffs: tuple[tuple[int, ...], ...]  # index i holds P_i, low degree first

    def __post_init__(self):
        if len(self.poly_coeffs) < 2:
            raise ZeroLeadingCoefficient(
                "operator must have order >= 1 after expansion"
            )
        if not self.poly_coeffs[-1]:
            raise ZeroLeadingCoefficient("leading polynomial is zero")

    @property
    def order(self) -> int:
        return len(self.poly_coeffs) - 1

    def integral_over_lead(self, p: int) -> bool:
        """Does every P_i / P_n(0) lie in Z_p[z]?  Then the monic operator
        is p-integral at every order, because P_n / P_n(0) is a unit of
        Z_p[[z]]; a False answer decides nothing."""
        lead = self.poly_coeffs[-1][0]
        if lead == 0:
            return False
        content = gcd(*(c for poly in self.poly_coeffs for c in poly))
        return content % p ** vp_int(lead, p) == 0


@dataclass(frozen=True)
class DeltaOperator:
    """Monic operator D^n + a_{n-1} D^{n-1} + ... + a_0 with TruncSeries
    coefficients sharing one truncation order."""

    coeffs: tuple[TruncSeries, ...]  # a_0 .. a_{n-1}

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("operator order must be >= 1")
        truncs = {a.trunc for a in self.coeffs}
        if len(truncs) != 1:
            raise ValueError("coefficients must share one truncation order")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def trunc(self) -> int:
        return self.coeffs[0].trunc

    @property
    def poly_coeffs(self) -> tuple[tuple, ...]:
        """P_0 .. P_n of the operator read as sum_i P_i(z) D^i: a_0 .. a_{n-1}, 1."""
        return tuple(a.coeffs for a in self.coeffs) + ((1,),)

    def truncate(self, trunc: int) -> "DeltaOperator":
        return DeltaOperator(tuple(a.truncate(trunc) for a in self.coeffs))

    def is_mum(self) -> bool:
        return all(a.constant_term == 0 for a in self.coeffs)

    def p_integrality(self, p: int) -> ValuationProfile:
        """Valuation profile of all coefficients a_i; min >= 0 certifies
        membership in Z_p[[z]][D] up to the truncation order."""
        return ValuationProfile.of_rows(((a.den, (a.nums,)) for a in self.coeffs), p)


@dataclass(frozen=True)
class DeltaPolynomial:
    """Not-necessarily-monic operator sum_j c_j D^j (series coefficients)."""

    coeffs: tuple[TruncSeries, ...]  # c_0 .. c_d

    def apply(self, s: TruncSeries) -> TruncSeries:
        out = TruncSeries.zero(min(s.trunc, self.coeffs[0].trunc))
        d = s
        for j, c in enumerate(self.coeffs):
            if j > 0:
                d = d.delta()
            if not c.is_zero():
                out = out + c * d
        return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _raw_from_nc(nc: _NCOperator) -> RawOperator:
    if not nc.terms:
        raise ZeroLeadingCoefficient("operator expanded to zero")
    n = max(nc.terms)
    if n == 0:
        raise ZeroLeadingCoefficient("operator has no differential part")
    polys = [list(nc.terms.get(i, ())) for i in range(n + 1)]
    den = lcm(*(c.denominator for poly in polys for c in poly))
    cleared = tuple(
        tuple(int(c * den) for c in poly) for poly in polys
    )
    return RawOperator(cleared)


def parse_operator(text: str) -> RawOperator:
    """Parse operator text, expand noncommutatively, clear denominators."""
    return _raw_from_nc(_Parser(_tokenize(text)).parse())


def format_operator(raw: RawOperator) -> str:
    """Canonical text for a RawOperator; parse(format(x)) == x."""
    monomials = []  # (sign, body) pairs, highest D power first
    for i in range(raw.order, -1, -1):
        for k, c in enumerate(raw.poly_coeffs[i]):
            if c == 0:
                continue
            parts = []
            if abs(c) != 1 or (k == 0 and i == 0):
                parts.append(str(abs(c)))
            if k == 1:
                parts.append("z")
            elif k > 1:
                parts.append(f"z^{k}")
            if i == 1:
                parts.append("D")
            elif i > 1:
                parts.append(f"D^{i}")
            monomials.append((c < 0, "*".join(parts)))
    out = []
    for idx, (negative, body) in enumerate(monomials):
        if idx == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(out)


def monicize(raw: RawOperator, trunc: int) -> DeltaOperator:
    """Divide through by the leading polynomial, expanded to the given order."""
    if trunc < 1:
        raise ValueError("truncation order must be positive")
    lead = TruncSeries.from_coeffs(raw.poly_coeffs[-1], trunc)
    if lead.constant_term == 0:
        raise ApparentSingularityAtZero(
            "leading polynomial vanishes at z = 0; shearing is out of scope"
        )
    inv = TruncSeries.one(trunc).divide(lead)
    return DeltaOperator(
        tuple(
            TruncSeries.from_coeffs(raw.poly_coeffs[i], trunc) * inv
            for i in range(raw.order)
        )
    )


def hypergeometric(alpha, beta, scale=1) -> RawOperator:
    """prod_j (D + beta_j - 1) - z * prod_i (D + alpha_i), with z scaled."""
    alpha = [Fraction(a) for a in alpha]
    beta = [Fraction(b) for b in beta]
    if len(alpha) != len(beta) or not alpha:
        raise ValueError("alpha and beta must be nonempty, equal-length vectors")
    left = _NCOperator.scalar(1)
    for b in beta:
        left = left * (_NCOperator.d() + _NCOperator.scalar(b - 1))
    right = _NCOperator.scalar(1)
    for a in alpha:
        right = right * (_NCOperator.d() + _NCOperator.scalar(a))
    nc = left - _NCOperator.z() * right
    scale = Fraction(scale)
    scaled = _NCOperator(
        {
            i: _poly_trim([c * scale**k for k, c in enumerate(poly)])
            for i, poly in nc.terms.items()
        }
    )
    return _raw_from_nc(scaled)


_CATALOG = {
    "quintic": "D^4 - 5*z*(5*D+1)*(5*D+2)*(5*D+3)*(5*D+4)",
}


def builtin(name: str) -> RawOperator:
    """Catalog operator by name (see builtin_names())."""
    try:
        text = _CATALOG[name]
    except KeyError:
        raise UnknownOperator(f"unknown builtin operator {name!r}") from None
    return parse_operator(text)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))
