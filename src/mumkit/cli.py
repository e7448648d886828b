"""Command-line surface: job parsing, corpus files, deterministic reports.

Reports serialize every rational exactly as "numerator/denominator" (plain
integers omit the "/1") and never contain a floating-point representation;
timing is an integer millisecond count and is the one field excluded from
byte-for-byte determinism.  Exit status: 0 success, 1 some mathematical
check returned false on valid input, 2 input or precondition error, 3 an
internal invariant failed (a bug in mumkit, not in the input).

Each command is one row of COMMANDS: the flags it takes, the prime-
independent work it does once per operator and the step that turns one
(operator, prime) unit into a result entry.  One driver, _run_units, loops
over the units of every command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .opalg import (
    ApparentSingularityAtZero,
    DeltaOperator,
    NotMUM,
    OperatorSyntaxError,
    RawOperator,
    UnknownOperator,
    ZeroLeadingCoefficient,
    builtin,
    builtin_names,
    format_operator,
    hypergeometric,
    monicize,
    parse_operator,
)
from .primes import is_prime, primes_upto
from .qcoord import (
    BadNormalization,
    canonical_coordinate,
    dieudonne_check,
    exp_integrality_check,
    g_over_f,
    n_integrality_report,
    omega_congruence_check,
)
from .series import (
    INF,
    BadConstantTerm,
    SeriesMatrix,
    TruncSeries,
    ValuationProfile,
    ZeroConstantTerm,
)
from .solve import solve_f, solve_first_row, uniform_part, verify_solution
from .frobtransfer import (
    BadConstantShape,
    FrobeniusCandidate,
    InsufficientTruncation,
    NotPIntegralOperator,
    fit_frobenius_constant,
    iterate_transfer,
    radius_diagnostic,
    reduction_congruence_check,
    taylor_gcds,
    transfer_audit,
    verify_frobenius,
    working_trunc_for,
)

SCHEMA_VERSION = "1"
DEFAULT_TRUNC = 64
DEFAULT_PRIME_BOUND = 100
# the largest working order a unit may ask for: p^m (T-1) + 1 grows fast in
# p and m, and a job far above it would run until memory runs out
MAX_WORKING_TRUNC = 20000
# the largest --max-j: radius work grows about as J^2, and it keeps every g_j
MAX_TAYLOR_INDEX = 10**4
# the largest B of --primes auto:B for a per-prime command: its primes come
# from a sieve of B + 1 bytes
MAX_AUTO_PRIME_BOUND = 10**6


class CorpusFormatError(ValueError):
    pass


class DuplicateLabel(ValueError):
    pass


class InvalidPrime(ValueError):
    pass


class WorkingOrderTooLarge(ValueError):
    pass


_ERROR_CODES = {
    OperatorSyntaxError: "SYNTAX_ERROR",
    ZeroLeadingCoefficient: "ZERO_LEADING_COEFFICIENT",
    ApparentSingularityAtZero: "APPARENT_SINGULARITY_AT_ZERO",
    NotMUM: "NOT_MUM",
    UnknownOperator: "UNKNOWN_OPERATOR",
    ZeroConstantTerm: "ZERO_CONSTANT_TERM",
    BadConstantTerm: "BAD_CONSTANT_TERM",
    BadNormalization: "BAD_NORMALIZATION",
    NotPIntegralOperator: "NOT_P_INTEGRAL_OPERATOR",
    InsufficientTruncation: "INSUFFICIENT_TRUNCATION",
    BadConstantShape: "BAD_CONSTANT_SHAPE",
    CorpusFormatError: "CORPUS_FORMAT_ERROR",
    DuplicateLabel: "DUPLICATE_LABEL",
    InvalidPrime: "INVALID_PRIME",
    WorkingOrderTooLarge: "WORKING_ORDER_TOO_LARGE",
}


def error_code(exc: BaseException) -> str:
    """ValueError, KeyError and OSError are faults of the input; any other
    exception is a fault of mumkit."""
    for cls, code in _ERROR_CODES.items():
        if isinstance(exc, cls):
            return code
    if isinstance(exc, (ValueError, KeyError, OSError)):
        return "INVALID_INPUT"
    return "INTERNAL_ERROR"


# ---------------------------------------------------------------------------
# job specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    command: str
    source_kind: str | None  # "op" | "file" | "builtin" | None (hypergeom)
    source_value: str | None
    trunc: int = DEFAULT_TRUNC
    primes: tuple[int, ...] | None = None  # explicit list, already validated
    auto_bound: int | None = None  # primes = all good primes <= bound
    level: int = 1
    check_kind: str | None = None
    candidate_path: str | None = None
    max_index: int = 50
    alpha: tuple[Fraction, ...] = ()
    beta: tuple[Fraction, ...] = ()
    scale: Fraction = Fraction(1)
    fmt: str = "human"
    out: str | None = None


@dataclass
class ReportDocument:
    command: str
    input_echo: dict
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    timing_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "input": self.input_echo,
            "results": self.results,
            "errors": self.errors,
            "timing_ms": self.timing_ms,
        }

    def fail(self, exc: BaseException) -> int:
        """Record exc as an error entry; returns the exit status for it."""
        code = error_code(exc)
        self.errors.append({"code": code, "message": str(exc)})
        if code == "INTERNAL_ERROR":
            traceback.print_exception(exc, file=sys.stderr)
            return 3
        return 2


# ---------------------------------------------------------------------------
# exact serialization helpers
# ---------------------------------------------------------------------------


def fmt_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_valuation(v) -> int | str:
    return "inf" if v == INF else int(v)


def series_payload(s: TruncSeries, limit: int | None = None) -> list[str]:
    coeffs = s.coeffs if limit is None else s.coeffs[:limit]
    return [fmt_rational(c) for c in coeffs]


def profile_payload(pr: ValuationProfile) -> dict:
    return {
        "prime": pr.prime,
        "min_valuation": fmt_valuation(pr.min_valuation),
        "negative_valuations": [[k, v] for k, v in pr.negative_valuations],
    }


# ---------------------------------------------------------------------------
# corpus and candidate files
# ---------------------------------------------------------------------------


def load_corpus_file(path) -> list[tuple[str, RawOperator]]:
    """Line-oriented corpus: `label :: operator-expression`, `#` comments."""
    out = []
    seen = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "::" not in stripped:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 'label :: operator-expression'"
            )
        label, _, expr = stripped.partition("::")
        label = label.strip()
        if not label:
            raise CorpusFormatError(f"{path}:{lineno}: empty label")
        if label in seen:
            raise DuplicateLabel(f"{path}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            raw = parse_operator(expr)
        except (OperatorSyntaxError, ZeroLeadingCoefficient) as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
        out.append((label, raw))
    return out


def load_candidate_file(path) -> FrobeniusCandidate:
    """Candidate Frobenius matrix: JSON document with a prime p, n >= 1,
    trunc >= 1 and n*n coefficient lists of trunc exact rational strings."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
        n, p, trunc = (doc[key] for key in ("n", "p", "trunc"))
        rows = [[[_rational_string(c) for c in coeffs] for coeffs in row]
                for row in doc["entries"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CorpusFormatError(f"{path}: malformed candidate: {exc!r}") from exc
    if any(type(v) is not int for v in (n, p, trunc)) or not is_prime(p) or min(n, trunc) < 1:
        raise CorpusFormatError(f"{path}: n, p, trunc must be integers, p prime, n and trunc >= 1")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise CorpusFormatError(f"{path}: entries must form an {n}x{n} array")
    if any(len(coeffs) != trunc for row in rows for coeffs in row):
        raise CorpusFormatError(f"{path}: every coefficient list needs {trunc} entries")
    return FrobeniusCandidate(p, SeriesMatrix.from_rows(map(_integer_row, rows)))


def _integer_row(row) -> tuple:
    """A row of coefficient lists of Fractions as an integer row: the lcm
    of their denominators and each coefficient's numerator over it."""
    den = math.lcm(*(c.denominator for coeffs in row for c in coeffs))
    return den, [[c.numerator * (den // c.denominator) for c in coeffs] for coeffs in row]


def _rational_string(c) -> Fraction:
    if type(c) is not str:
        raise TypeError(f"coefficient {c!r} is not a string")
    return Fraction(c)


def dump_candidate(cand: FrobeniusCandidate) -> dict:
    return {
        "n": cand.phi.n,
        "p": cand.p,
        "trunc": cand.trunc,
        "entries": [
            [series_payload(e) for e in row] for row in cand.phi.entries
        ],
    }


# ---------------------------------------------------------------------------
# the job driver
# ---------------------------------------------------------------------------


@dataclass
class _Subject:
    """One operator of a job; keeps its monic form at the order last asked
    for, so a run of calls at one order monicizes once, and each solution it
    was asked for at `top`, the largest working order of the job's primes."""

    label: str | None
    raw: RawOperator
    top: int = 1
    _order: int | None = None
    _monic: DeltaOperator | None = None
    _solved: dict = field(default_factory=dict)

    def at(self, order: int) -> DeltaOperator:
        if order != self._order:
            self._order, self._monic = order, monicize(self.raw, order)
        return self._monic

    def p_integral(self, p: int, order: int) -> bool:
        """The operator is p-integral at `order`; the order-free test spares
        the monicize when it can tell."""
        return self.raw.integral_over_lead(p) or self.at(order).p_integrality(p).is_integral

    def solved(self, solver, order: int):
        """solver(raw, order) mod z^order, truncated from the one solve at
        the top order, made by the first unit that asks."""
        known = self._solved.get(solver)
        if known is None or known.trunc < order:
            known = self._solved[solver] = solver(self.raw, max(order, self.top))
        return known.truncate(order)


def _resolve_operators(spec: JobSpec) -> list[tuple[str, RawOperator]]:
    if spec.source_kind == "op":
        return [("inline", parse_operator(spec.source_value))]
    if spec.source_kind == "builtin":
        return [(spec.source_value, builtin(spec.source_value))]
    if spec.source_kind == "file":
        ops = load_corpus_file(spec.source_value)
        return sorted(ops, key=lambda item: item[0])
    raise ValueError("no operator source given")


def cmd_dispatch(spec: JobSpec) -> tuple[ReportDocument, int]:
    started = time.monotonic()
    doc = ReportDocument(command=spec.command, input_echo={})
    try:
        doc.input_echo = _input_echo(spec)
        status = _run_units(spec, doc)
    except Exception as exc:  # every failure becomes a structured error entry
        status = doc.fail(exc)
    doc.timing_ms = int((time.monotonic() - started) * 1000)
    return doc, status


def _run_units(spec: JobSpec, doc: ReportDocument) -> int:
    """Runs every (operator, prime) unit of the job; an operator's skipped
    primes are listed before its results.  Returns 1 if a unit failed.
    Refuses the whole job before any work if a unit's working order is
    above MAX_WORKING_TRUNC, a per-prime job's auto bound above
    MAX_AUTO_PRIME_BOUND, or a radius job's --max-j above MAX_TAYLOR_INDEX."""
    cmd = COMMANDS[spec.command]
    if "max_j" in cmd.flags and spec.max_index > MAX_TAYLOR_INDEX:
        raise ValueError(f"--max-j {spec.max_index} is above the limit {MAX_TAYLOR_INDEX}")
    candidates = [None]
    if cmd.per_prime and spec.primes is not None:
        candidates = list(spec.primes)
    elif cmd.per_prime:
        if (spec.auto_bound or 0) > MAX_AUTO_PRIME_BOUND:
            raise InvalidPrime(
                f"auto bound {spec.auto_bound} is above the limit {MAX_AUTO_PRIME_BOUND}"
            )
        candidates = primes_upto(DEFAULT_PRIME_BOUND if spec.auto_bound is None
                                 else spec.auto_bound)
    for p in candidates:
        order = cmd.order(spec, p)
        if order > MAX_WORKING_TRUNC:
            at = "" if p is None else f" at prime {p}"
            raise WorkingOrderTooLarge(
                f"working order {order}{at} is above the limit {MAX_WORKING_TRUNC}"
            )
    failures = 0
    for label, raw in cmd.operators(spec):
        subject = _Subject(label, raw)
        primes = candidates
        if cmd.per_prime and spec.primes is None:
            # under auto:B a prime is skipped iff the operator is not
            # p-integral at the order the command computes with
            primes = []
            for p in candidates:
                if subject.p_integral(p, cmd.order(spec, p)):
                    primes.append(p)
                else:
                    doc.results.append(
                        {"label": label, "prime": p, "skipped": "bad prime for operator"}
                    )
        subject.top = max((cmd.order(spec, p) for p in primes if p is not None), default=1)
        work = cmd.prepare(spec, subject)
        for p in primes:
            entry = {} if label is None else {"label": label}
            if p is not None:
                entry["prime"] = p
            fields, ok = cmd.unit(spec, subject, work, p)
            entry.update(fields)
            doc.results.append(entry)
            failures += 0 if ok else 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# per-command steps: unit(spec, subject, work, p) -> (entry fields, ok)
# ---------------------------------------------------------------------------


def _solve(spec, subject, work, p):
    first_row = solve_first_row(subject.raw, spec.trunc)
    payloads = [series_payload(s) for s in first_row]
    return {
        "operator": format_operator(subject.raw),
        "trunc": spec.trunc,
        "f": payloads[0],
        "first_row": payloads,
        "residual_order": verify_solution(subject.raw, first_row),
    }, True


def _qcoord(spec, subject, work, p):
    bound = spec.auto_bound
    if bound is None:
        bound = max(spec.primes) if spec.primes else DEFAULT_PRIME_BOUND
    if subject.raw.order < 2:
        raise NotMUM("the canonical coordinate needs an operator of order >= 2")
    f, g = solve_first_row(subject.raw, spec.trunc, 2)
    q = canonical_coordinate(f, g)
    report = n_integrality_report(
        q, prime_bound=bound, subject=f"canonical_coordinate({subject.label})"
    )
    return {
        "q": series_payload(q),
        "report": {
            "subject": report.subject,
            "certified_trunc": report.certified_trunc,
            "bad_primes": list(report.bad_primes),
            "suggested_N": str(report.suggested_N),
            "worst_valuations": [[p, v] for p, v in report.worst_valuations],
            "per_prime": [[p, profile_payload(pr)] for p, pr in report.per_prime],
            "unfactored_residue": str(report.unfactored_residue),
        },
    }, True


def _check_order(spec, p):
    if spec.check_kind == "reduction":
        # auto-raise so the mod z^{p^m + 1} congruence is decidable
        return max(spec.trunc, p**spec.level + 1)
    return spec.trunc


def _check_prepare(spec, subject):
    """The prime-independent series at the job's order: log f for
    dieudonne, g/f for omega and expint."""
    kind = spec.check_kind
    if kind == "reduction":
        return None
    if kind == "dieudonne":
        return solve_f(subject.raw, spec.trunc).log()
    if subject.raw.order < 2:
        raise NotMUM(f"{kind} needs an operator of order >= 2")
    return g_over_f(*solve_first_row(subject.raw, spec.trunc, 2))


def _check(spec, subject, work, p):
    entry = {"check": spec.check_kind}
    if spec.check_kind == "reduction":
        working = _check_order(spec, p)
        ok = reduction_congruence_check(subject.solved(solve_f, working), p, spec.level)
        entry["working_trunc"] = working
        entry["congruence_order"] = p**spec.level + 1
    elif spec.check_kind == "dieudonne":
        ok, profile = dieudonne_check(work, p)
        entry["profile"] = profile_payload(profile)
    elif spec.check_kind == "omega":
        ok, profile = omega_congruence_check(work, p)
        entry["profile"] = profile_payload(profile)
    elif spec.check_kind == "expint":
        ok = exp_integrality_check(work, p)
    else:
        raise ValueError(f"unknown check {spec.check_kind!r}")
    entry["ok"] = bool(ok)
    entry["certified_trunc"] = entry.get("congruence_order", spec.trunc)
    return entry, ok


def _transfer_order(spec, p):
    return working_trunc_for(spec.trunc, p, spec.level)


def _transfer(spec, subject, work, p):
    working = _transfer_order(spec, p)
    if not subject.p_integral(p, working):
        raise NotPIntegralOperator(
            f"operator is not {p}-integral up to order {working}"
        )
    data = iterate_transfer(subject.solved(uniform_part, working), p, spec.level,
                            target_trunc=spec.trunc)
    audit = transfer_audit(subject.raw, data)
    return {
        "level": spec.level,
        "working_trunc": working,
        "certified_trunc": data.trunc,
        "transferred_coeffs": [
            series_payload(a, limit=data.trunc) for a in data.operator.coeffs
        ],
        "h_constant_diagonal": [
            fmt_rational(row[i]) for i, row in enumerate(data.h_constant_matrix())
        ],
        "h_profile": profile_payload(audit.h_profile),
        "operator_profile": profile_payload(audit.operator_profile),
        "h_constant_ok": audit.h_constant_ok,
        "equation_residual_order": audit.equation_residual_order,
        "equation_trunc": audit.equation_trunc,
        "ok": audit.ok,
    }, audit.ok


def _verify(spec, subject, cand, p):
    ver = verify_frobenius(subject.raw, cand)
    return {
        "prime": cand.p,
        "residual_order": ver.residual_order,
        "trunc": ver.trunc,
        "profile": profile_payload(ver.profile),
        "det_nonzero": ver.det_nonzero,
        "constant_shape_ok": ver.constant_shape_ok,
        "ok": ver.ok,
    }, ver.ok


def _fit(spec, subject, y, p):
    fit = fit_frobenius_constant(y, p)
    entry = {
        "trunc": fit.trunc,
        "found": fit.found,
        "orders_used": fit.orders_used,
        "unit_pivot": fit.unit_pivot,
        "profile": profile_payload(fit.profile),
    }
    if fit.found:
        entry["constant"] = [[fmt_rational(x) for x in row] for row in fit.constant]
        entry["twist_parameters"] = [fmt_rational(g) for g in fit.gammas]
    return entry, fit.found


def _radius(spec, subject, taylor, p):
    # the guard's monic form, from the cache the auto:B rule fills
    monic = None if subject.raw.integral_over_lead(p) else subject.at(taylor.trunc)
    diag = radius_diagnostic(taylor, p, spec.max_index, monic)
    return {
        "trunc": diag.trunc,
        "norm_semantics": "exponents of truncated entries; "
        "lower bounds on true Gauss norms",
        "rows": [
            {
                "j": r.j,
                "min_valuation": fmt_valuation(r.min_valuation),
                "scaled_min_valuation": fmt_valuation(r.scaled_min_valuation),
            }
            for r in diag.rows
        ],
        "trending_to_zero": diag.trending_to_zero,
    }, True


def _hypergeom(spec, subject, work, p):
    return {
        "operator": format_operator(subject.raw),
        "order": subject.raw.order,
        "mum_after_monicize": subject.at(2).is_mum(),
    }, True


@dataclass(frozen=True)
class Command:
    """A CLI command: the flags it takes (names in _FLAGS) and its steps.

    `prepare(spec, subject)` does the prime-independent work once per
    operator; `unit(spec, subject, work, p)` returns the fields of one
    result entry, after the label and prime the driver puts first, and
    whether its check passed.  A per-prime command runs one unit per prime
    and, under auto:B, skips the primes at which the operator is not
    p-integral at `order(spec, p)`; any other runs one unit per operator
    with p = None."""

    help: str
    flags: tuple[str, ...]
    unit: Callable
    per_prime: bool = False
    prepare: Callable = lambda spec, subject: None
    order: Callable = lambda spec, p: spec.trunc
    operators: Callable = _resolve_operators


COMMANDS = {
    "solve": Command("series solutions f, g, first row", ("source",), _solve),
    "qcoord": Command("canonical coordinate + audit", ("source", "primes"), _qcoord),
    "check": Command(
        "congruence checks", ("kind", "source", "primes", "level"), _check,
        per_prime=True, prepare=_check_prepare, order=_check_order,
    ),
    "transfer": Command(
        "level-m operator and gauge", ("source", "primes", "level"), _transfer,
        per_prime=True, order=_transfer_order,
    ),
    "verify-frobenius": Command(
        "audit a candidate Phi", ("source", "candidate"), _verify,
        prepare=lambda spec, subject: load_candidate_file(spec.candidate_path),
    ),
    "fit-frobenius": Command(
        "search for an integral Phi", ("source", "primes"), _fit,
        per_prime=True,
        prepare=lambda spec, subject: uniform_part(subject.raw, spec.trunc),
    ),
    "radius": Command(
        "Gauss-norm diagnostics of A_j", ("source", "primes", "max_j"), _radius,
        per_prime=True,
        prepare=lambda spec, subject: taylor_gcds(subject.raw, spec.trunc, spec.max_index),
    ),
    "hypergeom": Command(
        "hypergeometric constructor", ("alpha", "beta", "scale"), _hypergeom,
        operators=lambda spec: [
            (None, hypergeometric(spec.alpha, spec.beta, spec.scale))
        ],
    ),
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(doc: ReportDocument, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(doc.to_dict(), indent=2) + "\n").encode()
    return _human_report(doc).encode()


def _human_report(doc: ReportDocument) -> str:
    lines = [f"mumkit {__version__} :: {doc.command}"]
    for key, value in doc.input_echo.items():
        if value is not None:
            lines.append(f"  {key:<14} {value}")
    for err in doc.errors:
        lines.append(f"error [{err['code']}] {err['message']}")
    for result in doc.results:
        lines.append("")
        for key, value in result.items():
            if key == "rows":
                lines.append(f"  {'j':>4} {'||A_j||':>12} {'||A_j/j!||':>12}")
                for row in value:
                    lines.append(
                        f"  {row['j']:>4} {_norm_str(row['min_valuation']):>12}"
                        f" {_norm_str(row['scaled_min_valuation']):>12}"
                    )
            elif isinstance(value, list):
                lines.append(f"  {key:<22} {_short_list(value)}")
            else:
                lines.append(f"  {key:<22} {value}")
    lines.append("")
    lines.append(f"elapsed {doc.timing_ms} ms")
    return "\n".join(lines) + "\n"


def _norm_str(v) -> str:
    return "0" if v == "inf" else f"p^{-v}"


def _short_list(value, limit: int = 12) -> str:
    text = json.dumps(value)
    if len(value) > limit and len(text) > 160:
        head = json.dumps(value[:limit])
        return head[:-1] + ", ...]"
    return text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _arg(*names, **options):
    return lambda parser: parser.add_argument(*names, **options)


def _add_source_args(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", help="inline operator expression")
    group.add_argument("--file", help="corpus file of labelled operators")
    group.add_argument(
        "--builtin", help=f"catalog operator ({', '.join(builtin_names())})"
    )


# flag name -> declaration; every dest other than the source is a JobSpec field
_FLAGS = {
    "source": _add_source_args,
    "kind": _arg("check_kind", metavar="kind",
                 choices=("dieudonne", "omega", "expint", "reduction")),
    "primes": _arg("--primes", help="comma list (7,11) or auto:BOUND"),
    "level": _arg("--level", type=int, default=1),
    "candidate": _arg("--candidate", required=True, dest="candidate_path"),
    "max_j": _arg("--max-j", type=int, default=50, dest="max_index"),
    "alpha": _arg("--alpha", required=True, help="comma rationals"),
    "beta": _arg("--beta", required=True, help="comma rationals"),
    "scale": _arg("--scale", default="1"),
    "trunc": _arg("--trunc", type=int, default=DEFAULT_TRUNC),
    "format": _arg("--format", choices=("human", "json"), default="human", dest="fmt"),
    "out": _arg("--out", help="write the report here"),
}
_COMMON = ("trunc", "format", "out")
# integer fields with their smallest valid value
_LOWER_BOUNDS = (
    ("trunc", 1, "truncation order must be positive"),
    ("level", 1, "level must be >= 1"),
    ("max_index", 0, "--max-j must be >= 0"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and no flag has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="mumkit",
        description="exact arithmetic for MUM operators in D = z*d/dz",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        subparser = sub.add_parser(name, help=cmd.help)
        for flag in cmd.flags + _COMMON:
            _FLAGS[flag](subparser)
    return parser


def _parse_primes_arg(text: str | None):
    """Returns (explicit_primes, auto_bound); each explicit prime at most
    once."""
    if text is None:
        return None, None
    if text.startswith("auto:"):
        bound = int(text[len("auto:") :])
        if bound < 2:
            raise InvalidPrime(f"auto bound {bound} is below 2")
        return None, bound
    primes = []
    for chunk in text.split(","):
        value = int(chunk.strip())
        if not is_prime(value):
            raise InvalidPrime(f"{value} is not prime")
        if value in primes:
            raise InvalidPrime(f"prime {value} is repeated")
        primes.append(value)
    if not primes:
        raise InvalidPrime("empty prime list")
    return tuple(primes), None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def spec_from_args(args: argparse.Namespace) -> JobSpec:
    values = vars(args)
    fields = {k: v for k, v in values.items() if k in JobSpec.__dataclass_fields__}
    fields["source_kind"] = fields["source_value"] = None
    for kind in ("op", "file", "builtin"):
        if values.get(kind) is not None:
            fields.update(source_kind=kind, source_value=values[kind])
    fields["primes"], fields["auto_bound"] = _parse_primes_arg(values.get("primes"))
    for name, low, message in _LOWER_BOUNDS:
        if fields.get(name, low) < low:
            raise ValueError(message)
    if "alpha" in COMMANDS[args.command].flags:
        for name in ("alpha", "beta"):
            fields[name] = tuple(_rational(c.strip()) for c in fields[name].split(","))
        fields["scale"] = _rational(fields["scale"])
    return JobSpec(**fields)


def _input_echo(spec: JobSpec) -> dict:
    echo = {
        "source_kind": spec.source_kind,
        "source_value": spec.source_value,
        "trunc": spec.trunc,
        "level": spec.level,
    }
    if spec.primes is not None:
        echo["primes"] = list(spec.primes)
    elif spec.auto_bound is not None:
        echo["primes"] = f"auto:{spec.auto_bound}"
    if spec.check_kind:
        echo["check"] = spec.check_kind
    if spec.candidate_path:
        echo["candidate"] = spec.candidate_path
    if "alpha" in COMMANDS[spec.command].flags:
        echo["alpha"] = [fmt_rational(a) for a in spec.alpha]
        echo["beta"] = [fmt_rational(b) for b in spec.beta]
        echo["scale"] = fmt_rational(spec.scale)
    return echo


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
    except Exception as exc:  # reported like any failure of the job
        doc = ReportDocument(command=args.command, input_echo={})
        status = doc.fail(exc)
        _write(doc, args.fmt, args.out)
        return status
    doc, status = cmd_dispatch(spec)
    _write(doc, spec.fmt, spec.out)
    return status


def _write(doc: ReportDocument, fmt: str, out: str | None):
    payload = emit_report(doc, fmt)
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)


if __name__ == "__main__":
    sys.exit(main())
