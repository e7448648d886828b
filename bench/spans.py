"""Span recorder for the traced benchmark run.

`Tracer` wraps, from outside the program, every public function of the
mumkit modules at every module that binds it (`from .solve import
uniform_part` makes `mumkit.frobtransfer.uniform_part` a second binding
site), and the methods of TruncSeries, SeriesMatrix, DeltaOperator and
DeltaPolynomial on the class.  Each call appends a span (name, start, end,
parent, job) to in-memory arrays; `layer_metrics` turns the spans into
per-layer self time, busy time and counts.  Leaving the `with` block puts
every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("cli", "opalg", "solve", "qcoord", "frobtransfer", "series", "primes")
CLASSES = (
    ("series", "TruncSeries"),
    ("series", "SeriesMatrix"),
    ("opalg", "DeltaOperator"),
    ("opalg", "DeltaPolynomial"),
)
# dunder methods that do arithmetic; the other dunders are plumbing
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}


class Recorder:
    """Spans in flat arrays: span i has name id, start, end, parent index
    (-1 for a root) and job id.  Set `job` before each job's root call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn, probe=None):
        """`fn` with a span around each call; `probe(counters, args, kwargs,
        result)` runs after the span closes."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.job_of[i]}\n"
                )


# ---------------------------------------------------------------------------
# counters taken from arguments and results
# ---------------------------------------------------------------------------


def _series_mul(counters, args, kwargs, result):
    # series * series multiplies n(n+1)/2 coefficient pairs at order n
    if len(args) == 2 and type(args[1]) is type(args[0]):
        n = len(result.coeffs)
        counters["series.mul.coeff_pairs"] += n * (n + 1) // 2
    num = max(abs(c.numerator).bit_length() for c in result.coeffs)
    den = max(c.denominator.bit_length() for c in result.coeffs)
    counters["series.max_num_bits"] = max(counters["series.max_num_bits"], num)
    counters["series.max_den_bits"] = max(counters["series.max_den_bits"], den)


def _max_of(key, param, position, value_of):
    """Running maximum of value_of(argument `param`), which is passed by
    keyword or at `position`."""
    def probe(counters, args, kwargs, result):
        arg = kwargs[param] if param in kwargs else args[position]
        counters[key] = max(counters[key], value_of(arg))
    return probe


def _fit(counters, args, kwargs, result):
    # the search tries orders trunc, trunc-1, ..., orders_used
    counters["frobtransfer.fit.backtracks"] += result.trunc - result.orders_used
    counters["fit.attempts"] += result.trunc - result.orders_used + 1
    counters["fit.found"] += 1 if result.found else 0


def _report_bytes(counters, args, kwargs, result):
    counters["cli.report_bytes"] += len(result)


_solve_order = _max_of("solve.max_order", "trunc", 1, int)
_working_order = _max_of("frobtransfer.max_working_order", "op", 0, lambda op: op.trunc)

PROBES = {
    "series.TruncSeries.__mul__": _series_mul,
    "solve.solve_f": _solve_order,
    "solve.solve_first_row": _solve_order,
    "solve.uniform_part": _solve_order,
    "frobtransfer.iterate_transfer": _working_order,
    "frobtransfer.reduction_congruence_check": _working_order,
    "frobtransfer.fit_frobenius_constant": _fit,
    "cli.emit_report": _report_bytes,
}


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    the original functions on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        rec = self.recorder
        modules = {m: importlib.import_module(f"mumkit.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = (fn, rec.wrap(name, fn, PROBES.get(name)))
        sites = [m for n, m in sys.modules.items() if n == "mumkit" or n.startswith("mumkit.")]
        for site in sites:
            for attr, value in list(vars(site).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(site, attr, hit[1])
        for short, cls_name in CLASSES:
            cls = getattr(modules[short], cls_name)
            for attr, value in list(vars(cls).items()):
                static = isinstance(value, staticmethod)
                fn = value.__func__ if static else value
                if not inspect.isfunction(fn):
                    continue  # properties and data
                if attr.startswith("_") and attr not in ARITHMETIC:
                    continue
                name = f"{short}.{cls_name}.{fn.__name__}"
                traced = rec.wrap(name, fn, PROBES.get(name))
                self._replace(cls, attr, staticmethod(traced) if static else traced)
        return self

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose self time it sums
SELF_TIMES = {
    "solve.first_row.self_s": ("solve.solve_first_row", "solve.solve_f"),
    "solve.uniform_part.self_s": ("solve.uniform_part", "solve.solution_basis"),
    "solve.verify.self_s": ("solve.verify_solution",),
    "opalg.apply.self_s": ("opalg.DeltaOperator.apply", "opalg.DeltaPolynomial.apply"),
    "opalg.monicize.self_s": ("opalg.monicize",),
    "opalg.parse.self_s": ("opalg.parse_operator",),
    "series.mul.self_s": ("series.TruncSeries.__mul__",),
    "series.invert.self_s": ("series.TruncSeries.invert",),
    "series.exp_log.self_s": ("series.TruncSeries.exp", "series.TruncSeries.log"),
    "series.pow.self_s": ("series.TruncSeries.pow_int",),
    "series.matmul.self_s": ("series.SeriesMatrix.__mul__",),
    "series.matinv.self_s": ("series.SeriesMatrix.invert",),
    "series.det.self_s": ("series.SeriesMatrix.det",),
    "qcoord.canonical.self_s": ("qcoord.canonical_coordinate",),
    "qcoord.checks.self_s": (
        "qcoord.dieudonne_check",
        "qcoord.omega_congruence_check",
        "qcoord.exp_integrality_check",
    ),
    "qcoord.audit.self_s": ("qcoord.n_integrality_report",),
    "primes.factor.self_s": ("primes.factor",),
    "frobtransfer.transfer.self_s": (
        "frobtransfer.iterate_transfer",
        "frobtransfer.frobenius_quotient_F",
        "frobtransfer.transfer_operator_L1",
        "frobtransfer.h0",
    ),
    "frobtransfer.h_matrix.self_s": ("frobtransfer.h_matrix",),
    "frobtransfer.audit.self_s": ("frobtransfer.transfer_audit",),
    "frobtransfer.fit.self_s": ("frobtransfer.fit_frobenius_constant",),
    "frobtransfer.verify.self_s": ("frobtransfer.verify_frobenius",),
    "frobtransfer.radius.self_s": ("frobtransfer.radius_diagnostic",),
}
# metric -> span names whose calls it counts
CALLS = {
    "solve.calls": ("solve.solve_first_row", "solve.solve_f"),
    "opalg.monicize.calls": ("opalg.monicize",),
    "series.mul.calls": ("series.TruncSeries.__mul__",),
    "series.matmul.calls": ("series.SeriesMatrix.__mul__",),
    "primes.factor.calls": ("primes.factor",),
}
COUNTERS = {
    "series.mul.coeff_pairs": "count",
    "series.max_num_bits": "bits",
    "series.max_den_bits": "bits",
    "solve.max_order": "terms",
    "frobtransfer.max_working_order": "terms",
    "frobtransfer.fit.backtracks": "count",
    "cli.report_bytes": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every metric `layer_metrics` returns, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in CALLS})
    units.update(COUNTERS)
    units["frobtransfer.fit.useful_share"] = "ratio"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.busy_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.outside_s": "s", "trace.spans": "count",
                  "trace.overhead_share": "ratio"})
    return units


def self_times(rec: Recorder) -> list[float]:
    """Duration of each span minus the durations of its direct children;
    spans of one thread nest, so this is the uncovered part."""
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    out = dur[:]
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            out[p] -= dur[i]
    return out


def layer_metrics(rec: Recorder, wall_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced pass whose jobs took
    `wall_s` in total, timed around the root calls; the same jobs took
    `untraced_s` without tracing."""
    n = len(rec.name)
    own = self_times(rec)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    by_module = defaultdict(float)
    busy = defaultdict(float)
    busy_until = defaultdict(lambda: float("-inf"))
    roots = 0.0
    for i in range(n):
        name = rec.names[rec.name[i]]
        module = name.split(".", 1)[0]
        by_name[name] += own[i]
        calls[name] += 1
        by_module[module] += own[i]
        # spans start in index order and nest, so a span that starts
        # before its module's last outer span ends lies inside it
        if rec.start[i] >= busy_until[module]:
            busy[module] += rec.end[i] - rec.start[i]
            busy_until[module] = rec.end[i]
        if rec.parent[i] < 0:
            roots += rec.end[i] - rec.start[i]
    out = {m: sum(by_name[s] for s in names) for m, names in SELF_TIMES.items()}
    out.update({m: sum(calls[s] for s in names) for m, names in CALLS.items()})
    out.update({m: rec.counters[m] for m in COUNTERS})
    attempts = rec.counters["fit.attempts"]
    out["frobtransfer.fit.useful_share"] = rec.counters["fit.found"] / attempts if attempts else 0.0
    for mod in MODULES:
        out[f"{mod}.self_s"] = by_module[mod]
        out[f"{mod}.busy_s"] = busy[mod]
    out["trace.wall_s"] = wall_s
    out["trace.outside_s"] = wall_s - roots
    out["trace.spans"] = n
    out["trace.overhead_share"] = wall_s / untraced_s - 1
    return out
