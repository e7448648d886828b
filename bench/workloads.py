"""Seeded job lists for the mumkit benchmark, and the oracles that check them.

A workload is a list of CLI jobs.  `build_jobs(workload, seed, workdir)`
writes the generated input files (one `.ops` corpus file per operator set,
and a Frobenius candidate for `verify-frobenius`) under `workdir` and
returns the jobs; every job is an argv for `mumkit.cli.main` with paths
relative to `workdir`, plus an oracle for its report.  mumkit only ever
sees these generated files and argv.

The seed picks families and primes; sizes (truncation orders, number of
primes, matrix sizes) are fixed, so runs with different seeds do the same
amount of work up to the height of the chosen families.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
WORKLOADS = ("mirror", "radius", "transfer")


@dataclass(frozen=True)
class Family:
    """The hypergeometric operator prod(D + beta_j - 1) - C z prod(D + alpha_i)
    with beta = (1, ..., 1); its holomorphic solution has the closed form
    f_n = C^n prod_i (alpha_i)_n / (n!)^r."""

    label: str
    alpha: tuple[Fraction, ...]
    scale: int

    @staticmethod
    def of(label: str, alpha: str, scale: int) -> "Family":
        return Family(label, tuple(Fraction(a) for a in alpha.split(",")), scale)

    @property
    def order(self) -> int:
        return len(self.alpha)

    def raw(self):
        from mumkit import hypergeometric

        return hypergeometric(self.alpha, [1] * self.order, self.scale)

    def unscaled(self) -> "Family":
        return Family(self.label + "u", self.alpha, 1)

    def f(self, count: int) -> list[Fraction]:
        out = [Fraction(1)]
        for n in range(1, count):
            step = Fraction(self.scale, n**self.order)
            for a in self.alpha:
                step *= a + n - 1
            out.append(out[-1] * step)
        return out

    def g(self, count: int) -> list[Fraction]:
        """Log companion: g_n = f_n (sum_i sum_{k<n} 1/(alpha_i + k) - r H_n),
        the epsilon-derivative of the Frobenius family f_n(epsilon)."""
        f = self.f(count)
        out = [Fraction(0)]
        acc = Fraction(0)
        for n in range(1, count):
            acc += sum(1 / (a + n - 1) for a in self.alpha) - Fraction(self.order, n)
            out.append(f[n] * acc)
        return out

    def q(self, count: int) -> list[Fraction]:
        """First `count` coefficients of q = z exp(g/f), by plain O(count^2)
        series division and exponentiation."""
        f, g = self.f(count), self.g(count)
        h = []
        for k in range(count):
            h.append(g[k] - sum(h[j] * f[k - j] for j in range(k)))
        e = [Fraction(1)]
        for k in range(1, count - 1):
            e.append(sum(j * h[j] * e[k - j] for j in range(1, k + 1)) / k)
        return [Fraction(0)] + e


# The 14 order-4 families (alpha, scale C; beta = (1,1,1,1)); f and q are
# integral to order 30 for all of them.  Bands pair families whose q has a
# similar height (bits at order 30 in brackets), and the seed picks one
# family per band, so every seed covers the whole height range.
BANDS = (
    (Family.of("hg03", "1/2,1/2,1/2,1/2", 2**8),  # 222
     Family.of("hg05", "1/3,1/2,1/2,2/3", 2**4 * 3**3)),  # 244
    (Family.of("hg04", "1/3,1/3,2/3,2/3", 3**6),  # 266
     Family.of("hg06", "1/4,1/2,1/2,3/4", 2**10)),  # 280
    (Family.of("hg10", "1/4,1/3,2/3,3/4", 2**6 * 3**3),  # 302
     Family.of("hg01", "1/5,2/5,3/5,4/5", 5**5)),  # 327, the quintic
    (Family.of("hg12", "1/4,1/4,3/4,3/4", 2**12),  # 338
     Family.of("hg11", "1/6,1/2,1/2,5/6", 2**8 * 3**3)),  # 360
    (Family.of("hg08", "1/6,1/3,2/3,5/6", 2**4 * 3**6),  # 382
     Family.of("hg13", "1/6,1/4,3/4,5/6", 2**10 * 3**3)),  # 418
    (Family.of("hg07", "1/8,3/8,5/8,7/8", 2**16),  # 454
     Family.of("hg14", "1/6,1/6,5/6,5/6", 2**8 * 3**6)),  # 497
    (Family.of("hg02", "1/10,3/10,7/10,9/10", 2**8 * 5**5),  # 558
     Family.of("hg09", "1/12,5/12,7/12,11/12", 2**12 * 3**6)),  # 614
)

# The operators of data/operators.ops, as hypergeometric families.
QUINTIC = Family.of("quintic", "1/5,2/5,3/5,4/5", 5**5)
LEGENDRE = Family.of("legendre", "1/2,1/2", 16)
CUBIC2F1 = Family.of("cubic2f1", "1/3,2/3", 27)
QUARTIC3 = Family.of("quartic3", "1/4,1/2,3/4", 64)

GOOD_PRIMES = (7, 11, 13)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    expect_status: int
    check: Callable[[dict], list[str]]  # report -> problems; [] when correct

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


def report_digest(doc: dict) -> str:
    """SHA-256 of a report with its timing field stripped."""
    body = {k: v for k, v in doc.items() if k != "timing_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: Job, status: int, doc: dict, digest: str | None) -> list[str]:
    """Every oracle for one finished job; `digest` is the recorded report
    digest when one exists for this seed."""
    problems = []
    if status != job.expect_status:
        problems.append(f"exit status {status}, expected {job.expect_status}")
    if doc.get("errors"):
        problems.append(f"errors: {doc['errors']}")
    else:
        problems += job.check(doc)
    if digest is not None and report_digest(doc) != digest:
        problems.append("report digest differs from the recorded one")
    return problems


# ---------------------------------------------------------------------------
# job generation
# ---------------------------------------------------------------------------


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(band) for band in BANDS]
    (workdir / "ops").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    make_jobs = {"mirror": _mirror, "radius": _radius, "transfer": _transfer}[workload]
    return make_jobs(rng, picks, workdir)


def _primes(rng: random.Random, k: int, pool=GOOD_PRIMES) -> list[int]:
    return sorted(rng.sample(pool, k))


def _ops_file(workdir: Path, name: str, families) -> str:
    from mumkit import format_operator

    lines = [f"{fam.label} :: {format_operator(fam.raw())}" for fam in families]
    rel = f"ops/{name}.ops"
    (workdir / rel).write_text("\n".join(lines) + "\n")
    return rel


def _job(job_id: str, args, check, status: int = 0) -> Job:
    argv = tuple(str(a) for a in args) + ("--format", "json", "--out", f"out/{job_id}.json")
    return Job(job_id, argv, status, check)


def _csv(primes) -> str:
    return ",".join(map(str, primes))


def _mirror(rng, picks, workdir) -> list[Job]:
    q_fam, u_fam = picks[6], picks[2].unscaled()
    omega_fam, dieu_fam, solve_fam = picks[4], picks[3], picks[1]
    omega_primes, dieu_primes = _primes(rng, 2), _primes(rng, 2)
    return [
        _job("m1-qcoord",
             ["qcoord", "--file", _ops_file(workdir, "m1", [q_fam]),
              "--trunc", 150, "--primes", "auto:100"],
             _qcoord_oracle(q_fam, 150)),
        _job("m2-qcoord-unscaled",
             ["qcoord", "--file", _ops_file(workdir, "m2", [u_fam]),
              "--trunc", 80, "--primes", "auto:100"],
             _qcoord_oracle(u_fam, 80, bad_primes=_prime_divisors(picks[2].scale))),
        _job("m3-omega",
             ["check", "omega", "--file", _ops_file(workdir, "m3", [omega_fam]),
              "--trunc", 100, "--primes", _csv(omega_primes)],
             _check_oracle(omega_fam, omega_primes, 100)),
        _job("m4-dieudonne",
             ["check", "dieudonne", "--file", _ops_file(workdir, "m4", [dieu_fam]),
              "--trunc", 100, "--primes", _csv(dieu_primes)],
             _check_oracle(dieu_fam, dieu_primes, 100)),
        _job("m5-solve",
             ["solve", "--file", _ops_file(workdir, "m5", [solve_fam]), "--trunc", 80],
             _solve_oracle(solve_fam, 80)),
    ]


def _radius(rng, picks, workdir) -> list[Job]:
    fam, small = picks[5], [CUBIC2F1, LEGENDRE, QUARTIC3]
    fam_primes, small_primes = _primes(rng, 2), _primes(rng, 2, (5,) + GOOD_PRIMES)
    return [
        _job("r1-radius",
             ["radius", "--file", _ops_file(workdir, "r1", [fam]), "--trunc", 32,
              "--max-j", 40, "--primes", _csv(fam_primes)],
             _radius_oracle([fam], fam_primes, 32, 40)),
        _job("r2-radius-corpus",
             ["radius", "--file", _ops_file(workdir, "r2", small), "--trunc", 32,
              "--max-j", 40, "--primes", _csv(small_primes)],
             _radius_oracle(small, small_primes, 32, 40)),
    ]


def _transfer(rng, picks, workdir) -> list[Job]:
    from mumkit import monicize, uniform_part
    from mumkit.cli import dump_candidate
    from mumkit.frobtransfer import fit_frobenius_constant, frobenius_from_constant

    fit_primes = _primes(rng, 2)
    cand_prime = rng.choice(GOOD_PRIMES)
    cand_fam = picks[6]
    # the candidate is the Frobenius matrix of the fitted integral constant
    y = uniform_part(monicize(cand_fam.raw(), 25), 25)
    fit = fit_frobenius_constant(y, cand_prime)
    if not fit.found:
        raise RuntimeError(f"no integral Frobenius constant for {cand_fam.label}")
    cand = frobenius_from_constant(y, fit.constant, cand_prime)
    (workdir / "candidate.json").write_text(json.dumps(dump_candidate(cand)))
    corpus = [CUBIC2F1, LEGENDRE, QUARTIC3, QUINTIC]
    return [
        _job("t1-transfer",
             ["transfer", "--file", _ops_file(workdir, "t1", [picks[1]]),
              "--trunc", 8, "--primes", "7,11"],
             _transfer_oracle([picks[1]], [7, 11], 8, 1)),
        _job("t2-transfer-level2",
             ["transfer", "--file", _ops_file(workdir, "t2", [picks[4]]),
              "--trunc", 4, "--level", 2, "--primes", "3,5"],
             _transfer_oracle([picks[4]], [3, 5], 4, 2)),
        _job("t3-reduction",
             ["check", "reduction", "--file", _ops_file(workdir, "t3", [picks[0]]),
              "--trunc", 8, "--level", 2, "--primes", "3,5"],
             _reduction_oracle([3, 5], 2)),
        _job("t4-fit",
             ["fit-frobenius", "--file", _ops_file(workdir, "t4", [picks[5]]),
              "--trunc", 25, "--primes", _csv(fit_primes)],
             _fit_oracle(fit_primes, 25)),
        _job("t5-verify",
             ["verify-frobenius", "--file", _ops_file(workdir, "t5", [cand_fam]),
              "--trunc", 25, "--candidate", "candidate.json"],
             _verify_oracle(cand_prime, 25)),
        # quartic3 at p = 2 is a genuine bad prime: ok false and exit 1
        _job("t6-transfer-corpus",
             ["transfer", "--file", _ops_file(workdir, "t6", corpus),
              "--trunc", 6, "--primes", "2,3,7"],
             _transfer_oracle(corpus, [2, 3, 7], 6, 1, bad={("quartic3", 2)}), status=1),
    ]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _vp_factorial(j: int, p: int) -> int:
    out, q = 0, p
    while q <= j:
        out += j // q
        q *= p
    return out


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _integral_profile(profile: dict) -> bool:
    v = profile["min_valuation"]
    return v == "inf" or v >= 0


def _results(doc: dict, count: int) -> list[dict]:
    results = doc["results"]
    if len(results) != count:
        raise ValueError(f"{len(results)} results, expected {count}")
    return results


def _guarded(fn):
    """Run an oracle body; a malformed report is a problem, not a crash."""
    def check(doc):
        try:
            return fn(doc)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]
    return check


def _solve_oracle(fam: Family, trunc: int):
    @_guarded
    def check(doc):
        (res,) = _results(doc, 1)
        problems = []
        if _fractions(res["f"]) != fam.f(trunc):
            problems.append("f differs from the closed form")
        if res["first_row"][0] != res["f"]:
            problems.append("first_row[0] is not f")
        if _fractions(res["first_row"][1]) != fam.g(trunc):
            problems.append("g differs from the closed form")
        if res["residual_order"] != trunc:
            problems.append(f"residual order {res['residual_order']} < {trunc}")
        return problems
    return check


def _qcoord_oracle(fam: Family, trunc: int, bad_primes=()):
    head = 12

    @_guarded
    def check(doc):
        (res,) = _results(doc, 1)
        q = _fractions(res["q"])
        rep = res["report"]
        problems = []
        if len(q) != trunc + 1 or rep["certified_trunc"] != trunc + 1:
            problems.append("q is not certified to trunc + 1")
        if q[:head] != fam.q(head):
            problems.append("q differs from z exp(g/f) of the closed forms")
        radical = 1
        for p in bad_primes:
            radical *= p
        if rep["bad_primes"] != list(bad_primes) or rep["suggested_N"] != str(radical):
            problems.append(f"bad primes {rep['bad_primes']}, expected {list(bad_primes)}")
        if not bad_primes and any(c.denominator != 1 for c in q):
            problems.append("q of a scaled family is not integral")
        if rep["unfactored_residue"] != "1":
            problems.append("denominator audit left an unfactored residue")
        return problems
    return check


def _check_oracle(fam: Family, primes, trunc: int):
    @_guarded
    def check(doc):
        problems = []
        for res, p in zip(_results(doc, len(primes)), primes):
            if (res["label"], res["prime"]) != (fam.label, p):
                problems.append(f"unexpected result {res['label']}@{res['prime']}")
            if res["ok"] is not True or not _integral_profile(res["profile"]):
                problems.append(f"{res['check']} failed at p={p}")
            if res["certified_trunc"] != trunc:
                problems.append(f"certified to {res['certified_trunc']} at p={p}")
        return problems
    return check


def _radius_oracle(families, primes, trunc: int, max_j: int):
    expected = [(fam.label, p) for fam in sorted(families, key=lambda f: f.label)
                for p in primes]

    @_guarded
    def check(doc):
        problems = []
        for res, (label, p) in zip(_results(doc, len(expected)), expected):
            rows = res["rows"]
            if (res["label"], res["prime"], res["trunc"]) != (label, p, trunc):
                problems.append(f"unexpected result {res['label']}@{res['prime']}")
            if [r["j"] for r in rows] != list(range(max_j + 1)):
                problems.append(f"rows of {label}@{p} are not j = 0..{max_j}")
            if rows[0]["min_valuation"] != 0:
                problems.append(f"A_0 of {label}@{p} is not the identity")
            for r in rows:
                v = r["min_valuation"]
                scaled = "inf" if v == "inf" else v - _vp_factorial(r["j"], p)
                if r["scaled_min_valuation"] != scaled:
                    problems.append(f"{label}@{p}: row {r['j']} is not scaled by j!")
                    break
        return problems
    return check


def _annihilates(coeffs, u) -> bool:
    """Is (D^n + sum_i a_i D^i) u = 0 mod z^len(u)?  Plain convolution."""
    n, count = len(coeffs), len(u)
    for k in range(count):
        acc = Fraction(k) ** n * u[k]
        for i, a in enumerate(coeffs):
            acc += sum(a[k - j] * Fraction(j) ** i * u[j] for j in range(k + 1))
        if acc:
            return False
    return True


def _transfer_oracle(families, primes, trunc: int, level: int, bad=frozenset()):
    by_label = {fam.label: fam for fam in families}
    expected = [(label, p) for label in sorted(by_label) for p in primes]

    @_guarded
    def check(doc):
        problems = []
        for res, (label, p) in zip(_results(doc, len(expected)), expected):
            fam, q = by_label[label], p**level
            if (res["label"], res["prime"]) != (label, p):
                problems.append(f"unexpected result {res['label']}@{res['prime']}")
                continue
            if res["working_trunc"] != q * (trunc - 1) + 1 or res["certified_trunc"] != trunc:
                problems.append(f"{label}@{p}: wrong truncation budget")
            good = (label, p) not in bad
            if res["ok"] is not good:
                problems.append(f"{label}@{p}: ok is {res['ok']}")
            if not good:
                continue
            if _fractions(res["h_constant_diagonal"]) != [Fraction(q) ** i for i in range(fam.order)]:
                problems.append(f"{label}@{p}: H(0) is not diag(1, p^m, ...)")
            # the holomorphic solution of L_m is the m-fold Cartier image of f
            f = fam.f(q * (trunc - 1) + 1)
            coeffs = [_fractions(a) for a in res["transferred_coeffs"]]
            if not _annihilates(coeffs, f[::q]):
                problems.append(f"{label}@{p}: L_m does not annihilate Lambda^m(f)")
        return problems
    return check


def _reduction_oracle(primes, level: int):
    @_guarded
    def check(doc):
        problems = []
        for res, p in zip(_results(doc, len(primes)), primes):
            if res["prime"] != p or res["ok"] is not True:
                problems.append(f"reduction congruence failed at p={p}")
            if res["congruence_order"] != p**level + 1:
                problems.append(f"wrong congruence order at p={p}")
        return problems
    return check


def _fit_oracle(primes, trunc: int):
    @_guarded
    def check(doc):
        problems = []
        for res, p in zip(_results(doc, len(primes)), primes):
            if res["prime"] != p or res["found"] is not True:
                problems.append(f"no integral Frobenius constant at p={p}")
                continue
            c = [_fractions(row) for row in res["constant"]]
            n = len(c)
            shape = all(
                c[i][j] == 0 if j < i else
                (i == 0 or c[i][j] == p * c[i - 1][j - 1])
                for i in range(n) for j in range(n)
            )
            if not shape or c[0][0] == 0:
                problems.append(f"constant at p={p} violates N C = p C N")
            if not _integral_profile(res["profile"]) or res["trunc"] != trunc:
                problems.append(f"fit at p={p} is not certified integral to {trunc}")
        return problems
    return check


def _verify_oracle(p: int, trunc: int):
    @_guarded
    def check(doc):
        (res,) = _results(doc, 1)
        if (res["prime"], res["trunc"], res["residual_order"]) != (p, trunc, trunc):
            return [f"candidate residual order {res['residual_order']} < {trunc}"]
        if not (res["ok"] is True and res["det_nonzero"] and res["constant_shape_ok"]):
            return ["candidate Frobenius matrix rejected"]
        return []
    return check
