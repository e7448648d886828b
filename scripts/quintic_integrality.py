#!/usr/bin/env python3
"""Prime sweep of the integrality statements for the quintic operator.

For each good prime up to the bound this prints the Dieudonne ratio check
for f, the omega congruence for (f, g), and whether exp(g/f) stays
p-integral, all up to the chosen truncation order.  The final line audits
the canonical coordinate's denominators exactly.
"""

import argparse

from mumkit import (
    builtin,
    canonical_coordinate,
    dieudonne_check,
    g_over_f,
    monicize,
    n_integrality_report,
    omega_congruence_check,
    solve_first_row,
)
from mumkit.primes import primes_upto


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trunc", type=int, default=80)
    parser.add_argument("--prime-bound", type=int, default=40)
    args = parser.parse_args()

    raw = builtin("quintic")
    f, g = solve_first_row(raw, args.trunc, 2)
    op = monicize(raw, args.trunc)  # for the op in Z_p column only
    h = g_over_f(f, g)
    # prime-independent: log f for the Dieudonne ratio, and q = z exp(g/f),
    # whose coefficients are those of exp(g/f) shifted by one
    log_f = f.log()
    q = canonical_coordinate(f, g)

    print(f"quintic at truncation order {args.trunc}")
    print(f"{'p':>4} {'op in Z_p':>10} {'dieudonne':>10} {'omega':>6} {'exp(g/f)':>9}")
    for p in primes_upto(args.prime_bound):
        op_ok = op.p_integrality(p).is_integral
        if not op_ok:
            print(f"{p:>4} {'no':>10} {'-':>10} {'-':>6} {'-':>9}")
            continue
        dieu, _ = dieudonne_check(log_f, p)
        omega, _ = omega_congruence_check(h, p)
        expint = q.valuation_profile(p).is_integral
        print(
            f"{p:>4} {'yes':>10} {str(dieu).lower():>10}"
            f" {str(omega).lower():>6} {str(expint).lower():>9}"
        )

    report = n_integrality_report(q, prime_bound=args.prime_bound, subject="q")
    print()
    print(f"q-coordinate bad primes up to order {report.certified_trunc}:",
          list(report.bad_primes) or "none", f"(suggested N = {report.suggested_N})")


if __name__ == "__main__":
    main()
