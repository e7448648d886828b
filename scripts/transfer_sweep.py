#!/usr/bin/env python3
"""Frobenius transfer audit at one level for operators in a corpus file.

For each operator and prime this builds the transfer data at the given
level, checks every decidable invariant (gauge constant, intertwining
equation, integrality profiles), runs the reduction congruence, and
searches for an integral Frobenius constant.
"""

import argparse
from pathlib import Path

from mumkit import (
    fit_frobenius_constant,
    iterate_transfer,
    monicize,
    reduction_congruence_check,
    transfer_audit,
    uniform_part,
)
from mumkit.cli import load_corpus_file


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--corpus",
        default=str(Path(__file__).resolve().parent.parent / "data/operators.ops"),
    )
    parser.add_argument("--primes", default="2,3,7")
    parser.add_argument("--level", type=int, default=1)
    parser.add_argument("--trunc", type=int, default=48)
    args = parser.parse_args()

    primes = [int(chunk) for chunk in args.primes.split(",")]
    for label, raw in load_corpus_file(args.corpus):
        op = monicize(raw, args.trunc)
        y = uniform_part(raw, args.trunc)
        print(f"== {label} (order {raw.order}, working order {args.trunc})")
        for p in primes:
            if not op.p_integrality(p).is_integral:
                print(f"   p={p}: skipped, operator not p-integral")
                continue
            if p**args.level >= args.trunc:
                print(f"   p={p}: skipped, order too small for level {args.level}")
                continue
            data = iterate_transfer(y, p, args.level)
            audit = transfer_audit(raw, data)
            reduction = reduction_congruence_check(y.entries[0][0], p, args.level)
            fit = fit_frobenius_constant(y.truncate(min(args.trunc, 24)), p)
            print(
                f"   p={p}: L_{args.level} certified to {data.trunc},"
                f" audit {'ok' if audit.ok else 'FAILED'},"
                f" reduction {'ok' if reduction else 'FAILED'},"
                f" integral Phi {'found' if fit.found else 'not found'}"
            )


if __name__ == "__main__":
    main()
