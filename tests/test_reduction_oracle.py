"""check reduction against the route through H_m that it replaced.

reduction_congruence_check reads its verdict, f_1 .. f_{q-1} in Z_p, off
f = Y[0][0].  The oracle builds H_m with iterate_transfer, checks that
H_m[0][0] Lambda_q(f)(z^q) == f mod z^{q+1} holds, and decides the full
congruence with reduction_congruence_parts.
"""

from pathlib import Path

import pytest

from mumkit import (
    hypergeometric,
    iterate_transfer,
    parse_operator,
    reduction_congruence_check,
    solve_f,
    uniform_part,
)
from mumkit import frobtransfer
from mumkit.cli import load_corpus_file, main

from conftest import HG_FAMILIES
from transfer_oracles import reduction_congruence_parts

OPS = Path(__file__).resolve().parents[1] / "data" / "operators.ops"
LEVELS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3))
# the two operators of the golden reports with false verdicts
INLINE = ("D^2 - z", "2*D^2 - z")


def operators():
    ops = {label: hypergeometric(alpha.split(","), [1] * 4, scale)
           for label, (alpha, scale) in HG_FAMILIES.items()}
    ops.update(load_corpus_file(OPS))
    ops.update((text, parse_operator(text)) for text in INLINE)
    return ops


OPERATORS = operators()


@pytest.mark.parametrize("label", sorted(OPERATORS))
def test_check_reduction_agrees_with_the_route_through_h_m(label):
    raw = OPERATORS[label]
    verdicts = []
    for p, m in LEVELS:
        q = p**m
        y = uniform_part(raw, q + 1)
        f = y.entries[0][0]
        h11 = iterate_transfer(y, p, m).h.entries[0][0]
        assert (h11 * f.cartier(q).substitute_power(q, q + 1) - f).truncate(q + 1).is_zero()
        verdict = reduction_congruence_check(f, p, m)
        assert verdict == reduction_congruence_parts(h11, f, p, m), (p, m)
        verdicts.append(verdict)
    if label in INLINE:
        assert not all(verdicts)


def test_check_reduction_builds_no_inverse_and_no_transfer(tmp_path, monkeypatch):
    fs = [solve_f(parse_operator(text), 10) for text in INLINE]

    def refuse(*args, **kwargs):
        raise AssertionError("check reduction must not build L_m or H_m")

    monkeypatch.setattr(frobtransfer, "iterate_transfer", refuse)
    monkeypatch.setattr(frobtransfer, "right_divide", refuse)
    assert [reduction_congruence_check(f, p, m) for f in fs for p, m in ((3, 1), (2, 2))] == [
        True, False, True, False]
    argv = ["check", "reduction", "--op", "D^2 - z", "--trunc", "8", "--level", "2",
            "--primes", "2,3", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
