"""The paper's conclusion against the direct audit: a p-integral Frobenius
structure forces the canonical coordinate q = z exp(g/f) into Z_p[[z]].

mumkit reaches the two sides by independent computations:
fit_frobenius_constant searches for an integral Phi from the uniform part
Y, while canonical_coordinate and the omega congruence (the check behind
`check omega`) read only f and g.  Wherever the fit finds Phi at order T,
q must be p-integral to order T + 1 and the omega congruence must hold,
and the level-1 transfer matrix H_1 = Phi Lambda_p(Phi)(z^p)^{-1}
diag(1, p, ..., p^(n-1)) read off the same Y must be p-integral: an
observed implication, not a theorem, so only this direction is asserted
(quartic3 at p = 2 has an integral H_1 and no fit).
A fit at finite order is not the theorem's hypothesis, so a disagreement
here is a finding about the code or the truncation, never a reason to
weaken the test.
"""

from pathlib import Path

import pytest

from mumkit import (
    canonical_coordinate,
    fit_frobenius_constant,
    g_over_f,
    hypergeometric,
    iterate_transfer,
    omega_congruence_check,
    solve_first_row,
    transfer_audit,
    uniform_part,
)
from mumkit.cli import load_corpus_file

T = 25
PRIMES = (2, 3, 5, 7, 11, 13)
CORPUS = dict(load_corpus_file(Path(__file__).resolve().parents[1] / "data/operators.ops"))
# (alpha, scale) of order-4 hypergeometric families with beta = (1, 1, 1, 1)
FAMILIES = {
    "hg03": ("1/2,1/2,1/2,1/2", 2**8),
    "hg04": ("1/3,1/3,2/3,2/3", 3**6),
    "hg10": ("1/4,1/3,2/3,3/4", 2**6 * 3**3),
    "hg09": ("1/12,5/12,7/12,11/12", 2**12 * 3**6),
    "quintic_unscaled": ("1/5,2/5,3/5,4/5", 1),
}
OPERATORS = {**CORPUS, **{label: hypergeometric(alpha.split(","), [1] * 4, scale)
                          for label, (alpha, scale) in FAMILIES.items()}}
# no fit, and q is not p-integral: the negative controls
NO_FIT = {("quartic3", 2), ("quintic_unscaled", 5)}


@pytest.mark.parametrize("label", sorted(OPERATORS))
def test_a_fitted_frobenius_structure_makes_q_p_integral(label):
    raw = OPERATORS[label]
    y = uniform_part(raw, T)
    f, g = solve_first_row(raw, T)[:2]
    q = canonical_coordinate(f, g)
    assert q.trunc == T + 1
    h = g_over_f(f, g)
    for p in PRIMES:
        fit = fit_frobenius_constant(y, p)
        assert fit.found == ((label, p) not in NO_FIT), p
        q_integral = q.valuation_profile(p).is_integral
        if fit.found:
            assert q_integral, p
            assert omega_congruence_check(h, p)[0], p
            assert transfer_audit(raw, iterate_transfer(y, p, 1)).h_profile.is_integral, p
        else:
            assert not q_integral, p
