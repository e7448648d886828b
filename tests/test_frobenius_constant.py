"""The Frobenius-constant layer: the congruence solver of the fit against
brute force, the admissible constant shape against the element-wise
rules it replaced, and the two identities that Phi = Y C Y(z^p)^{-1}
satisfies by construction."""

import itertools
import random
from fractions import Fraction

import pytest

from mumkit import (
    BadConstantShape,
    SeriesMatrix,
    frobenius_from_constant,
    twisted_rows,
    uniform_part,
)
from mumkit.frobtransfer import _solve_congruences, constant_shape_ok

from conftest import random_mum_operator

F = Fraction


def satisfies(rows, x, p):
    return all((sum(a * xi for a, xi in zip(coeffs, x)) - rhs) % p**e == 0
               for coeffs, rhs, e in rows)


def brute_force_solvable(rows, unknowns, p):
    """Whether some x mod p^E, E the largest exponent, satisfies every row."""
    top = p ** max(e for _, _, e in rows)
    return any(satisfies(rows, x, p)
               for x in itertools.product(range(top), repeat=unknowns))


def random_system(rng):
    """1-3 unknowns, 1-4 rows mod p^e with e <= 3, p in {2, 3, 5}; entries are
    often 0 or divisible by p, and half the systems are built around a
    solution.  p = 5 with three unknowns stops at e = 2, so that brute force
    tries at most 3^9 vectors."""
    p = rng.choice((2, 3, 5))
    unknowns = rng.randint(1, 3)
    e_max = rng.randint(1, 2 if (p, unknowns) == (5, 3) else 3)
    hidden = [rng.randrange(p**e_max) for _ in range(unknowns)]
    rows = []
    for _ in range(rng.randint(1, 4)):
        e = rng.randint(1, e_max)
        mod = p**e
        coeffs = [rng.choice((0, 1, p, p * p)) * rng.randrange(mod) % mod
                  for _ in range(unknowns)]
        if rng.random() < 0.5:
            rhs = sum(a * x for a, x in zip(coeffs, hidden)) % mod
        else:
            rhs = rng.randrange(mod)
        rows.append((coeffs, rhs, e))
    return rows, unknowns, p


def test_solver_agrees_with_brute_force():
    rng = random.Random(20230606)
    solvable = 0
    for _ in range(1500):
        rows, unknowns, p = random_system(rng)
        x = _solve_congruences(rows, unknowns, p)
        expected = brute_force_solvable(rows, unknowns, p)
        assert (x is not None) == expected, (rows, unknowns, p)
        if x is not None:
            assert len(x) == unknowns and satisfies(rows, x, p), (rows, x)
        solvable += expected
    # both answers are well represented
    assert 300 < solvable < 1200


def test_solver_finds_a_solution_behind_a_non_unit_first_column():
    # 3 x1 + x2 = 1 (mod 9): pivoting on the 3 of the first column alone
    # would demand 3 | 1, though x = (0, 1) solves it
    x = _solve_congruences([([3, 1], 1, 2)], 2, 3)
    assert x is not None and (3 * x[0] + x[1]) % 9 == 1


def test_solver_empty_and_inconsistent_systems():
    assert _solve_congruences([], 3, 5) == [0, 0, 0]
    assert _solve_congruences([([0, 0], 1, 1)], 2, 2) is None
    assert _solve_congruences([([2], 1, 2)], 1, 2) is None  # 2 x = 1 (mod 4)


def elementwise_shape_ok(rows, p):
    """The admissible-shape test as it was written entry by entry."""
    n = len(rows)
    mu = rows[0][0]
    if mu == 0:
        return False
    for i in range(n):
        for j in range(n):
            if j < i and rows[i][j] != 0:
                return False
            if i > 0 and j > 0 and rows[i][j] != p * rows[i - 1][j - 1]:
                return False
            if i > 0 and j == 0 and rows[i][j] != 0:
                return False
    return True


def test_constant_shape_matches_the_elementwise_rules():
    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(400):
        p, n = rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        gammas = [F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
        rows = [list(row) for row in twisted_rows(p, n, gammas)]
        if rng.random() < 0.8:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice((-1, 1, p, F(1, p)))
        ok = constant_shape_ok(rows, p)
        assert ok == elementwise_shape_ok(rows, p), (rows, p)
        accepted += ok
        rejected += not ok
    assert accepted > 50 and rejected > 50


@pytest.mark.parametrize("rows", [
    ((F(1), F(0), F(0)), (F(0), F(3), F(0))),  # 2 x 3: the old rules accepted it
    ((F(1),), (F(0),)),  # 2 x 1
], ids=["wide", "narrow"])
def test_non_square_constant_is_refused(rows):
    assert not constant_shape_ok(rows, 3)
    with pytest.raises(BadConstantShape):
        frobenius_from_constant(SeriesMatrix.identity(2, 4), rows, 3)


def test_phi_times_y_at_z_p_is_y_c_and_phi_at_zero_is_c():
    # frobenius_from_constant does not re-check these: Y^{-1} is exact below
    # ceil(M/p), and Y(0) = I
    rng = random.Random(20231019)
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        raw = random_mum_operator(rng)
        n, trunc = raw.order, rng.randint(2, 16)
        y = uniform_part(raw, trunc)
        pivot = rng.choice((F(1), F(-1), F(2), F(1, p), F(3, 7)))
        gammas = [pivot] + [F(rng.randint(-5, 5), rng.choice((1, 2, p))) for _ in range(n - 1)]
        rows = twisted_rows(p, n, gammas)
        phi = frobenius_from_constant(y, rows, p).phi
        yc = y * SeriesMatrix.from_constant(rows, trunc)
        assert (phi * y.substitute_power(p, trunc) - yc).residual_order() == trunc
        assert phi.constant_matrix() == rows
