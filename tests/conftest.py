from fractions import Fraction
from math import factorial

import pytest
from hypothesis import Phase, settings

from mumkit import RawOperator, builtin, monicize, solve_first_row, uniform_part

# tests/mutants.py runs mutated copies under this profile: a mutation check
# needs one failing example, not the smallest one
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


def random_mum_operator(rng):
    """Order 2-4, deg_z <= 3, P_n(0) in {1, 2, -3, 5}, P_i(0) = 0 for i < n."""
    n = rng.randint(2, 4)
    lead = [rng.choice((1, 2, -3, 5))] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
    lower = [[0] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] for _ in range(n)]
    polys = [tuple(poly) for poly in lower] + [tuple(lead)]
    polys = [poly[: max((k + 1 for k, c in enumerate(poly) if c), default=0)] for poly in polys]
    return RawOperator(tuple(polys))


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def quintic_f_coeff(n: int) -> Fraction:
    return Fraction(factorial(5 * n), factorial(n) ** 5)


def quintic_g_coeff(n: int) -> Fraction:
    return quintic_f_coeff(n) * (5 * harmonic(5 * n) - 5 * harmonic(n))


@pytest.fixture(scope="session")
def quintic_raw():
    return builtin("quintic")


@pytest.fixture(scope="session")
def quintic30(quintic_raw):
    return monicize(quintic_raw, 30)


@pytest.fixture(scope="session")
def quintic_row30(quintic30):
    return solve_first_row(quintic30, 30)


@pytest.fixture(scope="session")
def quintic_y30(quintic30):
    return uniform_part(quintic30, 30)


@pytest.fixture(scope="session")
def quintic_y20(quintic30):
    return uniform_part(quintic30.truncate(20), 20)
