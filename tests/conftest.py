from fractions import Fraction
from math import factorial

import pytest
from hypothesis import Phase, settings

from mumkit import builtin, monicize, solve_first_row, uniform_part

# tests/mutants.py runs mutated copies under this profile: a mutation check
# needs one failing example, not the smallest one
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


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
