from fractions import Fraction
from math import factorial

import pytest
from hypothesis import Phase, settings

from mumkit import RawOperator, builtin, monicize, solve_first_row, uniform_part

# tests/mutants.py runs mutated copies under this profile: a mutation check
# needs one failing example, not the smallest one
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))

# (alpha, scale) of the 14 order-4 hypergeometric families with beta = (1, 1, 1, 1)
HG_FAMILIES = {
    "hg01": ("1/5,2/5,3/5,4/5", 5**5), "hg02": ("1/10,3/10,7/10,9/10", 2**8 * 5**5),
    "hg03": ("1/2,1/2,1/2,1/2", 2**8), "hg04": ("1/3,1/3,2/3,2/3", 3**6),
    "hg05": ("1/3,1/2,1/2,2/3", 2**4 * 3**3), "hg06": ("1/4,1/2,1/2,3/4", 2**10),
    "hg07": ("1/8,3/8,5/8,7/8", 2**16), "hg08": ("1/6,1/3,2/3,5/6", 2**4 * 3**6),
    "hg09": ("1/12,5/12,7/12,11/12", 2**12 * 3**6), "hg10": ("1/4,1/3,2/3,3/4", 2**6 * 3**3),
    "hg11": ("1/6,1/2,1/2,5/6", 2**8 * 3**3), "hg12": ("1/4,1/4,3/4,3/4", 2**12),
    "hg13": ("1/6,1/4,3/4,5/6", 2**10 * 3**3), "hg14": ("1/6,1/6,5/6,5/6", 2**8 * 3**6),
}


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
