import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from normality_lab import (
    bernoulli_half_system,
    beta_pair_system,
    cantor_system,
    make_system,
)


@pytest.fixture(scope="session")
def cantor():
    return cantor_system()


@pytest.fixture(scope="session")
def half():
    """{x/2, (x+1)/2} with equal weights: Lebesgue measure on [0, 1]."""
    return bernoulli_half_system()


@pytest.fixture(scope="session")
def mixed():
    """Inhomogeneous slopes and non-uniform weights, hull [0, 1]."""
    return make_system([("1/2", "0"), ("1/4", "3/4")], ["2/3", "1/3"])


@pytest.fixture(scope="session")
def slow():
    """Slope 999/1000: a symbol adds log2(1000) bits to the composed
    integers but only log2(1000/999) bits of precision, r = 6,904."""
    return make_system([("999/1000", "0"), ("999/1000", "1/1000")])


@pytest.fixture(scope="session")
def beta_52():
    return beta_pair_system(Fraction(5, 2))


@pytest.fixture(scope="session")
def three_systems(cantor, half, mixed):
    return {"cantor": cantor, "half": half, "mixed": mixed}
