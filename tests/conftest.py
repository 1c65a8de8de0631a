import random

import pytest

from contracta import catalog, contraction
from contracta.words import concat, invert


@pytest.fixture(scope="session")
def grig():
    return catalog.load("grigorchuk")


@pytest.fixture(scope="session")
def basilica():
    return catalog.load("basilica")


@pytest.fixture(scope="session")
def all_recursion_groups():
    return [catalog.load(name) for name in catalog.RECURSION_NAMES]


@pytest.fixture
def rng():
    return random.Random(20240511)


def random_word(rng, ngens, max_len):
    letters = [s for s in range(-ngens, ngens + 1) if s]
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_vertex(rng, degree, max_len):
    return tuple(rng.randrange(degree) for _ in range(rng.randint(0, max_len)))


def are_equal(rec, g, h, budget=contraction.DEFAULT_BUDGET, memo=None):
    """Equality in the group of `rec`: g h^-1 is trivial."""
    return contraction.is_trivial(rec, concat(g, invert(h)), budget, memo)
