import random

import pytest

from contracta import catalog, contraction
from contracta.grig import A, B, C, D
from contracta.words import concat, invert

# the letters that may follow each letter in an alternating word of C2 * V,
# the table `grig.C2V` reads off its rules
ALTERNATING = {None: (A, B, C, D), A: (B, C, D), B: (A,), C: (A,), D: (A,)}


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


def level_permutation(rec, word, n):
    """The permutation of X^n by `word`, from `rec.level_action(n)`; X^0 is
    one vertex."""
    return rec.level_action(n)(word) if n else (0,)


def are_equal(rec, g, h, budget=contraction.DEFAULT_BUDGET, memo=None):
    """Equality in the group of `rec`: g h^-1 is trivial."""
    return contraction.is_trivial(rec, concat(g, invert(h)), budget, memo)


def reference_in_kernel(start, split, n, memo, empty):
    """The level-n kernel test that `contraction.least_level` replaced: one
    frame per level, with `memo` keyed by (state, level).  `start` fixes the
    first n levels and each of its level-n sections is trivial, which
    `empty(state)` decides; an empty state lies in every kernel."""
    if n == 0:
        return empty(start)
    key = (start, n)
    result = memo.get(key)
    if result is None:
        if empty(start):
            return True
        moved, sections = split(start)
        result = not moved and all(
            reference_in_kernel(state, split, n - 1, memo, empty) for state in sections
        )
        memo[key] = result
    return result
