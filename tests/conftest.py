import functools
import random
from operator import itemgetter

import pytest

from contracta import catalog, contraction, covers, marked, rewriting
from contracta.grig import A, B, C, D
from contracta.recursion import parse_recursion
from contracta.words import concat, invert

# the letters that may follow each letter in an alternating word of C2 * V,
# the table `grig.C2V` reads off its rules
ALTERNATING = {None: (A, B, C, D), A: (B, C, D), B: (A,), C: (A,), D: (A,)}

# recursions whose universal covers complete with left sides longer than 2:
# 7 generators, 151 rules and left sides of length 3 for LONG_REC, 4
# generators, 46 rules and a left side of length 4 for LONG4_REC
LONG_REC = (
    "alphabet 3\n"
    "gen x = perm(2 0 1) sections(x^-1, x, 1)\n"
    "gen y = perm(1 2 0) sections(1, y^-1, y)\n"
)
LONG4_REC = (
    "alphabet 3\n"
    "gen x = perm(2 0 1) sections(y^-1, 1, x y)\n"
    "gen y = perm(1 2 0) sections(1, 1, x)\n"
)


def long_cover(text):
    """The universal cover of a recursion, and its complete rewriting system."""
    cover = covers.universal_cover(contraction.nucleus(parse_recursion(text)))
    return cover, rewriting.complete(cover.presentation)


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
    """The permutation of X^n by `word`, from `reference_level_action(rec, n)`;
    X^0 is one vertex."""
    return reference_level_action(rec, n)(word) if n else (0,)


@functools.cache
def reference_level_action(rec, n):
    """The map word -> its permutation of X^n in lexicographic order (first
    letter most significant; entry i is the index of the image of vertex i),
    the independent oracle for the tree action.  The action on X^n is a
    homomorphism, so a word's permutation is its letters' ones composed, right
    to left.  A letter's level-k permutation is its root permutation blocked
    over its sections' level-(k-1) ones, composed the same way; every signed
    letter's permutation of every level up to n is built on the first call."""
    d = rec.degree
    letters = [s for g in range(1, len(rec.gens) + 1) for s in (g, -g)]
    identity = tuple(range(d**n))
    apply_letter = {}

    def compose(word, p):
        for s in reversed(word):
            p = apply_letter[s](p)
        return p

    def permutation(word):
        if not apply_letter:
            for s in letters:
                apply_letter[s] = itemgetter(*rec._letters[s][0])
            for k in range(1, n):
                block = tuple(range(d**k))
                perms = {}
                for s in letters:
                    images, secs = rec._letters[s]
                    perms[s] = tuple(
                        images[x] * len(block) + j for x in range(d) for j in compose(secs[x], block)
                    )
                apply_letter.update((s, itemgetter(*p)) for s, p in perms.items())
        return compose(word, identity)

    return permutation


def partition(keys):
    """Each key replaced by the position where it first occurs: two key lists
    give equal lists exactly when they bucket the same positions together."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def free_follow(k):
    """The last-letter table of the freely reduced words in rank k."""
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    follow = {s: [t for t in letters if t != -s] for s in letters}
    follow[None] = letters
    return follow


def free_ball(k, n, cap=marked.DEFAULT_BALL_CAP):
    """All freely reduced words of length <= n in rank k, shortest first,
    within `length_order`'s `cap`."""
    return list(marked.length_order(free_follow(k), n, cap))


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
