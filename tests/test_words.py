import random

import pytest

from contracta.errors import ParseError
from contracta.words import (
    concat,
    free_reduce,
    format_word,
    invert,
    parse_word,
    shortlex_key,
)

GENS = ("a", "b", "c")


def test_free_reduce_cancels_and_is_idempotent():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    w = (1, 1, -2, 2, -1, 3)
    assert free_reduce(free_reduce(w)) == free_reduce(w)
    assert len(free_reduce(w)) <= len(w)


def test_invert_roundtrip():
    w = (1, -2, 3, 3)
    assert free_reduce(concat(w, invert(w))) == ()
    assert invert(invert(w)) == w


def test_concat_is_free_reduce_of_the_join_on_reduced_words():
    # v often starts with the inverse of a tail of u, so that long stretches
    # cancel at the junction
    rng = random.Random(20240511)
    letters = (1, -1, 2, -2, 3, -3)
    cancelled = 0
    for _ in range(5_000):
        u, tail = (
            free_reduce(rng.choice(letters) for _ in range(rng.randint(0, 10))) for _ in range(2)
        )
        v = free_reduce(invert(u)[: rng.randint(0, len(u))] + tail)
        assert concat(u, v) == free_reduce(u + v), (u, v)
        cancelled += len(concat(u, v)) < len(u) + len(v)
    assert cancelled > 1_000


def test_parse_and_format():
    assert parse_word("1", GENS) == ()
    assert parse_word("", GENS) == ()
    assert parse_word("a b^-1 c", GENS) == (1, -2, 3)
    assert parse_word("a^3", GENS) == (1, 1, 1)
    assert parse_word("a a^-1 b", GENS) == (2,)
    assert format_word((1, -2, 3), GENS) == "a b^-1 c"
    assert format_word((), GENS) == "1"
    roundtrip = parse_word(format_word((1, -1 * 2, 3), GENS), GENS)
    assert roundtrip == (1, -2, 3)


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_word("a z", GENS)
    with pytest.raises(ParseError):
        parse_word("2x", GENS)


def test_shortlex_orders_inverse_after_generator():
    assert shortlex_key((1,)) < shortlex_key((-1,))
    assert shortlex_key((-1,)) < shortlex_key((2,))
    assert shortlex_key((2,)) < shortlex_key((1, 1))
