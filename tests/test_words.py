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
