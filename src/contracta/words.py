"""Freely reduced words over named generators.

A word is a tuple of nonzero ints: letter ``+(i+1)`` is generator number ``i``
of the owning structure's generator list, ``-(i+1)`` its inverse.  The empty
tuple is the identity.  All functions keep words freely reduced.
"""

from __future__ import annotations

import re

from .errors import ParseError

Word = tuple  # tuple[int, ...]

TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def free_reduce(letters) -> Word:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(word) -> Word:
    return tuple(-x for x in reversed(word))


def concat(u, v) -> Word:
    """The product of freely reduced u and v, where only the junction cancels."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def parse_word(text: str, gens) -> Word:
    """Parse a space-separated token word; ``1`` (alone) is the identity.

    Tokens are ``<name>`` or ``<name>^<k>`` with integer k (``^-1`` per the
    file grammar; other exponents are accepted as a convenience).
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for tok in text.split():
        m = TOKEN_RE.match(tok)
        if not m:
            raise ParseError(f"bad word token {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in gens:
            raise ParseError(f"unknown generator {name!r} in word")
        base = gens.index(name) + 1
        letters.extend([base if exp > 0 else -base] * abs(exp))
    return free_reduce(letters)


def format_word(word, gens) -> str:
    if not word:
        return "1"
    out = []
    for x in word:
        name = gens[abs(x) - 1]
        out.append(name if x > 0 else name + "^-1")
    return " ".join(out)


def shortlex_key(word):
    # inverse letters rank just after their generator: a < a^-1 < b < b^-1 ...
    return (len(word), tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in word))
