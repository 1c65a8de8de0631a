"""The sequence-indexed family of tree groups over {0,1,2}-sequences.

A parameter is an eventually periodic sequence; the four generators are the
flip `a` plus three level-recursive involutions b, c, d whose first sections
run through the pattern table below as the sequence is shifted.  Words reduce
to the alternating normal form of C2 * V, which is valid in every member of
the family.  Triviality is decided exactly: the state space (reduced word,
shift offset) is finite for eventually periodic parameters.
"""

from __future__ import annotations

from functools import cached_property

from .contraction import DEFAULT_BUDGET, Budget, _check_length, least_level, walk
from .errors import ParseError
from .grig import _VTABLE, A, B, C, D
from .record import Record

# whether the first section of b, c, d is the flip (else trivial), per symbol
_A_PART = {
    B: (True, True, False),
    C: (True, False, True),
    D: (False, True, True),
}


class OmegaSequence(Record):
    """Eventually periodic sequence over {0,1,2}: preperiod then cycle."""

    # the dict holds `steps` once made
    __slots__ = ("preperiod", "period", "__dict__")

    def __init__(self, preperiod: tuple, period: tuple):
        if not period:
            raise ValueError("period must be nonempty")
        for s in preperiod + period:
            if s not in (0, 1, 2):
                raise ValueError("symbols must be 0, 1, or 2")
        self.preperiod, self.period = preperiod, period

    @classmethod
    def parse(cls, text: str) -> "OmegaSequence":
        """`<preperiod>:<period>` over digits 0,1,2, e.g. `:012`."""
        if ":" not in text:
            raise ParseError(f"omega spec {text!r} needs a ':'")
        pre, per = text.split(":", 1)
        try:
            return cls(tuple(int(c) for c in pre), tuple(int(c) for c in per))
        except ValueError as e:
            raise ParseError(f"bad omega spec {text!r}: {e}") from None

    def __str__(self):
        return "".join(map(str, self.preperiod)) + ":" + "".join(map(str, self.period))

    @cached_property
    def steps(self) -> tuple:
        """Entry k is the symbol that a split at canonical offset k reads,
        and the canonical offset it moves to: k + 1, or the start of the
        period again after the period's last symbol."""
        seq = self.preperiod + self.period
        return tuple(zip(seq, (*range(1, len(seq)), len(self.preperiod))))

    def split(self, state) -> tuple:
        """The split of a state (C2 * V-reduced word, canonical offset) that
        `walk` and `least_level` take: whether it moves the root, and both
        first-level sections, one shift along."""
        word, offset = state
        symbol, offset = self.steps[offset]
        w0, w1, flip = _split(symbol, word)
        return flip, ((w0, offset), (w1, offset))


def _split(symbol: int, word) -> tuple:
    """Both first-level sections of a C2 * V-reduced word at a shift whose
    first symbol is `symbol`, each in C2 * V normal form, and the parity of
    its flips.  Each letter goes straight onto its section's stack by
    `reduce_word`'s rules: an equal top cancels, two V letters merge."""
    here, there = [], []  # the sections at the current flip parity x: x and 1 - x
    flip = 0
    for s in word:
        if s == A:
            flip ^= 1
            here, there = there, here
            continue
        if not there or there[-1] == A:
            there.append(s)
        elif there[-1] == s:
            there.pop()
        else:  # `there` alternates, so this V letter meets one V letter
            there[-1] = _VTABLE[(there[-1], s)]
        if _A_PART[s][symbol]:
            if here and here[-1] == A:
                here.pop()
            else:
                here.append(A)
    if flip:
        here, there = there, here
    return tuple(here), tuple(there), flip


def normal_form_is_trivial(
    omega: OmegaSequence, word, budget: Budget = DEFAULT_BUDGET, memo=None
) -> bool:
    """Triviality of a word in C2 * V normal form: `contraction.walk` over the
    states (word, canonical offset), moving the root at an odd flip count;
    `memo` serves this parameter.  Only the start's length is checked: a
    letter puts at most one letter into each section."""
    if len(word) > budget.max_word_length:
        _check_length(word, budget)
    return walk((word, 0), omega.split, budget, memo)


def normal_form_kernel_member(omega: OmegaSequence, word, n: int, memo=None) -> bool:
    """Membership of a word in C2 * V normal form in the level-n kernel of
    the splitting chain, whose level 0 is C2 * V: `least_level` over
    `omega.split` is at most n, with `memo` serving this parameter."""
    return least_level((word, 0), omega.split, {} if memo is None else memo, _is_identity) <= n


def _is_identity(state) -> bool:
    return not state[0]
