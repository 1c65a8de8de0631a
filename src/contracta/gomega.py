"""The sequence-indexed family of tree groups over {0,1,2}-sequences.

A parameter is an eventually periodic sequence; the four generators are the
flip `a` plus three level-recursive involutions b, c, d whose first sections
run through the pattern table below as the sequence is shifted.  Words reduce
to the alternating normal form of C2 * V, which is valid in every member of
the family.  Triviality is decided exactly: the state space (reduced word,
shift offset) is finite for eventually periodic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .contraction import DEFAULT_BUDGET, Budget, _check_length, in_kernel, walk
from .errors import BudgetExceeded, ParseError
from .grig import _VTABLE, A, B, C, D, reduce_word

# whether the first section of b, c, d is the flip (else trivial), per symbol
_A_PART = {
    B: (True, True, False),
    C: (True, False, True),
    D: (False, True, True),
}


@dataclass(frozen=True)
class OmegaSequence:
    """Eventually periodic sequence over {0,1,2}: preperiod then cycle."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for s in self.preperiod + self.period:
            if s not in (0, 1, 2):
                raise ValueError("symbols must be 0, 1, or 2")

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

    def symbol(self, k: int) -> int:
        """The k-th symbol, 1-indexed."""
        if k < 1:
            raise ValueError("symbols are 1-indexed")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        return self.period[(k - 1 - len(self.preperiod)) % len(self.period)]

    @cached_property
    def steps(self) -> tuple:
        """Entry k is (symbol(k + 1), canonical offset k + 1), for each
        canonical offset k: one split's symbol and the offset it moves to."""
        return tuple(
            (self.symbol(k + 1), _canonical_offset(self, k + 1))
            for k in range(len(self.preperiod) + len(self.period))
        )

    def split(self, state) -> tuple:
        """The split of a state (C2 * V-reduced word, canonical offset) that
        `walk` and `in_kernel` take: whether it moves the root, and both
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


def _canonical_offset(omega: OmegaSequence, offset: int) -> int:
    pre = len(omega.preperiod)
    if offset <= pre:
        return offset
    return pre + (offset - pre) % len(omega.period)


def omega_is_trivial(omega: OmegaSequence, g, budget: Budget = DEFAULT_BUDGET, _memo=None) -> bool:
    """`contraction.walk` over the states (word, canonical offset), moving the
    root at an odd flip count; `_memo` serves this parameter.  Only the start's
    length is checked: a letter puts at most one letter into each section."""
    word = reduce_word(g)
    _check_length(word, budget)
    if word.count(A) % 2:  # the first split moves the root
        return False
    return walk((word, 0), omega.split, budget, _memo)


def omega_kernel_member(omega: OmegaSequence, w, n: int, _memo=None) -> bool:
    """Membership in the level-n kernel of the symbol-wise splitting chain,
    whose level 0 is C2 * V: `in_kernel` over `omega.split`, with `_memo`
    caching answers for this parameter."""
    if n < 0:
        raise ValueError("level must be >= 0")
    memo = {} if _memo is None else _memo
    try:
        return in_kernel((reduce_word(w), 0), omega.split, n, memo, _is_identity)
    except RecursionError:
        raise BudgetExceeded(f"level-{n} kernel test exceeds the recursion limit") from None


def _is_identity(state) -> bool:
    return not state[0]
