"""The sequence-indexed family of tree groups over {0,1,2}-sequences.

A parameter is an eventually periodic sequence; the four generators are the
flip `a` plus three level-recursive involutions b, c, d whose first sections
run through the pattern table below as the sequence is shifted.  Words reduce
to the alternating normal form of C2 * V, which is valid in every member of
the family.  Triviality is decided exactly: the state space (reduced word,
shift offset) is finite for eventually periodic parameters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import grig
from .contraction import Budget, DEFAULT_BUDGET
from .errors import BudgetExceeded, ParseError, SemanticError
from .grig import A, B, C, D, reduce_word
from .rewriting import RewriteSystem, normal_form
from .words import Word, free_reduce

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

    def shift(self) -> "OmegaSequence":
        if self.preperiod:
            return OmegaSequence(self.preperiod[1:], self.period)
        return OmegaSequence((), self.period[1:] + self.period[:1])

    @property
    def is_eventually_constant(self) -> bool:
        return len(set(self.period)) == 1

    @property
    def hits_all_three(self) -> bool:
        return set(self.period) == {0, 1, 2}


@dataclass(frozen=True)
class OmegaElement:
    """Word over a, b, c, d read relative to `offset` shifts of the parameter."""

    word: Word
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "word", reduce_word(self.word))


def _as_element(g) -> OmegaElement:
    return g if isinstance(g, OmegaElement) else OmegaElement(free_reduce(g))


def _letter_sections(omega: OmegaSequence, letter: int, offset: int):
    """Pair of first-level sections of a generator at the given shift."""
    if letter == A:
        return (), ()
    first = omega.symbol(offset + 1)
    apart = (A,) if _A_PART[letter][first] else ()
    return apart, (letter,)


def omega_section(omega: OmegaSequence, g, vertex) -> OmegaElement:
    """Section at a vertex; every tree level shifts the parameter once."""
    elt = _as_element(g)
    word, offset = elt.word, elt.offset
    for x in vertex:
        if x not in (0, 1):
            raise SemanticError("vertices use the binary alphabet {0, 1}")
        out = []
        pos = x
        for s in word:
            secs = _letter_sections(omega, s, offset)
            out.extend(secs[pos])
            if s == A:
                pos ^= 1
        word, offset = reduce_word(out), offset + 1
    return OmegaElement(word, offset)


def _canonical_offset(omega: OmegaSequence, offset: int) -> int:
    pre = len(omega.preperiod)
    if offset <= pre:
        return offset
    return pre + (offset - pre) % len(omega.period)


def omega_is_trivial(omega: OmegaSequence, g, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Exact triviality: no reachable section state has an odd flip count."""
    elt = _as_element(g)
    start = (elt.word, _canonical_offset(omega, elt.offset))
    seen = {start}
    queue = deque([start])
    while queue:
        word, offset = queue.popleft()
        if sum(1 for x in word if x == A) % 2:
            return False
        for x in (0, 1):
            nxt = omega_section(omega, OmegaElement(word, offset), (x,))
            state = (nxt.word, _canonical_offset(omega, nxt.offset))
            if state not in seen:
                if len(seen) >= budget.max_states:
                    raise BudgetExceeded(
                        f"section states exceed {budget.max_states}"
                    )
                seen.add(state)
                queue.append(state)
    return True


def omega_are_equal(omega, g, h, budget: Budget = DEFAULT_BUDGET) -> bool:
    ge, he = _as_element(g), _as_element(h)
    if ge.offset != he.offset:
        raise SemanticError("elements live at different shifts")
    # all four generators are involutions: the inverse word is the reverse
    return omega_is_trivial(
        omega, OmegaElement(ge.word + tuple(reversed(he.word)), ge.offset), budget
    )


# level-1 images of the four generators in the base cover, one table per symbol
_PHI = {
    i: {
        A: ((), (), (1, 0)),
        B: (((A,) if _A_PART[B][i] else ()), (B,), (0, 1)),
        C: (((A,) if _A_PART[C][i] else ()), (C,), (0, 1)),
        D: (((A,) if _A_PART[D][i] else ()), (D,), (0, 1)),
    }
    for i in (0, 1, 2)
}


def phi_i_apply(i: int, w) -> tuple:
    """Level-1 image of a word under the symbol-i splitting: a pair of freely
    reduced component words and the root permutation."""
    if i not in (0, 1, 2):
        raise ValueError("symbol must be 0, 1, or 2")
    comps = [(), ()]
    perm = (0, 1)
    for s in free_reduce(w):
        u0, u1, tau = _PHI[i][abs(s)]
        if s < 0:
            # wreath inverse; both elements of S_2 are self-inverse, so the
            # permutation stays and the components permute and invert
            u0, u1 = (
                tuple(-y for y in reversed((u0, u1)[tau[0]])),
                tuple(-y for y in reversed((u0, u1)[tau[1]])),
            )
        comps = [
            free_reduce(comps[x] + (u0, u1)[perm[x]]) for x in (0, 1)
        ]
        perm = tuple(tau[perm[x]] for x in (0, 1))
    return comps[0], comps[1], perm


def omega_kernel_member(
    omega: OmegaSequence, w, n: int, sys: RewriteSystem, _memo=None
) -> bool:
    """Membership in the level-n kernel of the symbol-wise splitting chain."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if _memo is None:
        _memo = {}
    w = tuple(reduce_word(w))
    key = (w, str(omega), n)
    if key in _memo:
        return _memo[key]
    if n == 0:
        result = normal_form(sys, w) == ()
    else:
        w0, w1, tau = phi_i_apply(omega.symbol(1), w)
        shifted = omega.shift()
        result = tau == (0, 1) and all(
            omega_kernel_member(shifted, c, n - 1, sys, _memo) for c in (w0, w1)
        )
    _memo[key] = result
    return result
