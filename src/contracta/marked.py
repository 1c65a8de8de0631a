"""The space of marked groups: free-group balls, kernel-ball valuations, the
exp(-v) ultrametric, and convergence reports for kernel chains.

A marked group is a tuple of generators plus a decidable kernel-membership
oracle on the free group on them.  The valuation v(A, B) is the largest radius whose
kernel balls agree; full agreement through the examined radius is reported as
">= radius" and never as a certified infinite distance.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby, islice
from typing import NamedTuple

from .errors import BudgetExceeded
from .growth import Classes
from .record import Record
from .rewriting import Presentation, complete
from .words import Word, concat, invert

DEFAULT_BALL_CAP = 5_000_000
KEPT_WORDS = 1 << 16  # the longest list of words `length_order` keeps


class MarkedGroup(Record):
    """A group with its generators `gens`, as a quotient of the free group on
    them: the one record of a catalog group, a chain member and a file's
    recursion group."""

    __slots__ = ("gens", "oracle", "name", "congruence", "onto", "recursion", "facts",
                 "invariant")

    def __init__(self, gens: tuple, oracle, name: str = "", congruence=None, onto=None,
                 recursion=None, facts: dict = None, invariant=None):
        self.gens = gens
        self.oracle = oracle  # callable Word -> bool (kernel membership)
        self.name = name
        # optional `Congruence` sound for the kernel; the oracle of a group
        # that carries one is asked only about its normal forms
        self.congruence = congruence
        # optional marked group that this one maps onto, generator to
        # generator: this kernel lies in `onto`'s, so a word outside `onto`'s
        # kernel is outside this one too
        self.onto = onto
        self.recursion = recursion
        self.facts = {} if facts is None else facts
        self.invariant = invariant  # hashable prehash for ball deduplication

    @property
    def rank(self) -> int:
        return len(self.gens)

    def is_trivial(self, word) -> bool:
        """Kernel membership of any free-group word: the oracle's answer on
        its normal form when the group carries a congruence, else on it."""
        if self.congruence is None:
            return self.oracle(word)
        return self.oracle(self.congruence.normal_form(word))

    def equal(self, u, v) -> bool:
        return self.is_trivial(concat(u, invert(v)))


class Congruence(Record):
    """The congruence of a complete rewriting system, as the shared
    normalizer of marked-group scans.  It is sound for every quotient of the
    presented group, generator to generator: kernel membership is constant on
    its classes, and a shortlex normal form is never longer than its word, so
    kernel balls can be compared on the irreducible words alone.  Congruences
    are equal when their rules are."""

    __slots__ = ("rules", "_rewrite", "_follow", "_long")

    def __init__(self, sys):
        if not sys.complete:
            raise ValueError("a congruence needs a complete rewriting system")
        self.rules, self._rewrite = frozenset((r.lhs, r.rhs) for r in sys.rules), sys.rewrite
        lhs = {lhs for lhs, _ in self.rules}
        # no letter and no two neighbours of an irreducible word form a left
        # side, so its last letter decides which letters may follow; a
        # longer left side is left to `ball`'s filter
        letters = [s for g in range(1, len(sys.gens) + 1) for s in (g, -g) if (s,) not in lhs]
        self._follow = {s: [t for t in letters if (s, t) not in lhs] for s in letters}
        self._follow[None] = letters
        self._long = any(len(w) > 2 for w in lhs)

    def normal_form(self, word) -> Word:
        return self._rewrite(word)

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP):
        """The irreducible words of length <= radius in shortlex order, within
        `length_order`'s `cap` on the words of the last-letter table."""
        words = length_order(self._follow, radius, cap)
        return (w for w in words if self._rewrite(w) == w) if self._long else words


def length_order(follow, radius: int, cap: int = DEFAULT_BALL_CAP):
    """Words of length <= radius, shortest first: the first letter ranges over
    `follow[None]`, each next one over `follow[previous]`.  Each length is
    built when its first word is asked for, from the longest length kept as
    a list.  A length is kept when it is not the last and has at most
    KEPT_WORDS words, so memory stays bounded at any radius.  A ball of more
    than `cap` words is BudgetExceeded, raised before the length that passes
    the cap is built."""
    total = 0
    kept, depth = [()], 0  # the longest length kept as a list, and that length
    for r, size in zip(range(radius + 1), _level_sizes(follow)):
        total += size
        if total > cap:
            raise BudgetExceeded(f"marked-group scan passed the ball cap of {cap} words")
        level = kept
        for _ in range(depth, r):
            level = (w + (s,) for w in level for s in follow[w[-1] if w else None])
        if depth < r < radius and size <= KEPT_WORDS:
            level = kept = list(level)
            depth = r
        yield from level


def _level_sizes(follow):
    """The number of words of each length 0, 1, 2, ... in `length_order`,
    counted by last letter."""
    ends = {None: 1}
    while True:
        yield sum(ends.values())
        grown = {}
        for last, count in ends.items():
            for s in follow[last]:
                grown[s] = grown.get(s, 0) + count
        ends = grown


@functools.cache
def _free(k: int) -> Congruence:
    """The congruence of the free group of rank k: its 2k cancellation rules."""
    return Congruence(complete(Presentation(tuple(f"x{i}" for i in range(1, k + 1)), ())))


class Valuation(NamedTuple):
    """Largest agreement radius; `at_least` means agreement held through the
    whole examined radius, so the true valuation is >= value."""

    value: int
    at_least: bool
    radius: int

    @property
    def distance(self) -> float:
        return 0.0 if self.at_least else math.exp(-self.value)

    def __str__(self):
        v = f">= {self.value}" if self.at_least else str(self.value)
        return f"v = {v}, d = {self.distance:.6g}"


def valuation(a: MarkedGroup, b: MarkedGroup, radius: int) -> Valuation:
    """The one-member case of `scan`: the first radius with a membership
    disagreement ends it."""
    return scan([a], b, radius)[0]


def scan(members, limit: MarkedGroup, radius: int):
    """Valuation of each member against `limit`, one length at a time.

    The words compared are the irreducible words of the congruence that
    every group carries, or else of the free group's (`_free`); a group
    that carries the congruence scanned is handed them as they are, any
    other decides them by its `is_trivial`.  A word w of length L is
    trivial in a group exactly when w = u s with |u| = ceil(L/2),
    |s| = floor(L/2) and u equal to s^-1 there; u and s, subwords of w, lie
    in the half ball, of radius ceil(radius/2).  So a group's kernel words
    are listed from its element classes on the half ball alone (`kernels`).
    A member whose `onto` is `limit` is asked only about the limit's kernel
    words: its kernel lies in the limit's, so it agrees on every other
    word.  Any other member's kernel is listed too, and compared with the
    limit's.  A member leaves at the first length where they disagree.  A
    half ball of more than DEFAULT_BALL_CAP words, or a group with more than
    DEFAULT_BALL_CAP pairs (u, s) to try, is BudgetExceeded, raised before
    the half ball, or the length whose pairs pass the cap, is built.
    """
    if any(g.rank != limit.rank for g in members):
        raise ValueError("marked groups must have equal ranks")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if not members:
        return []
    half, cap, congruence = (radius + 1) // 2, DEFAULT_BALL_CAP, limit.congruence
    if congruence is None or any(g.congruence != congruence for g in members):
        congruence = _free(limit.rank)
    follow = congruence._follow
    rewrite = congruence._rewrite if congruence._long else None

    def flip(w):  # the irreducible word of w's inverse, as long as w
        return congruence.normal_form(invert(w))

    asks = [g.oracle if g.congruence == congruence else g.is_trivial for g in members]
    if sum(islice(_level_sizes(follow), half + 1)) > cap:
        raise BudgetExceeded(f"marked-group scan passed the ball cap of {cap} words")
    # the half ball by length; its words are closed under prefixes, so no
    # length is missing before the last one that has words
    levels = [list(run) for _, run in groupby(congruence.ball(half, cap), len)]
    levels += [[]] * (half + 1 - len(levels))

    def kernels(group):
        """The group's kernel words of each length 1, ..., radius, one list
        per length: the ball words u s with u and s^-1 in one class.  One
        `Classes` numbers the half-ball words, and so their inverses, whose
        irreducible words are half-ball words of the same length."""
        find = Classes(group.equal, _invariant(group)).find
        ends, starts = [], []  # by length: class -> its words; -> the words whose inverse is in it
        spent = 0
        for length in range(1, radius + 1):
            a, b = (length + 1) // 2, length // 2
            while len(ends) <= a:
                ball = levels[len(ends)]
                found = {w: find(w) for w in ball}
                ends.append(_by_class(ball, found.__getitem__))
                starts.append(_by_class(ball, lambda w: found[flip(w)]))
            pairs = [(us, starts[b][c]) for c, us in ends[a].items() if c in starts[b]]
            spent += sum(len(us) * len(ss) for us, ss in pairs)
            if spent > cap:
                raise BudgetExceeded(f"marked-group scan passed the cap of {cap} word pairs")
            joined = (u + s for us, ss in pairs for u in us for s in ss
                      if not s or s[0] in follow[u[-1]])
            yield [w for w in joined if rewrite(w) == w] if rewrite else list(joined)

    first = [None] * len(members)  # length of each member's first disagreement
    listed = [None if g.onto is limit else kernels(g) for g in members]
    live = range(len(members))
    for length, inside in zip(range(1, radius + 1), kernels(limit)):
        for i in live:
            if listed[i] is None:
                agree = all(map(asks[i], inside))
            else:
                agree = set(next(listed[i])) == set(inside)
            if not agree:
                first[i] = length
        live = [i for i in live if first[i] is None]
        if not live:  # before the next length, which may classify more of the half ball
            break
    return [
        Valuation(radius, True, radius) if f is None else Valuation(f - 1, False, radius)
        for f in first
    ]


def _invariant(group: MarkedGroup):
    """The group's ball invariant, else the nearest one along its `onto`
    groups: words equal in a group are equal in every group it maps onto."""
    while group.invariant is None and group.onto is not None:
        group = group.onto
    return group.invariant


def _by_class(words, number) -> dict:
    """`words` by class, in order: class number -> the words numbered so."""
    out = {}
    for w in words:
        out.setdefault(number(w), []).append(w)
    return out


class ConvergenceRow(NamedTuple):
    n: int
    valuation: Valuation


class ConvergenceReport(Record):
    __slots__ = ("rows", "radius", "limit_name")

    def __init__(self, rows: list, radius: int, limit_name: str):
        self.rows, self.radius, self.limit_name = rows, radius, limit_name

    @property
    def values(self):
        return [row.valuation.value for row in self.rows]

    @property
    def non_decreasing(self) -> bool:
        vs = self.values
        return all(x <= y for x, y in zip(vs, vs[1:]))

    def to_text(self) -> str:
        lines = [f"convergence to {self.limit_name} (radius {self.radius})"]
        lines.append(f"{'n':>4}  {'v':>6}  {'d':>12}")
        for row in self.rows:
            v = row.valuation
            shown = f">={v.value}" if v.at_least else str(v.value)
            lines.append(f"{row.n:>4}  {shown:>6}  {v.distance:>12.6g}")
        flag = "non-decreasing" if self.non_decreasing else "NOT monotone"
        return "\n".join(lines + [f"valuations {flag}"]) + "\n"

    def to_json_dict(self):
        return {
            "limit": self.limit_name,
            "radius": self.radius,
            "rows": [
                {
                    "n": row.n,
                    "v": row.valuation.value,
                    "at_least": row.valuation.at_least,
                    "d": row.valuation.distance,
                    "radius": row.valuation.radius,
                }
                for row in self.rows
            ],
            "non_decreasing": self.non_decreasing,
        }


def converge_report(groups, limit: MarkedGroup, radius: int) -> ConvergenceReport:
    """Valuation of each chain member against the limit, one row per member,
    from one `scan`.

    `groups` is an iterable of (n, MarkedGroup) pairs.
    """
    groups = list(groups)
    values = scan([g for _, g in groups], limit, radius)
    rows = [ConvergenceRow(n, v) for (n, _), v in zip(groups, values)]
    return ConvergenceReport(rows, radius, limit.name or "limit")
