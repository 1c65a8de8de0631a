"""The space of marked groups: free-group balls, kernel-ball valuations, the
exp(-v) ultrametric, and convergence reports for kernel chains.

A marked group is a rank plus a decidable kernel-membership oracle on the
free group of that rank.  The valuation v(A, B) is the largest radius whose
kernel balls agree; full agreement through the examined radius is reported as
">= radius" and never as a certified infinite distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded
from .words import Word

DEFAULT_BALL_CAP = 5_000_000


@dataclass
class MarkedGroup:
    rank: int
    oracle: object  # callable Word -> bool (kernel membership)
    name: str = ""
    # optional congruence sound for the kernel: a length-nonincreasing normal
    # form whose `ball(radius)` yields its irreducible words shortest first
    congruence: object = None

    def contains(self, word) -> bool:
        return self.oracle(word)


def length_order(follow, radius: int):
    """Words of length <= radius, shortest first, generated lazily: the first
    letter ranges over `follow[None]`, each next one over `follow[previous]`."""

    def extend(w, last, depth):
        for s in follow[last]:
            if depth == 1:
                yield w + (s,)
            else:
                yield from extend(w + (s,), s, depth - 1)

    yield ()
    for r in range(1, radius + 1):
        yield from extend((), None, r)


def _free_words(k: int, radius: int):
    """Freely reduced words of length <= radius in rank k, shortest first."""
    letters = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    follow = {s: [t for t in letters if t != -s] for s in letters}
    follow[None] = letters
    return length_order(follow, radius)


def free_ball(k: int, n: int, cap: int = DEFAULT_BALL_CAP):
    """All freely reduced words of length <= n in rank k, BFS order."""
    if k < 1 or n < 0:
        raise ValueError("need rank >= 1 and radius >= 0")
    size = ball_size(k, n)
    if size > cap:
        raise BudgetExceeded(f"free ball has {size} words, cap is {cap}")
    return list(_free_words(k, n))


def ball_size(k: int, n: int) -> int:
    return 1 + sum(2 * k * (2 * k - 1) ** (i - 1) for i in range(1, n + 1))


@dataclass(frozen=True)
class Valuation:
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
    """Valuation of each member against `limit`, in one pass over the ball.

    Words come shortest first, so a member leaves the scan at its first
    disagreement with the limit, and the limit is asked once per word.  When
    every group carries the same congruence the words are its irreducible
    ones, else the free ball.  More than DEFAULT_BALL_CAP words is
    BudgetExceeded.
    """
    if any(g.rank != limit.rank for g in members):
        raise ValueError("marked groups must have equal ranks")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    congruence = limit.congruence
    if congruence is None or any(g.congruence != congruence for g in members):
        words = _free_words(limit.rank, radius)
    else:
        words = congruence.ball(radius)
    first = [None] * len(members)  # length of each member's first disagreement
    live = list(enumerate(members))
    for count, w in enumerate(words, 1):
        if not live:
            break
        if count > DEFAULT_BALL_CAP:
            raise BudgetExceeded(
                f"marked-group scan passed the ball cap of {DEFAULT_BALL_CAP} words"
            )
        if not w:
            continue
        inside = limit.contains(w)
        for i, g in live:
            if g.contains(w) != inside:
                first[i] = len(w)
        live = [(i, g) for i, g in live if first[i] is None]
    return [
        Valuation(radius, True, radius) if f is None else Valuation(f - 1, False, radius)
        for f in first
    ]


@dataclass
class ConvergenceRow:
    n: int
    valuation: Valuation


@dataclass
class ConvergenceReport:
    rows: list
    radius: int
    limit_name: str

    @property
    def values(self):
        return [row.valuation.value for row in self.rows]

    @property
    def non_decreasing(self) -> bool:
        vs = self.values
        return all(x <= y for x, y in zip(vs, vs[1:]))

    @property
    def strictly_increases(self) -> bool:
        vs = self.values
        return any(x < y for x, y in zip(vs, vs[1:]))

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
