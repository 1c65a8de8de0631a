"""Ball-size enumeration for any group with an equality oracle, plus
descriptive growth indicators.

Deduplication keeps one canonical representative per group element
(`Classes`): new candidates are bucketed by a cheap invariant (when the
group provides one) and confirmed against bucket members with the exact
equality oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BudgetExceeded
from .record import Record


class GrowthTable(Record):
    __slots__ = ("name", "ngens", "gamma")

    def __init__(self, name: str, ngens: int, gamma: list):
        self.name, self.ngens = name, ngens
        self.gamma = gamma  # gamma[n] = ball size at radius n

    def to_csv(self) -> str:
        lines = ["n,gamma"] + [f"{n},{g}" for n, g in enumerate(self.gamma)]
        return "\n".join(lines) + "\n"


class Classes:
    """The element classes of the words `find` is asked about, numbered from
    0 in the order they are found.  A word is bucketed by `invariant(word)`
    (equal elements must get equal keys; without an invariant there is one
    bucket) and confirmed with `equal(word, rep)` against the bucket's
    representatives, in the order they came."""

    __slots__ = ("reps", "_equal", "_invariant", "_buckets")

    def __init__(self, equal, invariant=None):
        self.reps = []  # class number -> the first word found in the class
        self._equal, self._invariant = equal, invariant
        self._buckets = {}  # invariant key -> class numbers

    def find(self, word) -> int:
        """The number of `word`'s class; a word equal to no representative
        opens a new class, numbered len(reps) before the call."""
        reps, equal = self.reps, self._equal
        key = self._invariant(word) if self._invariant else ()
        bucket = self._buckets.setdefault(key, [])
        for c in bucket:
            if equal(word, reps[c]):
                return c
        bucket.append(len(reps))
        reps.append(word)
        return len(reps) - 1


def ball_sizes(
    equal,
    ngens: int,
    n_max: int,
    name: str = "",
    invariant=None,
    max_elements: int = 200_000,
) -> GrowthTable:
    """Exact ball sizes gamma(0..n_max) for the group generated by `ngens`
    symmetric generators, deduplicating with the `equal` oracle.

    `invariant(word)` may supply a hashable prehash (equal elements must get
    equal keys); without one every candidate is confirmed against all known
    representatives.

    Radius 1 tries all 2 * ngens signed letters.  From radius 2 on, only the
    letters found new at radius 1 are tried, and a word is never extended by
    the one equal to the inverse of its last letter.  A skipped candidate
    is never a new element, so the representatives, found in the same order,
    are those of trying every letter.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    letters = [i for i in range(1, ngens + 1)] + [-i for i in range(1, ngens + 1)]
    classes = Classes(equal, invariant)
    find, reps = classes.find, classes.reps
    find(())
    follow = {(): letters}  # a word's last letter, as a 1-tuple -> the letters tried after it
    first = {}  # letter -> the representative it equals at radius 1
    gamma, frontier, total = [1], [()], 1
    for radius in range(n_max):
        new_reps = []
        for w in frontier:
            for s in follow[w[-1:]]:
                cand = w + (s,)
                c = find(cand)
                if not w:
                    first[s] = reps[c]
                if c < total:
                    continue
                new_reps.append(cand)
                total += 1
                if total > max_elements:
                    raise BudgetExceeded(f"ball exceeds {max_elements} elements")
        if radius == 0:
            kept = [s for s in letters if first[s] == (s,)]
            follow = {(s,): [t for t in kept if (t,) != first[-s]] for s in kept}
        frontier = new_reps
        gamma.append(total)
    return GrowthTable(name, ngens, gamma)


class GrowthProbe(NamedTuple):
    """Descriptive fit indicators; finite data cannot settle the trichotomy,
    so these are explicitly non-conclusive."""

    polynomial_degree: float  # slope of log gamma against log n
    exponential_rate: float  # slope of log gamma against n
    note: str = (
        "indicators from finite data; not a growth-type classification"
    )


def growth_probe(table: GrowthTable) -> GrowthProbe:
    n_max = len(table.gamma) - 1
    if n_max < 2:
        raise ValueError("need at least radius 2 to fit anything")
    # fit on the upper half of the range, where the asymptotics dominate
    ns = range(max(1, n_max // 2), n_max + 1)
    logg = [math.log(table.gamma[n]) for n in ns]
    degree = _slope([math.log(n) for n in ns], logg)
    rate = _slope(list(ns), logg)
    return GrowthProbe(degree, rate)


def _slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0
