"""Ball-size enumeration for any group with an equality oracle, plus
descriptive growth indicators.

Deduplication keeps one canonical representative per group element: new
candidates are bucketed by a cheap invariant (when the group provides one)
and confirmed against bucket members with the exact equality oracle.
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
    classes = {invariant(()) if invariant else (): [()]}  # invariant key -> representatives
    follow = {(): letters}  # a word's last letter, as a 1-tuple -> the letters tried after it
    first = {}  # letter -> the representative it equals at radius 1
    gamma, frontier, total = [1], [()], 1
    for radius in range(n_max):
        new_reps = []
        for w in frontier:
            for s in follow[w[-1:]]:
                cand = w + (s,)
                key = invariant(cand) if invariant else ()
                bucket = classes.setdefault(key, [])
                known = next((k for k in bucket if equal(cand, k)), None)
                if not w:
                    first[s] = cand if known is None else known
                if known is not None:
                    continue
                bucket.append(cand)
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
