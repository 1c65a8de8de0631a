"""Independent answer oracles for the benchmark.

Nothing here imports `contracta`.  Group definitions are read straight from
the `.rec` files, and the tree action is rebuilt from the wreath recursion:
a generator with root permutation tau and sections (g_0, ..., g_{d-1}) sends
the vertex x v to (x tau)(v g_x).  Level-n permutations of words are then
products of generator permutations, which gives

- a certificate of nontriviality (a moved vertex),
- a necessary condition for triviality (identity on the probed level),
- ball sizes of the image group, which equal the true ball sizes whenever
  the probed level separates the ball.

Words use the `contracta.words` encoding: letter +(i+1) is generator i and
-(i+1) its inverse.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_GEN_RE = re.compile(
    r"gen\s+([A-Za-z][A-Za-z0-9_]*)\s*=\s*perm\(([^)]*)\)\s*sections\(([^)]*)\)\s*$"
)


@dataclass(frozen=True)
class RecursionData:
    degree: int
    gens: tuple
    perms: tuple  # per generator: image of each letter
    sections: tuple  # per generator: one word per letter
    facts: dict


def parse_word(text: str, gens) -> tuple:
    """Space-separated tokens `name` or `name^-1`; `1` is the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        letter = gens.index(name) + 1
        out.append(-letter if exp == "-1" else letter)
    return free_reduce(out)


def parse_rec(text: str) -> RecursionData:
    degree = None
    raw = []
    facts = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#!"):
            key, _, value = line[2:].partition(":")
            facts[key.strip()] = json.loads(value)
            continue
        line = line.split("#", 1)[0].strip()
        if line.startswith("alphabet"):
            degree = int(line.split()[1])
        elif line.startswith("gen"):
            raw.append(_GEN_RE.match(line).groups())
    gens = tuple(name for name, _, _ in raw)
    perms = tuple(tuple(int(x) for x in perm.split()) for _, perm, _ in raw)
    sections = tuple(
        tuple(parse_word(s, gens) for s in secs.split(",")) for _, _, secs in raw
    )
    return RecursionData(degree, gens, perms, sections, facts)


def free_reduce(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(word) -> tuple:
    return tuple(-x for x in reversed(word))


def _inverse_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class TreeAction:
    """Permutations of the levels 0..depth of the tree, for every letter."""

    def __init__(self, degree, perms, sections, depth):
        self.degree = degree
        self.depth = depth
        ngens = len(perms)
        # levels[k][letter] = permutation of the d^k vertices of level k
        self.levels = [{s: (0,) for s in _letters(ngens)}]
        for k in range(1, depth + 1):
            block = degree ** (k - 1)
            level = {}
            for g in range(ngens):
                out = [0] * (degree * block)
                for x in range(degree):
                    sub = self._perm(sections[g][x], k - 1)
                    base, image = x * block, perms[g][x] * block
                    for j, pj in enumerate(sub):
                        out[base + j] = image + pj
                level[g + 1] = tuple(out)
                level[-(g + 1)] = _inverse_perm(out)
            self.levels.append(level)

    def _perm(self, word, k):
        p = tuple(range(self.degree**k))
        level = self.levels[k]
        for s in word:
            q = level[s]
            p = tuple(q[v] for v in p)
        return p

    def perm(self, word, k=None) -> tuple:
        """Level-k permutation (default: deepest level) of a word; entry v is
        the image of vertex v, with the first letter most significant."""
        return self._perm(word, self.depth if k is None else k)

    def is_identity(self, word, k=None) -> bool:
        p = self.perm(word, k)
        return all(i == v for i, v in enumerate(p))

    def section_perm(self, word, x, k) -> tuple:
        """Level-k permutation of the section of `word` at the letter x, read
        off the level-(k+1) permutation of the word itself."""
        p = self.perm(word, k + 1)
        block = self.degree**k
        base = p[x * block] // block * block
        return tuple(p[x * block + j] - base for j in range(block))

    def ball_sizes(self, n_max, k=None) -> list:
        """Sizes of the balls of radius 0..n_max of the level-k image group."""
        level = self.levels[self.depth if k is None else k]
        gens = list(level.values())
        start = tuple(range(len(gens[0])))
        seen = {start}
        frontier = [start]
        gamma = [1]
        for _ in range(n_max):
            nxt = []
            for p in frontier:
                for q in gens:
                    r = tuple(q[v] for v in p)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
            gamma.append(len(seen))
        return gamma


def _letters(ngens):
    return [s for g in range(1, ngens + 1) for s in (g, -g)]


def action_for(data: RecursionData, depth: int) -> TreeAction:
    return TreeAction(data.degree, data.perms, data.sections, depth)


# -- the first Grigorchuk group's iterated relators ---------------------------

_A, _B, _C, _D = 1, 2, 3, 4
_SIGMA = {_A: (_A, _C, _A), _B: (_D,), _C: (_B,), _D: (_C,)}


def sigma(word) -> tuple:
    """The substitution a -> aca, b -> d, c -> b, d -> c (all involutions)."""
    out = []
    for x in word:
        out.extend(_SIGMA[abs(x)])
    return free_reduce(out)


def lysenok(kind: str, n: int) -> tuple:
    """sigma^n of (ad)^4 (kind u) or of (adacac)^4 (kind v), over a, b, c, d."""
    w = free_reduce((_A, _D) * 4 if kind == "u" else (_A, _D, _A, _C, _A, _C) * 4)
    for _ in range(n):
        w = sigma(w)
    return w


def f2_ball_sizes(n_max: int) -> list:
    """Ball sizes of the free group of rank 2: 2 * 3^n - 1."""
    return [2 * 3**n - 1 for n in range(n_max + 1)]
