"""Grigorchuk-group specifics: the substitution presentation, its finite
truncations, the half-tree section map on the index-2 subgroup, and generator
words for the distinguished subgroups used in the index computations.

Everything here is expressed over the four involutions a, b, c, d with the
Klein-four relation bcd = 1; `reduce_word` computes the canonical alternating
normal form of the free product C2 * V, which is also the base group of the
finitely presented truncations, and `C2V` is its congruence for marked-group
scans.
"""

from __future__ import annotations

from .errors import SemanticError
from .marked import Congruence
from .rewriting import Presentation, RewriteRule, RewriteSystem
from .words import Word, free_reduce, shortlex_key

GENS = ("a", "b", "c", "d")
A, B, C, D = 1, 2, 3, 4
_VTABLE = {(B, C): D, (C, B): D, (B, D): C, (D, B): C, (C, D): B, (D, C): B}

MAX_RELATOR_LENGTH = 2**16
MAX_GENERATOR_LETTERS = 2**21  # h_n_generators: n = 8 has 1,696,256


def reduce_word(word) -> Word:
    """Normal form in C2 * V: involutions, and bc=d, bd=c, cd=b.

    The result alternates a's with single letters from {b, c, d}.
    """
    out = []
    for x in word:
        x = abs(x)  # all four generators are involutions
        if out:
            top = out[-1]
            if top == x:
                out.pop()
                continue
            if top != A and x != A:  # `out` alternates: an `a` or nothing lies below
                out[-1] = _VTABLE[(top, x)]
                continue
        out.append(x)
    return tuple(out)


_SIGMA = {A: (A, C, A), B: (D,), C: (B,), D: (C,)}


def sigma_apply(word, k: int = 1) -> Word:
    """k-fold substitution a -> aca, b -> d, c -> b, d -> c, freely reduced."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    w = free_reduce(word)
    for _ in range(k):
        out = []
        for x in w:
            img = _SIGMA[abs(x)]
            out.extend(img if x > 0 else tuple(-y for y in reversed(img)))
        w = free_reduce(out)
        if len(w) > MAX_RELATOR_LENGTH:
            raise SemanticError(f"substitution iterate longer than {MAX_RELATOR_LENGTH}")
    return w


U0 = free_reduce((A, D) * 4)
V0 = free_reduce((A, D, A, C, A, C) * 4)

_relators = {("u", 0): U0, ("v", 0): V0}


def lysenok_relator(kind: str, n: int) -> Word:
    """The n-th iterated relator: sigma^n of (ad)^4 or of (adacac)^4."""
    if kind not in ("u", "v"):
        raise ValueError("relator kind must be 'u' or 'v'")
    if n < 0:
        raise ValueError("n must be >= 0")
    best = max(m for k, m in _relators if k == kind and m <= n)
    w = _relators[(kind, best)]
    for m in range(best + 1, n + 1):
        w = sigma_apply(w, 1)
        _relators[(kind, m)] = w
    return w


BASE_RELATORS = ((A, A), (B, B), (C, C), (D, D), (B, C, D))


def g_n_presentation(n: int) -> Presentation:
    """Truncated presentation: base relators plus u_0..u_n and v_0..v_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    relators = list(BASE_RELATORS)
    relators += [lysenok_relator("u", k) for k in range(n + 1)]
    relators += [lysenok_relator("v", k) for k in range(n)]
    return Presentation(GENS, tuple(relators))


# subgroup generator words
XI0_GENS = tuple(free_reduce(w) for w in [(B,), (C,), (D,), (A, B, A), (A, C, A), (A, D, A)])
B0_GENS = tuple(free_reduce(w) for w in [(B,), (A, B, A), (D, A, B, A, D), (A, D, A, B, A, D, A)])
K0_GENS = tuple(free_reduce(w) for w in [(A, B) * 2, (B, A, D, A) * 2, (A, B, A, D) * 2])

WORD_ALIASES = {
    "xi1": B0_GENS[0],
    "xi2": B0_GENS[1],
    "xi3": B0_GENS[2],
    "xi4": B0_GENS[3],
    "t": K0_GENS[0],
    "v": K0_GENS[1],
    "w": K0_GENS[2],
}

# level-1 image of the index-2 subgroup generated by b, c, d, aba, aca, ada:
# each generator stabilizes the root and this is its pair of sections
_PSI0 = {
    "b": ((A,), (C,)),
    "c": ((A,), (D,)),
    "d": ((), (B,)),
    "aba": ((C,), (A,)),
    "aca": ((D,), (A,)),
    "ada": ((B,), ()),
}


def psi0_image(tokens) -> tuple:
    """Componentwise image of a word in the six standard index-2 subgroup
    generators, each treated as a single letter; left-to-right product."""
    left, right = [], []
    for tok in tokens:
        if tok not in _PSI0:
            raise SemanticError(f"{tok!r} is not one of {sorted(_PSI0)}")
        l, r = _PSI0[tok]
        left.extend(l)
        right.extend(r)
    return reduce_word(left), reduce_word(right)


# the complete shortlex system of C2 * V, the one Knuth-Bendix finds from
# BASE_RELATORS: an inverse letter is its letter, a letter squared is 1, and
# two distinct letters of V make the third.  Its irreducible words alternate
# as `reduce_word`'s do.
C2V = Congruence(RewriteSystem(GENS, sorted(
    [RewriteRule((-x,), (x,)) for x in (A, B, C, D)]
    + [RewriteRule((x, x), ()) for x in (A, B, C, D)]
    + [RewriteRule(pair, (z,)) for pair, z in _VTABLE.items()],
    key=lambda r: shortlex_key(r.lhs)), complete=True))


def h_n_generators(n: int):
    """Generator words for the level-n half-tree subgroup chain.

    Level 0 is the rank-3 free kernel (t, v, w); level n doubles the list via
    g -> a sigma(g) a and g -> sigma(g).  The words are positive, so nothing
    cancels, and each level's letter count is known before it is built: one
    past MAX_GENERATOR_LETTERS is refused.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gens = list(K0_GENS)
    for level in range(1, n + 1):
        size = 2 * sum(len(g) + 2 * g.count(A) + 1 for g in gens)  # sigma(a) = aca
        if size > MAX_GENERATOR_LETTERS:
            raise SemanticError(
                f"level-{level} subgroup generators have {size} letters, "
                f"more than {MAX_GENERATOR_LETTERS}"
            )
        imgs = [sigma_apply(g) for g in gens]
        gens = [free_reduce((A,) + g + (A,)) for g in imgs] + imgs
    return gens
