"""Finitely presented covers built on the nucleus, and the kernel chain.

`universal_cover` turns a computed nucleus into a presentation whose
generators are nucleus elements and whose relators are all trivial words of
length <= 3, together with the induced wreath recursion on those generators.
`kernel_member` decides membership in the level-n kernel of the induced
recursion, which is exactly what defines the finitely presented quotients
approximating the covered group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import not_

from . import contraction, rewriting
from .contraction import Budget, DEFAULT_BUDGET, Nucleus
from .errors import BudgetExceeded
from .recursion import WreathRecursion, perm_identity
from .rewriting import Presentation, RewriteSystem, normal_form
from .words import Word, concat, format_word, free_reduce, invert, shortlex_key


@dataclass
class PruneEntry:
    element: Word  # representative word in the base group's generators
    reason: str  # "identity" | "inverse of <gen>" | "product <u>.<v>"


@dataclass
class CoverPresentation:
    nucleus: Nucleus
    presentation: Presentation
    gen_to_nucleus: dict  # cover generator name -> base-group word
    recursion: WreathRecursion  # induced recursion on the cover generators
    pruning: list  # PruneEntry records
    element_words: tuple = field(default=())  # nucleus index -> cover word

    def to_base(self, word) -> Word:
        """Substitute nucleus representatives for cover letters."""
        out = ()
        for x in word:
            rep = self.gen_to_nucleus[self.presentation.gens[abs(x) - 1]]
            out = concat(out, rep if x > 0 else invert(rep))
        return out


def _fresh_names(nucleus, kept, base_gens):
    names = {}
    counter = 0
    for pos, idx in enumerate(kept):
        rep = nucleus.elements[idx]
        if len(rep) == 1 and rep[0] > 0:
            names[idx] = base_gens[rep[0] - 1]
        else:
            while True:
                cand = f"s{counter}"
                counter += 1
                if cand not in base_gens and cand not in names.values():
                    break
            names[idx] = cand
    return names


def universal_cover(
    nucleus: Nucleus, prune: bool = False, budget: Budget = DEFAULT_BUDGET
) -> CoverPresentation:
    """Presentation on the nucleus: one generator per element (identity and
    one of each inverse pair always dropped; products of two others dropped
    when `prune` is set), relators = every trivial word of length <= 3, read
    off the nucleus product table (so `budget` is not spent)."""
    rec = nucleus.rec
    n = len(nucleus)
    identity = nucleus.identity

    kept = []
    inverse_partner_of = {}
    for i in range(n):
        if i == identity:
            continue
        j = nucleus.inverses[i]
        if j != i and j < i:
            inverse_partner_of[i] = j
            continue
        kept.append(i)

    pruning = []
    expressions = {}
    if prune:
        changed = True
        while changed:
            changed = False
            for k in sorted(kept, key=lambda i: shortlex_key(nucleus.elements[i]), reverse=True):
                available = []
                for m in kept:
                    if m == k:
                        continue
                    available.append(m)
                    if nucleus.inverses[m] != m:
                        available.append(nucleus.inverses[m])
                expr = next(
                    (
                        (i, j)
                        for i, j in product(available, repeat=2)
                        if nucleus.products.get((i, j)) == k
                    ),
                    None,
                )
                if expr is not None:
                    kept.remove(k)
                    expressions[k] = expr
                    changed = True
                    break

    names = _fresh_names(nucleus, kept, rec.gens)
    gens = tuple(names[idx] for idx in kept)
    letter = {idx: pos + 1 for pos, idx in enumerate(kept)}

    def element_word(idx, _seen=()):
        if idx in letter:
            return (letter[idx],)
        if idx == identity:
            return ()
        if idx in expressions:
            i, j = expressions[idx]
            return concat(element_word(idx=i), element_word(idx=j))
        partner = nucleus.inverses[idx]
        if idx in _seen:
            raise BudgetExceeded("cyclic pruning record")
        return invert(element_word(partner, _seen + (idx,)))

    element_words = tuple(element_word(i) for i in range(n))

    for i in range(n):
        if i == identity:
            pruning.append(PruneEntry(nucleus.elements[i], "identity"))
        elif i in inverse_partner_of:
            partner = inverse_partner_of[i]
            reason = (
                f"inverse of {names[partner]}"
                if partner in names
                else "inverse of a pruned element"
            )
            pruning.append(PruneEntry(nucleus.elements[i], reason))
        elif i in expressions:
            u, v = expressions[i]
            factors = " . ".join(
                format_word(nucleus.elements[m], rec.gens) for m in (u, v)
            )
            pruning.append(PruneEntry(nucleus.elements[i], f"product {factors}"))

    # relators: all trivial signed words of length <= 3 over the kept letters,
    # first letter positive, deduplicated up to rotation and inversion
    element_of = {}  # signed letter -> nucleus index
    for idx in kept:
        element_of[letter[idx]] = idx
        if nucleus.inverses[idx] != idx:
            element_of[-letter[idx]] = nucleus.inverses[idx]
    letters = list(element_of)

    def dedup_key(w):
        # inverse letters of self-inverse elements fold back to positive
        inverse = tuple(-x if -x in element_of else x for x in reversed(w))
        variants = [v[r:] + v[:r] for v in (w, inverse) for r in range(len(v))]
        return min(variants, key=shortlex_key)

    def trivial(w):
        # x_1...x_k is trivial iff x_1...x_{k-1} is the inverse of x_k, a
        # nucleus element, and `products` records every pair landing there
        *head, last = (element_of[x] for x in w)
        prefix = identity
        for e in head:
            prefix = nucleus.products.get((prefix, e))
        return prefix == nucleus.inverses[last]

    relators = []
    seen_keys = set()
    for length in (1, 2, 3):
        for w in product(letters, repeat=length):
            if w[0] < 0 or len(free_reduce(w)) != length or not trivial(w):
                continue
            key = dedup_key(w)
            if key not in seen_keys:
                seen_keys.add(key)
                relators.append(w)

    presentation = Presentation(gens, tuple(relators))
    sections = tuple(
        tuple(element_words[nucleus.sections[idx][x]] for x in range(rec.degree))
        for idx in kept
    )
    perms = tuple(nucleus.perms[idx] for idx in kept)
    induced = WreathRecursion(rec.degree, gens, sections, perms)
    gen_to_nucleus = {names[idx]: nucleus.elements[idx] for idx in kept}
    return CoverPresentation(
        nucleus, presentation, gen_to_nucleus, induced, pruning, element_words
    )


@dataclass
class StandardCoverResult:
    extra_relators: list  # E: words over cover generators, normal forms
    witnesses: dict  # (letter, nucleus index) -> cover word h with h_x = n_i
    exact: dict  # (letter, nucleus index) -> True when w(x, n) is trivial

    @property
    def already_self_replicating(self) -> bool:
        return not self.extra_relators


def standard_cover(
    cover: CoverPresentation,
    budget: Budget = DEFAULT_BUDGET,
    search_radius: int = 6,
    sys: RewriteSystem = None,
) -> StandardCoverResult:
    """Choose self-replication witnesses h(x, n) by shortest-word BFS (shortlex
    tie-break); the extra relators are the section closures of the mismatch
    words w(x, n), one walk memo holding them all.

    Witnesses whose section equals the target generator in the cover's own
    rewriting normal form make w(x, n) trivial; when that happens for every
    pair, the extra relator set is empty and the standard cover coincides
    with the universal one.
    """
    if sys is None:
        sys = rewriting.complete(cover.presentation)
    if not sys.complete:
        raise BudgetExceeded("cover rewriting system did not complete")
    rec = cover.recursion
    nucleus = cover.nucleus
    d = rec.degree

    targets = {
        (x, i): normal_form(sys, cover.element_words[i])
        for x in range(d)
        for i in range(len(nucleus))
    }
    witnesses, exact = {}, {}

    # BFS over cover elements by rewriting normal form, shortlex order
    frontier = [()]
    seen = {()}
    letters = [i for i in range(1, len(rec.gens) + 1)]
    letters += [-i for i in letters]
    radius = 0
    while frontier and radius <= search_radius:
        for h in sorted(frontier, key=shortlex_key):
            tau, sections = rec.split(h)
            for x in range(d):
                if tau[x] != x:
                    continue
                sec = normal_form(sys, sections[x])
                for i in range(len(nucleus)):
                    if (x, i) in witnesses:
                        continue
                    if sec == targets[(x, i)]:
                        witnesses[(x, i)] = h
                        exact[(x, i)] = True
        if len(witnesses) == len(targets):
            break  # `seen` feeds only the fallback, which has nothing to do
        nxt = []
        for h in frontier:
            for s in letters:
                w = normal_form(sys, h + (s,))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        radius += 1

    # fallback: pi-level witnesses for pairs without an exact one.  Each
    # trivial walk picks a witness and marks the section closure of its
    # w(x, n) trivial in `memo`, so those states are the extra relators.
    memo = {}
    missing = [key for key in targets if key not in witnesses]
    if missing:
        split = section_split(cover, sys, budget)
        elements = sorted(seen, key=shortlex_key)
        for x, i in missing:
            for h in elements:
                tau, sections = rec.split(h)
                if tau[x] != x:
                    continue
                w = normal_form(sys, concat(sections[x], invert(cover.element_words[i])))
                if contraction.walk(w, split, budget, memo):
                    witnesses[(x, i)] = h
                    exact[(x, i)] = False
                    break
            else:
                raise BudgetExceeded(
                    f"no self-replication witness for letter {x}, "
                    f"element {nucleus.elements[i]} within radius {search_radius}"
                )
    extra = [state for state, trivial in memo.items() if trivial and state]
    return StandardCoverResult(sorted(extra, key=shortlex_key), witnesses, exact)


def section_split(cover: CoverPresentation, sys: RewriteSystem, budget: Budget = DEFAULT_BUDGET):
    """The split that `walk` and `in_kernel` take over cover words in
    rewriting normal form: whether a word moves the root, and the normal
    forms of its first-level sections, each charged `max_word_length` and
    rewritten only when it is reached."""
    rec = cover.recursion
    identity = perm_identity(rec.degree)

    def section_state(sec):
        contraction._check_length(sec, budget)
        return normal_form(sys, sec)

    def split(word):
        perm, sections = rec.split(word)
        if perm != identity:
            return True, ()
        return False, map(section_state, sections)

    return split


def kernel_member(
    cover: CoverPresentation, sys: RewriteSystem, w, n: int, _memo=None
) -> bool:
    """Membership in the level-n kernel: the level-n iterate of w has trivial
    permutation and all its sections rewrite to the empty word."""
    if not sys.complete:
        raise BudgetExceeded("kernel membership needs a complete rewrite system")
    if n < 0:
        raise ValueError("level must be >= 0")
    memo = {} if _memo is None else _memo
    start = normal_form(sys, free_reduce(w))
    try:
        return contraction.in_kernel(start, section_split(cover, sys), n, memo, not_)
    except RecursionError:
        raise BudgetExceeded(f"level-{n} kernel test exceeds the recursion limit") from None


def kernel_chain_profile(cover: CoverPresentation, sys, w, n_max: int):
    """Least level at which w enters the kernel chain, or None up to n_max."""
    memo = {}
    for n in range(n_max + 1):
        if kernel_member(cover, sys, w, n, memo):
            return n
    return None
