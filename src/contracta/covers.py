"""Finitely presented covers built on the nucleus, and the kernel chain.

`universal_cover` turns a computed nucleus into a presentation whose
generators are nucleus elements and whose relators are all trivial words of
length <= 3, together with the induced wreath recursion on those generators.
`kernel_oracle` decides membership in the level-n kernel of the induced
recursion, which is exactly what defines the finitely presented quotients
approximating the covered group.
"""

from __future__ import annotations

from itertools import count, product
from operator import not_
from typing import NamedTuple

from . import contraction, marked, rewriting
from .contraction import Budget, DEFAULT_BUDGET, Nucleus
from .errors import BudgetExceeded
from .record import Record
from .recursion import WreathRecursion
from .rewriting import Presentation, RewriteSystem, normal_form
from .words import Word, concat, format_word, free_reduce, invert, shortlex_key


class PruneEntry(NamedTuple):
    element: Word  # representative word in the base group's generators
    reason: str  # "identity" | "inverse of <gen>" | "product <u>.<v>"


class CoverPresentation(Record):
    """`gen_to_nucleus` maps a cover generator's name to its base-group word,
    `recursion` is the induced recursion on the cover generators, `pruning`
    holds PruneEntry records, and `element_words` maps a nucleus index to a
    cover word."""

    __slots__ = ("nucleus", "presentation", "gen_to_nucleus", "recursion", "pruning",
                 "element_words")

    def __init__(self, nucleus: Nucleus, presentation: Presentation, gen_to_nucleus: dict,
                 recursion: WreathRecursion, pruning: list, element_words: tuple = ()):
        self.nucleus, self.presentation, self.gen_to_nucleus = nucleus, presentation, gen_to_nucleus
        self.recursion, self.pruning, self.element_words = recursion, pruning, element_words

    def to_base(self, word) -> Word:
        """Substitute nucleus representatives for cover letters."""
        out = ()
        for x in word:
            rep = self.gen_to_nucleus[self.presentation.gens[abs(x) - 1]]
            out = concat(out, rep if x > 0 else invert(rep))
        return out


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

    # one of each inverse pair, the one listed first, and never the identity
    kept = [i for i in range(n) if i != identity and nucleus.inverses[i] >= i]

    # one pass, longest first: a drop never makes a kept element droppable
    expressions = {}
    longest_first = sorted(kept, key=lambda i: shortlex_key(nucleus.elements[i]), reverse=True)
    for k in longest_first if prune else ():
        available = []
        for m in kept:
            if m != k:
                available.append(m)
                if nucleus.inverses[m] != m:
                    available.append(nucleus.inverses[m])
        expr = next(
            (e for e in product(available, repeat=2) if nucleus.products.get(e) == k),
            None,
        )
        if expr is not None:
            kept.remove(k)
            expressions[k] = expr

    # a generator letter keeps its name; a fresh s<k> can only meet a base name
    names, fresh = {}, (f"s{k}" for k in count())
    for idx in kept:
        rep = nucleus.elements[idx]
        if len(rep) == 1 and rep[0] > 0:
            names[idx] = rec.gens[rep[0] - 1]
        else:
            names[idx] = next(name for name in fresh if name not in rec.gens)
    gens = tuple(names[idx] for idx in kept)
    letter = {idx: pos + 1 for pos, idx in enumerate(kept)}

    def element_word(idx):
        # an expression names kept elements or their inverses, whose partners
        # are kept letters or expressions, so the recursion ends
        if idx in letter:
            return (letter[idx],)
        if idx == identity:
            return ()
        if idx in expressions:
            i, j = expressions[idx]
            return concat(element_word(i), element_word(j))
        return invert(element_word(nucleus.inverses[idx]))

    element_words = tuple(element_word(i) for i in range(n))

    pruning = []
    for i, element in enumerate(nucleus.elements):
        partner = nucleus.inverses[i]
        if i == identity:
            reason = "identity"
        elif partner < i:
            name = names.get(partner)
            reason = f"inverse of {name}" if name else "inverse of a pruned element"
        elif i in expressions:
            factors = (format_word(nucleus.elements[m], rec.gens) for m in expressions[i])
            reason = "product " + " . ".join(factors)
        else:
            continue
        pruning.append(PruneEntry(element, reason))

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


class StandardCoverResult(Record):
    __slots__ = ("extra_relators", "witnesses", "exact")

    def __init__(self, extra_relators: list, witnesses: dict, exact: dict):
        self.extra_relators = extra_relators  # E: words over cover generators, normal forms
        self.witnesses = witnesses  # (letter, nucleus index) -> cover word h with h_x = n_i
        self.exact = exact  # (letter, nucleus index) -> True when w(x, n) is trivial

    @property
    def already_self_replicating(self) -> bool:
        return not self.extra_relators


def standard_cover(
    cover: CoverPresentation,
    budget: Budget = DEFAULT_BUDGET,
    search_radius: int = 6,
    sys: RewriteSystem = None,
) -> StandardCoverResult:
    """Choose self-replication witnesses h(x, n) among the cover's elements,
    the irreducible words of `Congruence(sys).ball`, in shortlex order; the
    extra relators are the section closures of the mismatch words w(x, n),
    one walk memo holding them all.

    Witnesses whose section equals the target generator in the cover's own
    rewriting normal form make w(x, n) trivial; when that happens for every
    pair, the extra relator set is empty and the standard cover coincides
    with the universal one.  A pair with no such witness within
    `search_radius` falls back to the elements of length <= search_radius + 1,
    the length its error names.  Each ball is within the scans' cap,
    `marked.DEFAULT_BALL_CAP`, charged before each length is built.
    """
    if search_radius < 0:
        raise ValueError("radius must be >= 0")
    if sys is None:
        sys = rewriting.complete(cover.presentation)
    if not sys.complete:
        raise BudgetExceeded("cover rewriting system did not complete")
    rec = cover.recursion
    nucleus = cover.nucleus
    d = rec.degree
    ball, cap = marked.Congruence(sys).ball, marked.DEFAULT_BALL_CAP

    # distinct nucleus elements are distinct in G, onto which the cover maps,
    # so their normal forms are too: one lookup finds a section's element
    target = {normal_form(sys, w): i for i, w in enumerate(cover.element_words)}
    pairs = d * len(nucleus)
    witnesses, exact = {}, {}
    for h in ball(search_radius, cap):
        tau, sections = rec.split(h)
        for x in range(d):
            if tau[x] != x:
                continue
            i = target.get(normal_form(sys, sections[x]))
            if i is not None and (x, i) not in witnesses:
                witnesses[(x, i)] = h
                exact[(x, i)] = True
        if len(witnesses) == pairs:
            break

    # fallback: pi-level witnesses for pairs without an exact one.  Each
    # trivial walk picks a witness and marks the section closure of its
    # w(x, n) trivial in `memo`, so those states are the extra relators.
    memo = {}
    missing = [(x, i) for x in range(d) for i in range(len(nucleus))
               if (x, i) not in witnesses]
    if missing:
        split = section_split(cover, sys, budget)
        elements = list(ball(search_radius + 1, cap))
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
                    f"element {nucleus.elements[i]} within length {search_radius + 1}"
                )
    extra = [state for state, trivial in memo.items() if trivial and state]
    return StandardCoverResult(sorted(extra, key=shortlex_key), witnesses, exact)


def section_split(cover: CoverPresentation, sys: RewriteSystem, budget: Budget = DEFAULT_BUDGET):
    """The split that `walk` and `least_level` take over cover words in
    rewriting normal form: whether a word moves the root, and the normal
    forms of its first-level sections, each charged `max_word_length` and
    rewritten only when it is reached."""
    rec = cover.recursion

    def section_state(sec):
        contraction._check_length(sec, budget)
        return normal_form(sys, sec)

    def split(word):
        sections = rec.fixed_sections(word)
        if sections is None:
            return True, ()
        return False, map(section_state, sections)

    return split


def kernel_oracle(cover: CoverPresentation, sys: RewriteSystem, n: int, memo):
    """Membership of a word in rewriting normal form in the level-n kernel:
    `least_level` from the word itself, over `section_split`, is at most n,
    with `memo` holding least levels by word."""
    if not sys.complete:
        raise BudgetExceeded("kernel membership needs a complete rewrite system")
    split = section_split(cover, sys)
    return lambda word: contraction.least_level(word, split, memo, not_) <= n
