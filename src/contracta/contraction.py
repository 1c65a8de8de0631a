"""The word problem by a section walk; section-closure automata and nuclei.

A word is trivial iff no section state reachable from it moves the first
level (`walk`), and lies in the level-n kernel iff it fixes the first n
levels and its level-n sections are trivial (`in_kernel`); both take a
tree family's split.  A nucleus is a fixed-point iteration with one section
closure per round, whose states are classed by bisimulation (same root
permutation, pairwise bisimilar sections); the last round's closure also
gives its tables.  Both are exact within budget; blow-ups surface as
BudgetExceeded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetExceeded
from .words import free_reduce, invert, shortlex_key


@dataclass(frozen=True)
class Budget:
    max_states: int = 10_000
    max_depth: int = 64
    max_word_length: int = 4_096

    def __post_init__(self):
        if min(self.max_states, self.max_depth, self.max_word_length) <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = Budget()
NUCLEUS_ROUNDS = 64  # the catalog recursions settle in one or two


@dataclass
class SectionAutomaton:
    """Finite section closure of a set of words, with bisimulation classes.

    States are tagged by freely reduced representative words; transitions are
    total; state 0 is the empty word and carries self-loops.
    """

    states: list  # representative words
    trans: list  # per state: tuple of successor ids, one per letter
    perms: list  # per state: root permutation
    index: dict = field(repr=False)
    classes: list = None  # bisimulation class id per state


def section_closure(rec, seeds, budget: Budget = DEFAULT_BUDGET) -> SectionAutomaton:
    """Smallest section-closed automaton containing the seeds (plus identity)."""
    states, trans, perms = [], [], []
    index = {}
    queue = deque()

    def add(word, depth):  # `word` is freely reduced
        if word in index:
            return index[word]
        _check_length(word, budget)
        if len(states) >= budget.max_states:
            raise BudgetExceeded(f"section closure exceeds {budget.max_states} states")
        i = len(states)
        index[word] = i
        states.append(word)
        queue.append((i, depth))
        return i

    add((), 0)
    for s in seeds:
        add(free_reduce(s), 0)
    while queue:  # first in, first out: state i is the i-th one split
        i, depth = queue.popleft()
        if depth > budget.max_depth:
            raise BudgetExceeded(f"section closure deeper than {budget.max_depth}")
        perm, sections = rec.split(states[i])
        perms.append(perm)
        trans.append(tuple(add(sec, depth + 1) for sec in sections))
    auto = SectionAutomaton(states, trans, perms, index)
    auto.classes = _bisimulation_classes(auto)
    return auto


def _bisimulation_classes(auto: SectionAutomaton):
    """Coarsest partition refining root-permutation labels and respecting
    transitions; equal class ids = bisimilar = equal tree automorphisms."""
    n = len(auto.states)
    labels = {}
    cls = [labels.setdefault(auto.perms[i], len(labels)) for i in range(n)]
    while True:
        sigs = {}
        new = [0] * n
        for i in range(n):
            sig = (cls[i], tuple(cls[j] for j in auto.trans[i]))
            new[i] = sigs.setdefault(sig, len(sigs))
        if new == cls:
            return cls
        cls = new


def _check_length(word, budget: Budget):
    if len(word) > budget.max_word_length:
        raise BudgetExceeded(
            f"section word of length {len(word)} exceeds cap {budget.max_word_length}"
        )


def walk(start, split, budget: Budget = DEFAULT_BUDGET, memo=None) -> bool:
    """Exact triviality: no section state reachable from `start` moves the
    root; `split(state)` gives (whether it does, the state's sections).  The
    walk charges `max_states` before it adds a state and counts no depth.
    `memo` holds decided states: a trivial answer records every state
    reached, a nontrivial one its start and the state found nontrivial,
    which moves the root or has a section the memo marks nontrivial
    (g = (g_0, g_1)σ is trivial only when σ = 1 and every g_x is).  So a
    memo hit can turn a would-be BudgetExceeded into an exact answer, and
    never the reverse."""
    memo = {} if memo is None else memo
    if start in memo:
        return memo[start]
    seen = {start}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        moved, sections = split(current)
        sections = tuple(sections)  # the cover split gives them lazily, for in_kernel
        if moved or any(memo.get(state) is False for state in sections):
            memo[start] = False
            if current is not start:  # spares a second hash of a long start word
                memo[current] = False
            return False
        for state in sections:
            if state not in seen and state not in memo:  # known states are trivial
                if len(seen) >= budget.max_states:
                    raise BudgetExceeded(f"section states exceed {budget.max_states}")
                seen.add(state)
                queue.append(state)
    memo.update(dict.fromkeys(seen, True))
    return True


def in_kernel(start, split, n: int, memo, empty) -> bool:
    """Level-n kernel test: `start` fixes the first n levels and each of its
    level-n sections is trivial, which `empty(state)` decides.  `split` is
    `walk`'s; its sections are taken up to the first one outside.
    `memo` is keyed by (state, level), so one memo serves every level.
    The identity lies in every kernel, so a state `empty` accepts ends the
    descent at any level.  Any other state that fixes the root recurses a
    level deeper, so callers turn a RecursionError into BudgetExceeded."""
    if n == 0:
        return empty(start)
    key = (start, n)
    result = memo.get(key)
    if result is None:
        if empty(start):
            return True
        moved, sections = split(start)
        result = not moved
        if result:
            for state in sections:  # a loop, not all(): this is the chains' hot path
                if not in_kernel(state, split, n - 1, memo, empty):
                    result = False
                    break
        memo[key] = result
    return result


def is_trivial(rec, g, budget: Budget = DEFAULT_BUDGET, memo=None) -> bool:
    """`walk` over the freely reduced section words of g, which key `memo`."""
    identity = tuple(range(rec.degree))

    def split(word):
        perm, sections = rec.split(word)
        if perm != identity:
            return True, ()
        for sec in sections:
            _check_length(sec, budget)
        return False, sections

    word = free_reduce(g)
    _check_length(word, budget)
    return walk(word, split, budget, memo)


@dataclass
class Nucleus:
    """The finite recurrent section core of a contracting recursion."""

    rec: object
    elements: tuple  # canonical representative words, shortlex-sorted
    sections: tuple  # element x letter -> element index
    perms: tuple
    inverses: tuple  # element -> index of its inverse
    identity: int
    products: dict  # (i, j) -> k for the products that land in the nucleus

    def __len__(self):
        return len(self.elements)


def _quotient(auto: SectionAutomaton):
    """Per bisimulation class: its shortlex-least word, successors, perm."""
    ncls = max(auto.classes) + 1
    rep_state = [None] * ncls
    for i, c in enumerate(auto.classes):
        if rep_state[c] is None or shortlex_key(auto.states[i]) < shortlex_key(
            auto.states[rep_state[c]]
        ):
            rep_state[c] = i
    trans = [
        tuple(auto.classes[t] for t in auto.trans[rep_state[c]]) for c in range(ncls)
    ]
    perms = [auto.perms[rep_state[c]] for c in range(ncls)]
    reps = [auto.states[rep_state[c]] for c in range(ncls)]
    return reps, trans, perms


def _recurrent_classes(trans):
    """Classes lying on a cycle of the section graph, or reachable from one.

    Kahn's peel: a class that no remaining class enters is on no cycle and
    reachable from none, so it goes, and its successors lose an in-edge.
    What survives has an endless backward path, which in a finite graph
    runs through a cycle."""
    indegree = [0] * len(trans)
    for succs in trans:
        for t in succs:
            indegree[t] += 1
    peeled = [c for c, k in enumerate(indegree) if not k]
    for c in peeled:  # grows as the peel goes
        for t in trans[c]:
            indegree[t] -= 1
            if not indegree[t]:
                peeled.append(t)
    return set(range(len(trans))).difference(peeled)


def _product(u, v):
    """concat(u, v) for freely reduced u and v, where only the junction cancels."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def _products(cand, budget):
    """The distinct products u·v over ordered pairs of `cand` that are not in
    `cand`, in order of first occurrence: the seeds that join `cand` in a
    closure.  Raises BudgetExceeded as soon as a product is longer than
    `max_word_length`, or `cand`, its products and the identity make more than
    `max_states` words: `section_closure` rejects exactly those seeds, so this
    fails where the closure would, without first forming every pair."""
    seen = set(cand)
    seen.add(())
    out = []
    for u in cand:
        for v in cand:
            w = _product(u, v)
            _check_length(w, budget)
            if w not in seen:
                seen.add(w)
                if len(seen) > budget.max_states:
                    raise BudgetExceeded(f"section closure exceeds {budget.max_states} states")
                out.append(w)
    return out


def nucleus(rec, budget: Budget = DEFAULT_BUDGET) -> Nucleus:
    """Fixed-point iteration: closure of pairwise products, recurrent trim,
    repeat until the candidate set stabilizes (as a set of group elements).
    A nucleus that returns certifies that the recursion contracts; one that
    does not stabilize within budget is BudgetExceeded, never a "no".

    The fixed point shows that products of nucleus pairs contract into the
    nucleus N.  Its last round seeds words for N and all their pairwise
    products, and the nucleus tables are read off that round's closure.
    Every cycle of that closure's quotient graph lies in its recurrent
    classes, N, so a path outside N meets no class twice and enters N
    within as many steps as there are classes outside N.  So no depth count
    is needed: a depth-first walk of those paths could only fail on one,
    and its count would depend on the walk's order, since a memoized state
    skips it."""
    cand = {(), *((s,) for i in range(1, len(rec.gens) + 1) for s in (i, -i))}
    for _ in range(NUCLEUS_ROUNDS):
        seeds = set(cand)
        seeds.update(_products(cand, budget))
        auto = section_closure(rec, seeds, budget)
        reps, trans, perms = _quotient(auto)
        recurrent = _recurrent_classes(trans)
        new_cand = {reps[c] for c in recurrent} | {()}
        new_cand |= {invert(w) for w in new_cand}  # the inverse of a reduced word is reduced
        # the seeds are closed under inversion, so auto is too: both sets are its states
        if {auto.classes[auto.index[w]] for w in new_cand} == {
            auto.classes[auto.index[w]] for w in cand
        }:
            return _build_nucleus(rec, auto, cand, reps, trans, perms, recurrent)
        cand = new_cand
    raise BudgetExceeded(f"nucleus iteration did not stabilize in {NUCLEUS_ROUNDS} rounds")


def _build_nucleus(rec, auto, cand, reps, trans, perms, recurrent):
    """The tables, read off the fixed-point round's closure `auto`.  Its seeds
    hold u·v for all candidates u, v, and the candidates meet every recurrent
    class, so one candidate per element gives the class of every product."""
    order = sorted(recurrent, key=lambda c: shortlex_key(reps[c]))
    pos = {c: i for i, c in enumerate(order)}
    elements = tuple(reps[c] for c in order)
    sections = tuple(tuple(pos[t] for t in trans[c]) for c in order)
    nperms = tuple(perms[c] for c in order)
    identity = elements.index(())  # the shortlex-least word represents its class

    word_of = {auto.classes[auto.index[w]]: w for w in cand}
    factors = [word_of[c] for c in order]
    products = {}
    for i, u in enumerate(factors):
        for j, v in enumerate(factors):
            k = pos.get(auto.classes[auto.index[_product(u, v)]])
            if k is not None:
                products[(i, j)] = k
    inverse_of = {i: j for (i, j), k in products.items() if k == identity}
    for i, e in enumerate(elements):
        if i not in inverse_of:
            raise BudgetExceeded(f"nucleus not closed under inverses at {e}")
    inverses = tuple(inverse_of[i] for i in range(len(elements)))
    return Nucleus(rec, elements, sections, nperms, inverses, identity, products)
