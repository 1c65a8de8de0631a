"""The word problem by a section walk; section-closure automata and nuclei.

A word is trivial iff no section state reachable from it moves the first
level (`walk`), and lies in the level-n kernel iff its least level, which
one walk finds for every n, is at most n (`least_level`); both take a tree
family's split.  A nucleus is a fixed-point iteration with one section
closure per round, whose states are classed by bisimulation (same root
permutation, pairwise bisimilar sections); the last round's closure also
gives its tables.  Both are exact within budget; blow-ups surface as
BudgetExceeded.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .errors import BudgetExceeded
from .record import Record
from .words import concat, free_reduce, invert, shortlex_key


class Budget(Record):
    __slots__ = ("max_states", "max_depth", "max_word_length")

    def __init__(self, max_states: int = 10_000, max_depth: int = 64,
                 max_word_length: int = 4_096):
        if min(max_states, max_depth, max_word_length) <= 0:
            raise ValueError("budget limits must be positive")
        self.max_states, self.max_depth = max_states, max_depth
        self.max_word_length = max_word_length


DEFAULT_BUDGET = Budget()
NUCLEUS_ROUNDS = 64  # the catalog recursions settle in one or two
INF = float("inf")  # the least level of a state in no kernel


class SectionAutomaton(Record):
    """Finite section closure of a set of words, with bisimulation classes.

    States are tagged by freely reduced representative words; transitions are
    total; state 0 is the empty word and carries self-loops.  Per state,
    `trans` holds a tuple of successor ids, one per letter, `perms` the root
    permutation and `classes` the bisimulation class id; `index` maps each
    representative word to its state.
    """

    __slots__ = ("states", "trans", "perms", "index", "classes")

    def __init__(self, states: list, trans: list, perms: list, index: dict, classes: list):
        self.states, self.trans, self.perms, self.index = states, trans, perms, index
        self.classes = classes


def section_closure(rec, seeds, budget: Budget = DEFAULT_BUDGET) -> SectionAutomaton:
    """Smallest section-closed automaton containing the seeds, freely reduced
    words, and the identity."""
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
    for s in seeds:  # seeds may come lazily: a seed past a limit fails before the rest
        add(s, 0)
    while queue:  # first in, first out: state i is the i-th one split
        i, depth = queue.popleft()
        if depth > budget.max_depth:
            raise BudgetExceeded(f"section closure deeper than {budget.max_depth}")
        perm, sections = rec.split(states[i])
        perms.append(perm)
        trans.append(tuple(add(sec, depth + 1) for sec in sections))
    return SectionAutomaton(states, trans, perms, index, _bisimulation_classes(perms, trans))


def _bisimulation_classes(perms, trans):
    """Coarsest partition refining root-permutation labels and respecting
    transitions; equal class ids = bisimilar = equal tree automorphisms."""
    n = len(perms)
    labels = {}
    cls = [labels.setdefault(perms[i], len(labels)) for i in range(n)]
    while True:
        sigs = {}
        new = [0] * n
        for i in range(n):
            sig = (cls[i], tuple(cls[j] for j in trans[i]))
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
    queue = [start]
    for current in queue:  # first in, first out: the list grows as the walk goes
        moved, sections = split(current)
        sections = tuple(sections)  # the cover split gives them lazily, for least_level
        if not moved:
            for state in sections:
                if memo.get(state) is False:
                    moved = True
                    break
        if moved:
            memo[start] = False
            if current is not start:  # spares a second hash of a long start word
                memo[current] = False
            return False
        for state in sections:
            if state not in seen and state not in memo:  # known states are trivial
                if len(queue) >= budget.max_states:
                    raise BudgetExceeded(f"section states exceed {budget.max_states}")
                seen.add(state)
                queue.append(state)
    memo.update(dict.fromkeys(queue, True))
    return True


def least_level(start, split, memo, empty, budget: Budget = DEFAULT_BUDGET):
    """The least n whose level-n kernel holds `start`: 0 if `empty(start)`,
    inf if it reaches through nonempty states a cycle or a state that moves
    the root, else 1 + the largest over its sections.  `split` is `walk`'s;
    `memo` maps states to least levels, for every level of a chain.  The
    depth-first walk charges `max_states` before each split.  A path state
    reads inf in the memo until finished, so a cycle, or any inf reached,
    is the whole path's; an error takes the path out of the memo again."""
    if (level := memo.get(start)) is not None:
        return level
    if empty(start):
        return 0
    path, unread, least = [], [], []  # per path state: unread sections, 1 + largest level read
    state, known = start, len(memo)
    try:
        while True:  # enter `state`, which is nonempty and new
            if len(memo) - known >= budget.max_states:
                raise BudgetExceeded(f"section states exceed {budget.max_states}")
            memo[state] = INF
            path.append(state)
            moved, sections = split(state)
            if moved:
                return INF
            unread.append(iter(sections))
            least.append(1)
            while True:
                for state in unread[-1]:
                    level = memo.get(state)
                    if level is None:
                        if not empty(state):
                            break  # enter it
                    elif level >= least[-1]:
                        if level == INF:
                            return INF
                        least[-1] = level + 1
                else:  # every section is read: the top state is finished
                    unread.pop()
                    level = memo[path.pop()] = least.pop()
                    if not path:
                        return level
                    least[-1] = max(least[-1], level + 1)
                    continue
                break
    except BaseException:
        for state in path:
            del memo[state]
        raise


def portrait(split, depth: int):
    """The map state -> the number of its action on the first `depth` levels:
    equal numbers, equal actions.  That action is the first item of
    `split(state)`, the root permutation or flip, blocked over its sections'
    actions one level down, so a number interns (level, that item, the
    sections' numbers one level down).  The numbers of states below `depth`
    are kept, so each (state, level) under it is split once; the state asked
    about is split on each ask, as a ball asks each word once."""
    numbers = {}  # (level, root item, sections' numbers) -> number
    known = [{} for _ in range(depth)]  # level below depth -> state -> number

    def number(state, level):
        root, sections = split(state)
        if level > 1:
            below = known[level - 1]
            sections = tuple([below[s] if s in below else below.setdefault(s, number(s, level - 1))
                              for s in sections])
        else:
            sections = ()
        return numbers.setdefault((level, root, sections), len(numbers))

    return lambda state: number(state, depth)


def is_trivial(rec, g, budget: Budget = DEFAULT_BUDGET, memo=None) -> bool:
    """`walk` over the freely reduced section words of g, which key `memo`."""
    def split(word):
        sections = rec.fixed_sections(word)
        if sections is None:
            return True, ()
        for sec in sections:
            _check_length(sec, budget)
        return False, sections

    word = free_reduce(g)
    _check_length(word, budget)
    return walk(word, split, budget, memo)


class Nucleus(Record):
    """The finite recurrent section core of a contracting recursion.

    `elements` are canonical representative words, shortlex-sorted; the
    tables map an element and a letter to its section's index (`sections`),
    an element to its inverse's index (`inverses`), and a pair (i, j) to the
    index of its product, for the products that land in the nucleus
    (`products`)."""

    __slots__ = ("rec", "elements", "sections", "perms", "inverses", "identity", "products")

    def __init__(self, rec, elements: tuple, sections: tuple, perms: tuple,
                 inverses: tuple, identity: int, products: dict):
        self.rec, self.elements, self.sections, self.perms = rec, elements, sections, perms
        self.inverses, self.identity, self.products = inverses, identity, products

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
        auto = section_closure(rec, chain(cand, _pairwise_products(cand)), budget)
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


def _pairwise_products(words):
    """u·v for every u, then every v, in the freely reduced `words`: the
    words, in order, of `concat(u, v) for u in words for v in words`.
    `concat` cancels a letter per step; a junction that cancels nothing, or
    the whole shorter factor (v = u^-1 w or u = w v^-1, giving w), is sliced
    instead.  Half the pairs of a fuzz round's powers x^k cancel so."""
    words = list(words)
    own = dict(zip(words, words))  # a round's candidates are closed under inversion:
    inverses = [own.get(w, w) for w in map(invert, words)]  # keep theirs, not copies
    for u, u_inv in zip(words, inverses):
        n = len(u)
        last = -u[-1] if u else 0  # no letter is 0
        for v, v_inv in zip(words, inverses):
            if not v or v[0] != last:
                yield u + v
            elif v[:n] == u_inv:
                yield v[n:]
            elif u[n - len(v):] == v_inv:  # a shorter slice when v is the longer
                yield u[: n - len(v)]
            else:
                yield concat(u, v)


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
    for n, w in enumerate(_pairwise_products(factors)):
        k = pos.get(auto.classes[auto.index[w]])
        if k is not None:
            products[divmod(n, len(factors))] = k
    inverse_of = {i: j for (i, j), k in products.items() if k == identity}
    for i, e in enumerate(elements):
        if i not in inverse_of:
            raise BudgetExceeded(f"nucleus not closed under inverses at {e}")
    inverses = tuple(inverse_of[i] for i in range(len(elements)))
    return Nucleus(rec, elements, sections, nperms, inverses, identity, products)
