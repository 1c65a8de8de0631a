"""Randomized robustness sweep over arbitrary single-letter recursions.

Random automaton presentations (sections are single generators or trivial)
define bounded tree automorphism groups; every operation must either answer
or raise BudgetExceeded, and independent oracles must agree.
"""

import random
from collections import deque

from conftest import are_equal, level_permutation
from contracta import contraction
from contracta.contraction import Budget
from contracta.errors import BudgetExceeded
from contracta.recursion import WreathRecursion
from contracta.contraction import (
    Nucleus,
    _quotient,
    _recurrent_classes,
    section_closure,
)
from contracta.words import concat, free_reduce, invert, shortlex_key

SMALL = Budget(max_states=800, max_depth=32, max_word_length=256)


def random_recursion(rng):
    degree = rng.choice([2, 3])
    ngens = rng.randint(1, 3)
    gens = tuple("xyz"[:ngens])
    sections = []
    perms = []
    for _ in range(ngens):
        row = []
        for _ in range(degree):
            pick = rng.randint(-ngens, ngens)
            row.append((pick,) if pick else ())
        sections.append(tuple(row))
        perm = list(range(degree))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    return WreathRecursion(degree, gens, tuple(sections), tuple(perms))


def random_word(rng, ngens, max_len):
    letters = [s for s in range(-ngens, ngens + 1) if s]
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def test_triviality_matches_level_action_on_random_recursions():
    rng = random.Random(71)
    checked = 0
    for _ in range(150):
        rec = random_recursion(rng)
        depth = 10 if rec.degree == 2 else 7
        for _ in range(6):
            word = random_word(rng, len(rec.gens), 8)
            try:
                verdict = contraction.is_trivial(rec, word, SMALL)
            except BudgetExceeded:
                continue
            if verdict:
                # a trivial element must act trivially on every level
                assert all(
                    level_permutation(rec, word, n) == tuple(range(rec.degree**n))
                    for n in range(1, 6)
                ), (rec, word)
            else:
                # a nontrivial element must move some vertex; all sampled
                # cases witness this within the probed depth
                assert any(
                    level_permutation(rec, word, n) != tuple(range(rec.degree**n))
                    for n in range(1, depth + 1)
                ), (rec, word)
            checked += 1
    assert checked > 500


def test_nucleus_invariants_on_random_recursions():
    rng = random.Random(72)
    computed = 0
    for _ in range(100):
        rec = random_recursion(rng)
        try:
            nuc = contraction.nucleus(rec, SMALL)
        except BudgetExceeded:
            continue
        computed += 1
        assert nuc.elements[nuc.identity] == ()
        for i in range(len(nuc)):
            assert nuc.inverses[nuc.inverses[i]] == i
            for x in range(rec.degree):
                assert 0 <= nuc.sections[i][x] < len(nuc)
        # spot equality checks via the oracle
        i = rng.randrange(len(nuc))
        x = rng.randrange(rec.degree)
        assert are_equal(
            rec,
            rec.section(nuc.elements[i], (x,)),
            nuc.elements[nuc.sections[i][x]],
            SMALL,
        )
    assert computed > 40


def test_equality_is_a_congruence_on_random_recursions():
    rng = random.Random(73)
    hits = 0
    for _ in range(80):
        rec = random_recursion(rng)
        u = random_word(rng, len(rec.gens), 6)
        v = random_word(rng, len(rec.gens), 6)
        k = random_word(rng, len(rec.gens), 6)
        try:
            if are_equal(rec, u, v, SMALL):
                hits += 1
                assert are_equal(rec, concat(u, k), concat(v, k), SMALL)
                assert are_equal(rec, invert(u), invert(v), SMALL)
        except BudgetExceeded:
            continue
    assert hits > 5


def reference_same_elements(rec, first, second, budget) -> bool:
    """Compare two word sets as group elements in a closure of their own."""
    if first == second:
        return True
    auto = section_closure(rec, list(first | second), budget)

    def classes_of(ws):
        return {auto.classes[auto.index[free_reduce(w)]] for w in ws}

    return classes_of(first) == classes_of(second)


def reference_nucleus(rec, budget):
    """`contraction.nucleus` as it was before its product seeds were checked
    against the budget: every pair is formed, only `section_closure`
    enforces the limits, and the round test and the inverse table each build
    a section closure of their own."""
    cand = {()}
    for i in range(1, len(rec.gens) + 1):
        cand.add(free_reduce((i,)))
        cand.add(free_reduce((-i,)))
    for _ in range(64):
        seeds = set(cand)
        for u in cand:
            for v in cand:
                seeds.add(concat(u, v))
        auto = section_closure(rec, seeds, budget)
        reps, trans, _ = _quotient(auto)
        recurrent = _recurrent_classes(trans)
        new_cand = {reps[c] for c in recurrent} | {()}
        new_cand |= {free_reduce(invert(w)) for w in new_cand}
        if reference_same_elements(rec, new_cand, cand, budget):
            return reference_build(rec, auto, recurrent, budget)
        cand = new_cand
    raise BudgetExceeded("nucleus iteration did not stabilize in 64 rounds")


def reference_build(rec, auto, recurrent, budget):
    reps, trans, perms = _quotient(auto)
    order = sorted(recurrent, key=lambda c: shortlex_key(reps[c]))
    pos = {c: i for i, c in enumerate(order)}
    elements = tuple(reps[c] for c in order)
    sections = tuple(tuple(pos[t] for t in trans[c]) for c in order)
    nperms = tuple(perms[c] for c in order)
    identity = pos[auto.classes[0]]

    inv_auto = section_closure(
        rec, list(elements) + [invert(e) for e in elements], budget
    )
    cls_to_pos = {}
    for i, e in enumerate(elements):
        cls_to_pos[inv_auto.classes[inv_auto.index[free_reduce(e)]]] = i
    inverses = []
    for e in elements:
        c = inv_auto.classes[inv_auto.index[free_reduce(invert(e))]]
        if c not in cls_to_pos:
            raise BudgetExceeded(f"nucleus not closed under inverses at {e}")
        inverses.append(cls_to_pos[c])

    products = {}
    prod_auto = section_closure(
        rec,
        list(elements) + [concat(u, v) for u in elements for v in elements],
        budget,
    )
    cls_to_pos = {}
    for i, e in enumerate(elements):
        cls_to_pos[prod_auto.classes[prod_auto.index[free_reduce(e)]]] = i
    for i, u in enumerate(elements):
        for j, v in enumerate(elements):
            c = prod_auto.classes[prod_auto.index[free_reduce(concat(u, v))]]
            if c in cls_to_pos:
                products[(i, j)] = cls_to_pos[c]
    return Nucleus(rec, elements, sections, nperms, tuple(inverses), identity, products)


def test_nucleus_agrees_with_all_pairs_reference():
    # the budget checks on the product seeds change when a search fails,
    # never what it answers: same nucleus, or BudgetExceeded on both sides
    budget = Budget(max_states=300, max_depth=32, max_word_length=96)
    rng = random.Random(74)
    outcomes = {"answered": 0, "budget": 0}

    def attempt(fn, rec):
        try:
            return fn(rec, budget)
        except BudgetExceeded:
            return BudgetExceeded

    for _ in range(100):
        rec = random_recursion(rng)
        expected = attempt(reference_nucleus, rec)
        assert attempt(contraction.nucleus, rec) == expected, rec
        outcomes["budget" if expected is BudgetExceeded else "answered"] += 1
    assert outcomes["answered"] > 40 and outcomes["budget"] > 20, outcomes


def reference_strongly_connected_components(trans):
    """Tarjan's algorithm, iterative; returns a list of components."""
    n = len(trans)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            succs = trans[node]
            for i in range(pi, len(succs)):
                nxt = succs[i]
                if index[nxt] is None:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def reference_recurrent_classes(trans):
    """`contraction._recurrent_classes` as it was before the in-degree
    peel: Tarjan components with a cycle, then everything they reach."""
    on_cycle = set()
    for comp in reference_strongly_connected_components(trans):
        if len(comp) > 1 or comp[0] in trans[comp[0]]:
            on_cycle.update(comp)
    reach = set(on_cycle)
    queue = deque(on_cycle)
    while queue:
        c = queue.popleft()
        for nxt in trans[c]:
            if nxt not in reach:
                reach.add(nxt)
                queue.append(nxt)
    return reach


def reference_is_contracting(rec, budget):
    """The contraction check as it was before it read its answer off the
    nucleus fixed point: a depth-first walk of the nucleus tables'
    closure, which was kept on the nucleus then and is rebuilt here."""
    nuc = contraction.nucleus(rec, budget)
    elements = nuc.elements
    seeds = [*elements, *(concat(u, v) for u in elements for v in elements)]
    auto = section_closure(rec, seeds, budget)
    nucleus_classes = {auto.classes[auto.index[free_reduce(e)]] for e in nuc.elements}
    # depth until every path from a state stays inside nucleus classes
    depth = {}

    def settle(state, stack):
        if auto.classes[state] in nucleus_classes:
            return 0
        if state in depth:
            return depth[state]
        if state in stack or len(stack) > budget.max_depth:
            raise BudgetExceeded(
                "products do not contract into the nucleus within "
                f"depth {budget.max_depth}"
            )
        stack.add(state)
        d = 1 + max(settle(t, stack) for t in auto.trans[state])
        stack.remove(state)
        depth[state] = d
        return d

    for i in range(len(auto.states)):
        settle(i, set())
    return True


def random_graph(rng):
    """Successor tuples of a random total graph: self-loops and repeated
    targets occur freely, and a DAG tail of `k` nodes, each pointing only
    to later nodes, may feed the rest."""
    n = rng.randint(1, 30)
    degree = rng.randint(1, 3)
    k = rng.choice([0, rng.randint(0, n - 1)])
    trans = []
    for c in range(n):
        low = c + 1 if c < k else k
        trans.append(tuple(rng.randint(low, n - 1) for _ in range(degree)))
    return trans


def test_peel_matches_tarjan_on_random_graphs():
    rng = random.Random(75)
    sizes = set()
    for _ in range(2000):
        trans = random_graph(rng)
        recurrent = _recurrent_classes(trans)
        assert recurrent == reference_recurrent_classes(trans), trans
        sizes.add(len(trans) - len(recurrent))
    assert 0 in sizes and max(sizes) > 10  # cores with and without tails


def _outcome(fn, rec, budget):
    try:
        return fn(rec, budget)
    except BudgetExceeded as exc:
        return str(exc)


# (seed, draw index, max_depth) where the depth-first walk gave up, though the
# nucleus fixed point was reached: a memoized state skips the walk's depth
# check, so its count depended on the walk's order, not on the recursion
DEPTH_ONLY_FAILURES = [(72, 67, 2), (72, 84, 2)]

# (seed, draw index, max_depth) where the fixed point was reached, but the
# reference's own closure for the nucleus tables ran out of depth: the nucleus
# reads its tables off the fixed-point round and builds no such closure
TABLE_CLOSURE_DEPTH_FAILURES = [
    (72, 25, 2), (72, 43, 2), (72, 47, 2), (72, 47, 3), (72, 47, 4),
    (74, 15, 2), (74, 32, 2), (74, 77, 2), (74, 4, 3), (74, 77, 3), (74, 4, 4),
]


def test_fixed_point_agrees_with_depth_walk_on_random_recursions(monkeypatch):
    # each quotient graph a nucleus round meets is also checked against
    # the Tarjan reference
    graphs = []

    def checked(trans):
        recurrent = _recurrent_classes(trans)
        assert recurrent == reference_recurrent_classes(trans), trans
        graphs.append(trans)
        return recurrent

    monkeypatch.setattr(contraction, "_recurrent_classes", checked)
    depth_only, table_depth = [], []
    for seed in (72, 74):
        rng = random.Random(seed)
        recs = [random_recursion(rng) for _ in range(100)]
        for max_depth in (2, 3, 4, 32):
            budget = Budget(max_states=300, max_depth=max_depth, max_word_length=96)
            for i, rec in enumerate(recs):
                if isinstance(_outcome(contraction.nucleus, rec, budget), str):
                    continue  # the reference makes the same failing nucleus call
                old = _outcome(reference_is_contracting, rec, budget)
                if old is True:
                    continue
                if old.startswith("section closure deeper"):
                    assert old == f"section closure deeper than {max_depth}", old
                    table_depth.append((seed, i, max_depth))
                else:
                    assert old.startswith("products do not contract"), old
                    depth_only.append((seed, i, max_depth))
    assert depth_only == DEPTH_ONLY_FAILURES
    assert table_depth == TABLE_CLOSURE_DEPTH_FAILURES
    assert len(graphs) > 500
