import random

import pytest

from conftest import are_equal, random_word
from contracta import catalog, contraction
from contracta.contraction import (
    Budget,
    Nucleus,
    _products,
    _quotient,
    _recurrent_classes,
    is_trivial,
    nucleus,
    section_closure,
)
from contracta.covers import standard_cover, universal_cover
from contracta.errors import BudgetExceeded
from contracta.recursion import WreathRecursion, parse_recursion
from contracta.words import concat, free_reduce, invert, parse_word, shortlex_key
from test_fuzz import SMALL, random_recursion
from test_recursion import kernel_recursions


def w(rec, text):
    return parse_word(text, rec.gens)


# a genuinely expanding recursion: sections of g grow without bound
EXPANDING = parse_recursion("alphabet 2\ngen g = perm(1 0) sections(g g, g)\n")

# the flip-on-every-level involution: g = (g, g) with a swap at the root
LEVEL_FLIP = parse_recursion("alphabet 2\ngen a = perm(1 0) sections(a, a)\n")

# the free-abelian odometer: contracting with three-element nucleus
ODOMETER = parse_recursion("alphabet 2\ngen a = perm(1 0) sections(1, a)\n")


def test_budget_limits_must_be_positive():
    with pytest.raises(ValueError):
        Budget(max_states=0)
    with pytest.raises(ValueError):
        Budget(max_depth=-1)


class TestClosure:
    def test_grigorchuk_generators_close_to_five_states(self, grig):
        auto = section_closure(grig.recursion, [w(grig.recursion, g) for g in "abcd"])
        # five states up to bisimulation: 1, a, b, c, d
        assert len(set(auto.classes)) == 5

    def test_identity_seed(self, grig):
        auto = section_closure(grig.recursion, [()])
        assert len(auto.states) == 1

    def test_expanding_recursion_exceeds_budget(self):
        with pytest.raises(BudgetExceeded):
            section_closure(EXPANDING, [(1,)], Budget(max_states=200))

    def test_budget_word_length_cap(self):
        with pytest.raises(BudgetExceeded):
            section_closure(EXPANDING, [(1,)], Budget(max_word_length=16))


class TestEquality:
    def test_b_equals_dc(self, grig):
        rec = grig.recursion
        assert are_equal(rec, w(rec, "b"), w(rec, "d c"))

    def test_reflexive(self, grig, rng):
        rec = grig.recursion
        for _ in range(20):
            u = random_word(rng, 4, 10)
            assert are_equal(rec, u, u)

    def test_ab_differs_from_ba(self, grig):
        rec = grig.recursion
        assert not are_equal(rec, w(rec, "a b"), w(rec, "b a"))
        # independent check: the level-2 permutations already differ
        assert rec.level_permutation(w(rec, "a b"), 2) != rec.level_permutation(
            w(rec, "b a"), 2
        )

    def test_congruence_on_random_words(self, all_recursion_groups, rng):
        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(10):
                u = random_word(rng, len(rec.gens), 6)
                v = random_word(rng, len(rec.gens), 6)
                k = random_word(rng, len(rec.gens), 6)
                if are_equal(rec, u, v):
                    assert are_equal(rec, concat(u, k), concat(v, k))

    def test_equal_words_share_level_permutations(self, grig, rng):
        rec = grig.recursion
        relator = w(rec, "b c d")
        for n in range(1, 7):
            assert rec.level_permutation(relator, n) == tuple(range(2**n))

    def test_level_flip_square_is_trivial(self):
        # a = (a, a) with a root swap flips every level; its square is trivial
        # even though the word closure never shrinks syntactically
        assert not is_trivial(LEVEL_FLIP, (1,))
        assert is_trivial(LEVEL_FLIP, (1, 1))

    def test_multi_letter_sections(self):
        # g = (1, g g) with a swap: the square collapses coinductively, so g
        # is just the first-letter flip in disguise.  All its deep sections
        # vanish, so the recurrent core is the identity alone.
        rec = parse_recursion("alphabet 2\ngen g = perm(1 0) sections(1, g g)\n")
        assert is_trivial(rec, (1, 1))
        assert not is_trivial(rec, (1,))
        assert rec.act((1,), (1, 0, 1)) == (0, 0, 1)
        assert len(nucleus(rec)) == 1


class TestWordProblem:
    def test_defining_relators_vanish(self, grig):
        rec = grig.recursion
        for text in ["a a", "b b", "c c", "d d", "b c d"]:
            assert is_trivial(rec, w(rec, text))

    def test_ad_to_the_fourth(self, grig):
        rec = grig.recursion
        assert is_trivial(rec, w(rec, "a d") * 4)
        assert not is_trivial(rec, w(rec, "a d") * 2)

    def test_adacac_to_the_fourth(self, grig):
        rec = grig.recursion
        assert is_trivial(rec, w(rec, "a d a c a c") * 4)

    def test_empty_word(self, grig):
        assert is_trivial(grig.recursion, ())

    def test_agrees_with_level_action_on_random_words(
        self, all_recursion_groups, rng
    ):
        # triviality must imply trivial action on every level within budget;
        # nontriviality must show up at some small level for short words
        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(40):
                u = random_word(rng, len(rec.gens), 12)
                by_action = all(
                    rec.level_permutation(u, n) == tuple(range(rec.degree**n))
                    for n in range(1, 7)
                )
                assert is_trivial(rec, u) == by_action


class TestNucleus:
    @pytest.mark.parametrize(
        "name,size",
        [
            ("grigorchuk", 5),
            ("basilica", 7),
            ("img_z2_plus_i", 4),
            ("gupta_sidki", 5),
            ("fabrykowski_gupta", 5),
            ("hanoi3", 4),
        ],
    )
    def test_catalog_nucleus_sizes(self, name, size):
        g = catalog.load(name)
        assert len(nucleus(g.recursion)) == size

    def test_basilica_nucleus_contents(self, basilica):
        rec = basilica.recursion
        nuc = nucleus(rec)
        words = set(nuc.elements)
        assert () in words
        for text in ["a", "a^-1", "b", "b^-1", "a^-1 b", "b^-1 a"]:
            target = w(rec, text)
            assert any(are_equal(rec, e, target) for e in nuc.elements)

    def test_closed_under_sections_and_inverses(self, all_recursion_groups, rng):
        for g in all_recursion_groups:
            rec = g.recursion
            nuc = nucleus(rec)
            for i, e in enumerate(nuc.elements):
                for x in range(rec.degree):
                    j = nuc.sections[i][x]
                    assert are_equal(rec, rec.section(e, (x,)), nuc.elements[j])
                k = nuc.inverses[i]
                assert are_equal(rec, invert(e), nuc.elements[k])

    def test_contains_identity(self, all_recursion_groups):
        for g in all_recursion_groups:
            nuc = nucleus(g.recursion)
            assert nuc.elements[nuc.identity] == ()

    def test_partial_products_land_in_nucleus(self, grig):
        nuc = nucleus(grig.recursion)
        rec = grig.recursion
        for (i, j), k in nuc.products.items():
            prod = concat(nuc.elements[i], nuc.elements[j])
            assert are_equal(rec, prod, nuc.elements[k])

    def test_odometer_nucleus(self):
        assert len(nucleus(ODOMETER)) == 3

    def test_expanding_recursion_exhausts_budget(self):
        with pytest.raises(BudgetExceeded):
            nucleus(EXPANDING, Budget(max_states=500))

    def test_product_seed_checks_match_the_closure_at_the_limits(self):
        # with trivial sections a closure holds exactly its seeds and the
        # identity, so the seed checks must fail where section_closure does
        rec = WreathRecursion(2, ("x", "y"), (((), ()), ((), ())), ((1, 0), (0, 1)))

        def fails(fn, budget):
            try:
                fn(budget)
            except BudgetExceeded:
                return True
            return False

        # the second set's longest products are x y y x^-1 and its inverse,
        # formed with a cancellation
        for cand in ([(), (1,), (-1,), (2,), (1, 2), (-2, -1)], [(), (1, 2, -1), (1, -2, -1)]):
            seeds = {*cand, *(concat(u, v) for u in cand for v in cand)}
            longest = max(map(len, seeds))
            for states in (len(seeds) - 1, len(seeds)):
                for length in (longest - 1, longest):
                    budget = Budget(max_states=states, max_word_length=length)
                    assert fails(lambda b: _products(cand, b), budget) == fails(
                        lambda b: section_closure(rec, seeds, b), budget
                    ), (cand, budget)


def reference_nucleus(rec, budget=contraction.DEFAULT_BUDGET):
    """`nucleus` as it was before its tables were read off the fixed-point
    round; only the call to the table builder differs."""
    cand = {(), *((s,) for i in range(1, len(rec.gens) + 1) for s in (i, -i))}
    for _ in range(contraction.NUCLEUS_ROUNDS):
        seeds = set(cand)
        seeds.update(_products(cand, budget))
        auto = section_closure(rec, seeds, budget)
        reps, trans, perms = _quotient(auto)
        recurrent = _recurrent_classes(trans)
        new_cand = {reps[c] for c in recurrent} | {()}
        new_cand |= {free_reduce(invert(w)) for w in new_cand}
        # the seeds are closed under inversion, so auto is too: both sets are its states
        if {auto.classes[auto.index[w]] for w in new_cand} == {
            auto.classes[auto.index[w]] for w in cand
        }:
            return reference_build_nucleus(rec, reps, trans, perms, recurrent, budget)
        cand = new_cand
    raise BudgetExceeded(
        f"nucleus iteration did not stabilize in {contraction.NUCLEUS_ROUNDS} rounds"
    )


def reference_build_nucleus(rec, reps, trans, perms, recurrent, budget):
    """`contraction._build_nucleus` as it was, verbatim: the product table
    comes from a section closure of its own."""
    order = sorted(recurrent, key=lambda c: shortlex_key(reps[c]))
    pos = {c: i for i, c in enumerate(order)}
    elements = tuple(reps[c] for c in order)
    sections = tuple(tuple(pos[t] for t in trans[c]) for c in order)
    nperms = tuple(perms[c] for c in order)
    identity = elements.index(())  # the shortlex-least word represents its class

    auto = section_closure(rec, [*elements, *_products(elements, budget)], budget)
    at = {auto.classes[auto.index[free_reduce(e)]]: i for i, e in enumerate(elements)}
    products = {}
    for i, u in enumerate(elements):
        for j, v in enumerate(elements):
            k = at.get(auto.classes[auto.index[free_reduce(concat(u, v))]])
            if k is not None:
                products[(i, j)] = k
    inverse_of = {i: j for (i, j), k in products.items() if k == identity}
    for i, e in enumerate(elements):
        if i not in inverse_of:
            raise BudgetExceeded(f"nucleus not closed under inverses at {e}")
    inverses = tuple(inverse_of[i] for i in range(len(elements)))
    return Nucleus(rec, elements, sections, nperms, inverses, identity, products)


def _tables(fn, rec, budget):
    """Every table of the nucleus, the products in insertion order, or None
    when the budget runs out."""
    try:
        nuc = fn(rec, budget)
    except BudgetExceeded:
        return None
    return (nuc.elements, nuc.sections, nuc.perms, nuc.inverses, nuc.identity,
            list(nuc.products.items()))


class TestNucleusTables:
    """The tables read off the fixed-point round equal those of a second
    closure wherever that closure answers.  Where only the fixed-point round
    answers, the second closure ran out of depth, and the tables equal the
    ones at depth 32."""

    def test_tables_agree_with_a_closure_of_their_own(self):
        draw = random.Random(74)
        recs = kernel_recursions() + [random_recursion(draw) for _ in range(100)]
        counts = {"answered": 0, "budget": 0, "fixed_point_only": 0}
        for rec in recs:
            deep = _tables(nucleus, rec, Budget(300, 32, 96))
            for depth in (2, 3, 4, 32):
                budget = Budget(max_states=300, max_depth=depth, max_word_length=96)
                want = _tables(reference_nucleus, rec, budget)
                got = _tables(nucleus, rec, budget)
                if want is not None:
                    assert got == want, (rec, budget)
                    counts["answered"] += 1
                elif got is None:
                    counts["budget"] += 1
                else:
                    assert got == deep, (rec, budget)
                    counts["fixed_point_only"] += 1
        assert min(counts.values()) > 0, counts


class TestContracting:
    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_one_section_closure_per_round(self, name, monkeypatch):
        # a round's closure also decides whether the round changed anything,
        # and the last round's closure gives the tables
        calls = {"section_closure": 0, "_recurrent_classes": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        for fn in (contraction.section_closure, contraction._recurrent_classes):
            monkeypatch.setattr(contraction, fn.__name__, counted(fn))
        rec = catalog.load(name).recursion
        nucleus(rec)
        rounds = calls["_recurrent_classes"]
        assert rounds > 0 and calls["section_closure"] == rounds

    def test_catalog_groups_contract(self, all_recursion_groups):
        # a nucleus that returns is the contraction certificate
        for g in all_recursion_groups:
            assert len(nucleus(g.recursion)) > 1

    def test_trivial_recursion(self):
        rec = parse_recursion("alphabet 2\ngen e = perm(0 1) sections(1, 1)\n")
        assert nucleus(rec).elements == ((),)

    def test_recursion_without_generators(self):
        from contracta.recursion import WreathRecursion

        rec = WreathRecursion(2, (), (), ())
        assert len(nucleus(rec)) == 1

    def test_expanding_recursion_budget(self):
        with pytest.raises(BudgetExceeded):
            nucleus(EXPANDING, Budget(max_states=500))


class TestSelfReplication:
    """Level-1 self-replication is what `standard_cover`'s witness search
    finds; an exact witness h for (x, n) fixes x with section n in the base
    group too."""

    def test_catalog_groups(self, all_recursion_groups):
        for g in all_recursion_groups:
            rec = g.recursion
            cover = universal_cover(nucleus(rec))
            result = standard_cover(cover)
            assert all(result.exact.values())
            for (x, i), h in result.witnesses.items():
                base = cover.to_base(h)
                assert rec.act(base, (x,)) == (x,)
                assert are_equal(rec, rec.section(base, (x,)), cover.nucleus.elements[i])

    def test_identity_only_recursion(self):
        rec = parse_recursion("alphabet 2\ngen e = perm(0 1) sections(1, 1)\n")
        result = standard_cover(universal_cover(nucleus(rec)))
        assert result.already_self_replicating and all(result.exact.values())

    def test_unknown_is_reported_not_asserted(self):
        # the level-flip group C2 is not level-1 self-replicating: no element
        # fixes 0 with section a; the search fails on its budget instead of
        # answering no
        cover = universal_cover(nucleus(LEVEL_FLIP))
        with pytest.raises(BudgetExceeded) as exc:
            standard_cover(cover, search_radius=4)
        assert str(exc.value) == (
            "no self-replication witness for letter 0, element (1,) within radius 4"
        )


def reference_are_equal(rec, g, h, budget=contraction.DEFAULT_BUDGET):
    """`are_equal` as it was before the section walk: the section closure of
    g h^-1, classed by bisimulation (`is_identity` inlined)."""
    w = concat(free_reduce(g), invert(free_reduce(h)))
    if not w:
        return True
    auto = section_closure(rec, [w], budget)
    return auto.classes[auto.index[free_reduce(w)]] == auto.classes[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded:
        return None


def _relators(nuc):
    """The nonempty relators x y z^-1 of the nucleus products x y = z."""
    e = nuc.elements
    relators = [concat(e[i], e[j], invert(e[k])) for (i, j), k in nuc.products.items()]
    return [r for r in relators if r]


def _walk_cases(rec, rng):
    """Pairs (u, v): random pairs, which are mostly different, and u against
    u times a product of conjugated relators, which are equal.  The relators
    are the nucleus products x y = z, as x y z^-1."""
    n = len(rec.gens)
    cases = [(random_word(rng, n, 10), random_word(rng, n, 10)) for _ in range(12)]
    try:
        relators = _relators(nucleus(rec, SMALL))
    except BudgetExceeded:
        return cases
    for _ in range(12 if relators else 0):
        u, product = random_word(rng, n, 8), ()
        for _ in range(rng.randint(1, 3)):
            c = random_word(rng, n, 4)
            product = concat(product, c, rng.choice(relators), invert(c))
        cases.append((u, concat(u, product)))
    return cases


class TestWalkAgreement:
    """The section walk answers as the closure-and-bisimulation reference
    does, or answers where the reference exceeds its budget; never the
    reverse, with a fresh memo or with one memo shared in shuffled order."""

    @pytest.mark.parametrize("budget", [contraction.DEFAULT_BUDGET, SMALL],
                             ids=["default", "small"])
    def test_walk_agrees_with_the_closure(self, budget, rng):
        counts = {"equal": 0, "different": 0, "walk_only": 0}
        for rec in kernel_recursions():
            cases = _walk_cases(rec, rng)
            expected = [_outcome(reference_are_equal, rec, u, v, budget) for u, v in cases]
            fresh = [_outcome(are_equal, rec, u, v, budget) for u, v in cases]
            order = list(range(len(cases)))
            rng.shuffle(order)
            memo, shared = {}, {}
            for i in order:
                shared[i] = _outcome(are_equal, rec, *cases[i], budget, memo)
            for i, want in enumerate(expected):
                got = fresh[i]
                if want is not None:
                    assert got == shared[i] == want, (rec, cases[i])
                    counts["equal" if want else "different"] += 1
                elif got is not None:
                    assert shared[i] == got, (rec, cases[i])
                    counts["walk_only"] += 1
                    if got:  # then it acts trivially on every level
                        u, v = cases[i]
                        identity = tuple(range(rec.degree**5))
                        assert rec.level_permutation(concat(u, invert(v)), 5) == identity
        assert min(counts.values()) > 0, counts


def _memo_words(rec, rng, count=2_000):
    """`count` seeded words over `rec`'s letters: random ones, which are
    mostly nontrivial, and random ones times a conjugate of a nucleus
    relator x y z^-1 (x y = z), which walks through trivial states."""
    n = len(rec.gens)
    relators = _relators(nucleus(rec))
    words = []
    for _ in range(count):
        u = random_word(rng, n, 10)
        if relators and rng.random() < 0.5:
            c = random_word(rng, n, 4)
            u = concat(u, c, rng.choice(relators), invert(c))
        words.append(u)
    return words


class TestWalkMemo:
    """A nontrivial walk also marks the state it found nontrivial: one that
    moves the root, or one with a section the memo marks nontrivial."""

    # states and their sections; only "moves" moves the root, "idle" is trivial
    GRAPH = {"start": ("mid",), "mid": ("moves", "idle"), "moves": (), "idle": ("idle",)}

    def split(self, state):
        return state == "moves", self.GRAPH[state]

    def test_marks_the_state_that_moves_the_root(self):
        memo = {}
        assert not contraction.walk("start", self.split, memo=memo)
        assert memo == {"start": False, "moves": False}

    def test_marks_a_state_with_a_section_known_nontrivial(self):
        memo = {"moves": False}
        assert not contraction.walk("start", self.split, memo=memo)
        assert memo == {"moves": False, "mid": False, "start": False}
        assert contraction.walk("idle", self.split, memo=memo)
        assert memo["idle"] is True

    def test_marks_the_section_that_moves_the_root_on_grigorchuk(self, grig):
        # b = (a, c): the walk from b stops at its section a
        rec = grig.recursion
        memo = {}
        assert not is_trivial(rec, w(rec, "b"), memo=memo)
        assert memo == {w(rec, "b"): False, w(rec, "a"): False}

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_a_shared_memo_answers_as_fresh_ones(self, name):
        rec = catalog.load(name).recursion
        rng = random.Random(name)
        words = _memo_words(rec, rng)
        memo = {}
        shared = [is_trivial(rec, u, memo=memo) for u in words]
        assert shared == [is_trivial(rec, u) for u in words]
        assert 0 < sum(shared) < len(words)
        assert False in memo.values() and True in memo.values()
