import random
from collections import deque
from itertools import chain

import pytest

from conftest import (
    are_equal,
    level_permutation,
    partition,
    random_word,
    reference_level_action,
)
from contracta import catalog, contraction, grig
from contracta.contraction import (
    DEFAULT_BUDGET,
    Budget,
    Nucleus,
    _quotient,
    _recurrent_classes,
    is_trivial,
    nucleus,
    portrait,
    section_closure,
)
from contracta.covers import section_split, standard_cover, universal_cover
from contracta.errors import BudgetExceeded
from contracta.gomega import OmegaSequence
from contracta.marked import Congruence
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

# x swaps the root, y fixes it, both with trivial sections: a section closure
# holds exactly its seeds and the identity
TRIVIAL_SECTIONS = WreathRecursion(2, ("x", "y"), (((), ()), ((), ())), ((1, 0), (0, 1)))


def test_budget_limits_must_be_positive():
    with pytest.raises(ValueError):
        Budget(max_states=0)
    with pytest.raises(ValueError):
        Budget(max_depth=-1)


@pytest.mark.parametrize("limits", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, -5)])
def test_each_budget_limit_is_checked(limits):
    with pytest.raises(ValueError, match="budget limits must be positive"):
        Budget(*limits)


def test_equal_budgets_are_one_value():
    # a budget is part of the catalog's cache key, so equal limits hash equal
    named = Budget(max_states=300, max_depth=32, max_word_length=96)
    assert Budget(300, 32, 96) == named and hash(Budget(300, 32, 96)) == hash(named)
    assert Budget() == DEFAULT_BUDGET and hash(Budget()) == hash(DEFAULT_BUDGET)
    assert Budget(max_depth=63) != DEFAULT_BUDGET and named != (300, 32, 96)
    assert repr(named) == "Budget(max_states=300, max_depth=32, max_word_length=96)"


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
        act = reference_level_action(rec, 2)
        assert act(w(rec, "a b")) != act(w(rec, "b a"))

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
            assert level_permutation(rec, relator, n) == tuple(range(2**n))

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
                    level_permutation(rec, u, n) == tuple(range(rec.degree**n))
                    for n in range(1, 7)
                )
                assert is_trivial(rec, u) == by_action


class TestPortrait:
    """`portrait` buckets words as their level permutations do, with the
    eager level action as the independent oracle: equal numbers exactly
    when the permutations are equal."""

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_catalog_buckets_are_the_level_permutations(self, name, rng):
        g = catalog.load(name)
        rec = g.recursion
        depth = 6 if rec.degree == 2 else 4
        words = [random_word(rng, len(rec.gens), 10) for _ in range(3_000)]
        buckets = partition(map(g.invariant, words))
        assert buckets == partition(map(reference_level_action(rec, depth), words))
        assert len(set(buckets)) < len(words)  # some distinct words share one

    def test_random_recursion_buckets_are_the_level_permutations(self):
        draw = random.Random(32)
        for _ in range(40):
            rec = random_recursion(draw)
            depth = 6 if rec.degree == 2 else 4
            words = [random_word(draw, len(rec.gens), 10) for _ in range(100)]
            assert partition(map(portrait(rec.split, depth), words)) == partition(
                map(reference_level_action(rec, depth), words)), rec


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
        # a round's lazily formed products, candidates first, must fail
        # where the whole seed set does, with the same message
        rec = TRIVIAL_SECTIONS

        def outcome(fn, budget):
            try:
                fn(budget)
            except BudgetExceeded as exc:
                return str(exc)
            return None

        # the first set is the nucleus's first round on rec; the second
        # set's longest products are x y y x^-1 and its inverse, formed with
        # a cancellation
        generators = {(), (1,), (-1,), (2,), (-2,)}
        for cand in (generators, [(), (1, 2, -1), (1, -2, -1)]):
            seeds = {*cand, *(concat(u, v) for u in cand for v in cand)}
            longest = max(map(len, seeds))
            outcomes = set()
            for states in (len(seeds) - 1, len(seeds)):
                for length in (longest - 1, longest):
                    budget = Budget(max_states=states, max_word_length=length)
                    lazy = chain(cand, (concat(u, v) for u in cand for v in cand))
                    want = outcome(lambda b: section_closure(rec, seeds, b), budget)
                    got = outcome(lambda b: section_closure(rec, lazy, b), budget)
                    assert got == want, (cand, budget)
                    if cand is generators:
                        # the first round fails, or the nucleus returns
                        assert outcome(lambda b: nucleus(rec, b), budget) == want, budget
                    outcomes.add(want)
            assert len(outcomes) == 3, outcomes  # a state error, a length error, none

    def test_candidates_are_seeded_before_their_products(self):
        # the first round's five candidates pass a limit of four states
        # before any product of length 2 passes a length limit of 1
        with pytest.raises(BudgetExceeded, match="^section closure exceeds 4 states$"):
            nucleus(TRIVIAL_SECTIONS, Budget(max_states=4, max_word_length=1))
        with pytest.raises(BudgetExceeded, match="^section word of length 2 exceeds cap 1$"):
            nucleus(TRIVIAL_SECTIONS, Budget(max_states=5, max_word_length=1))


def reference_nucleus(rec, budget=contraction.DEFAULT_BUDGET):
    """`nucleus` as it was before its tables were read off the fixed-point
    round; only the call to the table builder differs."""
    cand = {(), *((s,) for i in range(1, len(rec.gens) + 1) for s in (i, -i))}
    for _ in range(contraction.NUCLEUS_ROUNDS):
        # lazy, so that a product past a limit fails before the rest are formed
        seeds = chain(cand, (concat(u, v) for u in cand for v in cand))
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

    seeds = [*elements, *(concat(u, v) for u in elements for v in elements)]
    auto = section_closure(rec, seeds, budget)
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


def all_pairs_products(words):
    """The all-pairs `concat` loop that `_pairwise_products` replaced."""
    return (concat(u, v) for u in words for v in words)


def _junction(u, v):
    """How the junction of u v cancels: nothing, the whole of u or of v, or
    part of both."""
    cancelled = (len(u) + len(v) - len(concat(u, v))) // 2
    if not cancelled:
        return "none"
    if cancelled < min(len(u), len(v)):
        return "partial"
    return "whole u" if cancelled == len(u) else "whole v"


def _random_words(rng, count, max_len, closed):
    words = {free_reduce(random_word(rng, 3, max_len)) for _ in range(count)}
    return words | {invert(w) for w in words} if closed else words


def _nucleus_outcome(rec, budget):
    """Every table of the nucleus, or the text of its BudgetExceeded."""
    try:
        nuc = nucleus(rec, budget)
    except BudgetExceeded as exc:
        return str(exc)
    return (nuc.elements, nuc.sections, nuc.perms, nuc.inverses, nuc.identity,
            list(nuc.products.items()))


class TestPairwiseProducts:
    """`_pairwise_products` slices the junctions that cancel nothing or the
    whole shorter factor; the words, and their order, are those of the
    all-pairs `concat` loop."""

    CANDIDATES = {
        # a fuzz round's candidates x^k: each junction cancels nothing or the
        # whole shorter factor, either one
        "powers": lambda rng: {(s,) * k for k in range(9) for s in (1, -1)},
        "powers without ()": lambda rng: {(s,) * k for k in range(1, 9) for s in (1, -1)},
        "powers of x y": lambda rng: {w for k in range(5) for w in ((1, 2) * k, (-2, -1) * k)},
        "random, closed under inversion": lambda rng: _random_words(rng, 60, 8, True) | {()},
        "random, not closed": lambda rng: _random_words(rng, 60, 8, False),
    }

    @pytest.mark.parametrize("case", list(CANDIDATES))
    def test_same_words_in_the_same_order(self, case, rng):
        words = self.CANDIDATES[case](rng)
        assert list(contraction._pairwise_products(words)) == list(all_pairs_products(words))

    def test_the_cases_meet_every_junction(self, rng):
        kinds = {case: {_junction(u, v) for u in words for v in words}
                 for case, words in ((c, make(rng)) for c, make in self.CANDIDATES.items())}
        assert kinds["powers"] == {"none", "whole u", "whole v"}
        assert kinds["random, not closed"] == {"none", "whole u", "whole v", "partial"}

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_catalog_nuclei_match_the_all_pairs_loop(self, name, monkeypatch):
        rec = catalog.load(name).recursion
        got = _nucleus_outcome(rec, DEFAULT_BUDGET)
        monkeypatch.setattr(contraction, "_pairwise_products", all_pairs_products)
        assert got == _nucleus_outcome(rec, DEFAULT_BUDGET)

    def test_fuzz_nuclei_match_the_all_pairs_loop(self, monkeypatch):
        # the 60 recursions of the seed-72 draw at the fuzz budget, each
        # BudgetExceeded text included
        draw = random.Random(72)
        recs = [random_recursion(draw) for _ in range(60)]
        got = [_nucleus_outcome(rec, SMALL) for rec in recs]
        monkeypatch.setattr(contraction, "_pairwise_products", all_pairs_products)
        assert got == [_nucleus_outcome(rec, SMALL) for rec in recs]
        failures = [out for out in got if isinstance(out, str)]
        assert 10 < len(failures) < 50, failures


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
            "no self-replication witness for letter 0, element (1,) within length 5"
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
    relators = [free_reduce(e[i] + e[j] + invert(e[k])) for (i, j), k in nuc.products.items()]
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
            product = free_reduce(product + c + rng.choice(relators) + invert(c))
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
                        assert level_permutation(rec, concat(u, invert(v)), 5) == identity
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
            u = free_reduce(u + c + rng.choice(relators) + invert(c))
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


def reference_walk(start, split, budget=DEFAULT_BUDGET, memo=None):
    """`contraction.walk` as it was before it ran its queue as a growing
    list: a deque, and a generator over the sections for a memo `False`."""
    memo = {} if memo is None else memo
    if start in memo:
        return memo[start]
    seen = {start}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        moved, sections = split(current)
        sections = tuple(sections)
        if moved or any(memo.get(state) is False for state in sections):
            memo[start] = False
            if current is not start:
                memo[current] = False
            return False
        for state in sections:
            if state not in seen and state not in memo:
                if len(seen) >= budget.max_states:
                    raise BudgetExceeded(f"section states exceed {budget.max_states}")
                seen.add(state)
                queue.append(state)
    memo.update(dict.fromkeys(seen, True))
    return True


def _walk_outcomes(decide, starts):
    """Per start, `decide(start, memo)` with a fresh memo and with one memo
    shared in order: the answers or BudgetExceeded messages, the fresh memos
    and the shared one."""
    fresh, memos, shared, memo = [], [], [], {}
    for start in starts:
        for answers, m in ((fresh, {}), (shared, memo)):
            try:
                answers.append(decide(start, m))
            except BudgetExceeded as e:
                answers.append(str(e))
            if m is not memo:
                memos.append(m)
    return fresh, memos, shared, memo


TIGHT = Budget(max_states=2)


class TestWalkFastPath:
    """`walk` gives `reference_walk`'s answers, memo entries and
    BudgetExceeded on every split that takes it: the catalog recursions'
    (through `is_trivial`), the `gomega` split and the cover split, at the
    default budget and at a tight one."""

    def agree(self, monkeypatch, decide, starts):
        """Every answer of `decide`, which asks `contraction.walk`, and of it
        asking `reference_walk`, after checking that they agree."""
        got = _walk_outcomes(decide, starts)
        with monkeypatch.context() as patched:
            patched.setattr(contraction, "walk", reference_walk)
            assert _walk_outcomes(decide, starts) == got
        return got[0] + got[2]

    def outcomes(self, answers):
        return {a if isinstance(a, bool) else "budget" for a in answers}

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_catalog_recursions(self, name, monkeypatch):
        rec = catalog.load(name).recursion
        words = _memo_words(rec, random.Random(name), 300)
        answers = []
        for budget in (DEFAULT_BUDGET, TIGHT):
            answers += self.agree(
                monkeypatch, lambda u, m: is_trivial(rec, u, budget, m), words)
        assert self.outcomes(answers) == {True, False, "budget"}

    @pytest.mark.parametrize("text", [":012", "0:12", "12:10220", ":0"])
    def test_gomega_states(self, text, monkeypatch):
        om = OmegaSequence.parse(text)
        states = [(u, 0) for u in grig.C2V.ball(9)]
        answers = []
        for budget in (DEFAULT_BUDGET, TIGHT):
            answers += self.agree(
                monkeypatch, lambda s, m: contraction.walk(s, om.split, budget, m), states)
        assert self.outcomes(answers) == {True, False, "budget"}

    @pytest.mark.parametrize("name", ["grigorchuk", "hanoi3", "basilica"])
    def test_cover_split(self, name, monkeypatch):
        cover, sys_ = catalog.cover_for(name)
        words = list(Congruence(sys_).ball(4))
        answers = []
        for budget in (DEFAULT_BUDGET, TIGHT):
            split = section_split(cover, sys_, budget)
            answers += self.agree(
                monkeypatch, lambda u, m: contraction.walk(u, split, budget, m), words)
        assert self.outcomes(answers) == {True, False, "budget"}
