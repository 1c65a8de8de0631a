import operator
import random
from itertools import product

import pytest

from conftest import (
    LONG4_REC,
    LONG_REC,
    are_equal,
    free_ball,
    long_cover,
    random_word,
    reference_in_kernel,
)
from contracta import catalog, contraction, covers, marked, rewriting
from contracta.contraction import Budget, nucleus
from contracta.covers import kernel_oracle, standard_cover, universal_cover
from contracta.errors import BudgetExceeded
from contracta.grig import C2V
from contracta.recursion import WreathRecursion, parse_recursion
from contracta.words import (
    concat,
    format_word,
    free_reduce,
    invert,
    parse_word,
    shortlex_key,
)
from test_fuzz import random_recursion

# seven cover generators, found at index 28 of the fuzz generator's seed-72 draw
SEVEN_GENERATOR_RECURSION = WreathRecursion(
    3,
    ("x", "y", "z"),
    (((1,), (-3,), (3,)), ((-3,), (-3,), (-1,)), ((), (1,), (3,))),
    ((1, 2, 0), (0, 1, 2), (2, 0, 1)),
)


@pytest.fixture(scope="module")
def grig_cover():
    return catalog.cover_for("grigorchuk")


def relator_texts(cover):
    return sorted(
        format_word(r, cover.presentation.gens) for r in cover.presentation.relators
    )


class TestUniversalCover:
    def test_grigorchuk_cover_is_c2_star_v(self, grig):
        cover = universal_cover(nucleus(grig.recursion))
        assert cover.presentation.gens == ("a", "b", "c", "d")
        assert relator_texts(cover) == ["a a", "b b", "b c d", "c c", "d d"]

    def test_basilica_pruned_cover_is_free_of_rank_two(self, basilica):
        cover = universal_cover(nucleus(basilica.recursion), prune=True)
        assert cover.presentation.gens == ("a", "b")
        assert cover.presentation.relators == ()
        # the pruned product element is recorded with the product it was dropped for
        reasons = [e.reason for e in cover.pruning]
        assert any(r.startswith("product") for r in reasons)

    def test_basilica_unpruned_keeps_the_product_generator(self, basilica):
        # without pruning, the seventh nucleus element survives as a third
        # generator, tied to the others by its length-3 defining relator
        cover = universal_cover(nucleus(basilica.recursion), prune=False)
        assert len(cover.presentation.gens) == 3
        assert len(cover.presentation.relators) == 1
        (rel,) = cover.presentation.relators
        assert len(rel) == 3
        assert contraction.is_trivial(basilica.recursion, cover.to_base(rel))
        result = standard_cover(cover)
        assert result.already_self_replicating

    def test_hanoi_cover(self):
        g = catalog.load("hanoi3")
        cover = universal_cover(nucleus(g.recursion))
        assert relator_texts(cover) == ["a a", "b b", "c c"]

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("img_z2_plus_i", ["a a", "b b", "c c"]),
            ("gupta_sidki", ["a a a", "b b b"]),
            ("fabrykowski_gupta", ["a a a", "b b b"]),
        ],
    )
    def test_remaining_catalog_covers(self, name, expected):
        g = catalog.load(name)
        cover = universal_cover(nucleus(g.recursion))
        assert relator_texts(cover) == sorted(expected)

    def test_relators_are_short_and_trivial(self, all_recursion_groups):
        for g in all_recursion_groups:
            cover = universal_cover(
                nucleus(g.recursion), prune=g.facts.get("cover_prune", False)
            )
            for r in cover.presentation.relators:
                assert 1 <= len(r) <= 3
                assert contraction.is_trivial(g.recursion, cover.to_base(r))

    def test_diagram_commutes_on_generators(self, all_recursion_groups):
        # cover sections project to the covered group's sections
        for g in all_recursion_groups:
            rec = g.recursion
            cover = universal_cover(
                nucleus(rec), prune=g.facts.get("cover_prune", False)
            )
            for gen in cover.presentation.gens:
                letter = (cover.presentation.gens.index(gen) + 1,)
                for x in range(rec.degree):
                    lifted = cover.to_base(cover.recursion.section(letter, (x,)))
                    direct = rec.section(cover.gen_to_nucleus[gen], (x,))
                    assert are_equal(rec, lifted, direct)
                assert cover.recursion.split(letter)[0] == rec.split(
                    cover.gen_to_nucleus[gen]
                )[0]


def reference_relators(cover, budget):
    """Every trivial word of length <= 3 over the cover's letters, first
    letter positive, one per rotation and inversion class, each decided by
    its own section closure in the base group."""
    rec = cover.nucleus.rec
    reps = [cover.gen_to_nucleus[g] for g in cover.presentation.gens]
    involution = [contraction.is_trivial(rec, concat(r, r), budget) for r in reps]
    letters = []
    for pos in range(len(reps)):
        letters.append(pos + 1)
        if not involution[pos]:
            letters.append(-(pos + 1))

    def dedup_key(w):
        # the inverse letter of an involution is the letter itself
        inverse = tuple(
            abs(x) if involution[abs(x) - 1] else -x for x in reversed(w)
        )
        variants = [v[r:] + v[:r] for v in (w, inverse) for r in range(len(v))]
        return min(variants, key=shortlex_key)

    relators, seen_keys = [], set()
    for length in (1, 2, 3):
        for combo in product(letters, repeat=length):
            w = free_reduce(combo)
            if combo[0] < 0 or len(w) != length or dedup_key(w) in seen_keys:
                continue
            if contraction.is_trivial(rec, cover.to_base(w), budget):
                seen_keys.add(dedup_key(w))
                relators.append(w)
    return tuple(relators)


def test_relators_from_the_nucleus_tables_agree_with_per_word_triviality(
    all_recursion_groups,
):
    cases = [(g.recursion, contraction.DEFAULT_BUDGET) for g in all_recursion_groups]
    budget = Budget(max_states=300, max_depth=32, max_word_length=96)
    rng = random.Random(74)
    for _ in range(100):
        cases.append((random_recursion(rng), budget))
    answered = 0
    for rec, budget in cases:
        try:
            nuc = nucleus(rec, budget)
        except BudgetExceeded:
            continue
        answered += 1
        for prune in (False, True):
            cover = universal_cover(nuc, prune=prune, budget=budget)
            expected = reference_relators(cover, budget)
            assert cover.presentation.relators == expected, (rec, prune)
    assert answered > 40


PIPELINE_BUDGET = Budget(max_states=300, max_depth=32, max_word_length=96)


def reference_pruning(nuc):
    """`universal_cover`'s pruning as it was: after each drop the search
    starts again from the longest element.  The kept elements, in order, and
    the pair of elements that each dropped one is the product of."""
    kept = [i for i in range(len(nuc)) if i != nuc.identity and nuc.inverses[i] >= i]
    expressions = {}
    while True:
        for k in sorted(kept, key=lambda i: shortlex_key(nuc.elements[i]), reverse=True):
            available = []
            for m in kept:
                if m != k:
                    available.append(m)
                    if nuc.inverses[m] != m:
                        available.append(nuc.inverses[m])
            expr = next(
                (e for e in product(available, repeat=2) if nuc.products.get(e) == k), None
            )
            if expr is not None:
                kept.remove(k)
                expressions[k] = expr
                break
        else:
            return kept, expressions


def test_one_pruning_pass_drops_what_the_restarting_search_drops(all_recursion_groups):
    # the catalog nuclei, and the fuzz nuclei of generator seeds 0-9, twenty
    # draws each, that finish within the pipeline budget
    catalog_nuclei = [nucleus(g.recursion) for g in all_recursion_groups]
    nuclei = []
    for seed in range(10):
        draw = random.Random(seed)
        for _ in range(20):
            try:
                nuclei.append(nucleus(random_recursion(draw), PIPELINE_BUDGET))
            except BudgetExceeded:
                pass
    several = 0  # nuclei with more than one product dropped
    for nuc in catalog_nuclei + nuclei:
        kept, expressions = reference_pruning(nuc)
        cover = universal_cover(nuc, prune=True)
        gens = cover.presentation.gens
        assert [cover.gen_to_nucleus[g] for g in gens] == [nuc.elements[i] for i in kept]
        assert [e for e in cover.pruning if e.reason.startswith("product")] == [
            (nuc.elements[k], "product " + " . ".join(
                format_word(nuc.elements[m], nuc.rec.gens) for m in expressions[k]))
            for k in sorted(expressions)
        ]
        words = cover.element_words
        assert all(words[k] == concat(words[i], words[j]) for k, (i, j) in expressions.items())
        several += len(expressions) > 1
    assert len(nuclei) > 100 and several > 10


def extra_relator_cover():
    rec = parse_recursion(
        "alphabet 3\n"
        "gen x = perm(0 2 1) sections(x^-1, y, y)\n"
        "gen y = perm(1 2 0) sections(x^-1, 1, x)\n"
    )
    cover = universal_cover(nucleus(rec, PIPELINE_BUDGET), prune=True)
    return cover, rewriting.complete(cover.presentation, max_rules=300)


def reference_standard_cover(cover, budget, search_radius, sys):
    """`covers.standard_cover` as it was before its fallback walked cover
    words: each candidate is decided in the base group, and a witness's
    extra relators come from a section closure of its own."""
    rec = cover.recursion
    d = rec.degree
    n_elements = len(cover.nucleus)
    targets = {
        (x, i): rewriting.normal_form(sys, cover.element_words[i])
        for x in range(d)
        for i in range(n_elements)
    }
    witnesses, exact = {}, {}
    frontier, seen = [()], {()}
    letters = [i for i in range(1, len(rec.gens) + 1)]
    letters += [-i for i in letters]
    radius = 0
    while frontier and radius <= search_radius:
        for h in sorted(frontier, key=shortlex_key):
            tau, sections = rec.split(h)
            for x in range(d):
                if tau[x] != x:
                    continue
                sec = rewriting.normal_form(sys, sections[x])
                for i in range(n_elements):
                    if (x, i) not in witnesses and sec == targets[(x, i)]:
                        witnesses[(x, i)] = h
                        exact[(x, i)] = True
        if len(witnesses) == len(targets):
            break
        nxt = []
        for h in frontier:
            for s in letters:
                w = rewriting.normal_form(sys, h + (s,))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        radius += 1

    extra = set()
    for x, i in [key for key in targets if key not in witnesses]:
        for h in sorted(seen, key=shortlex_key):
            tau, sections = rec.split(h)
            if tau[x] != x:
                continue
            w = rewriting.normal_form(
                sys, concat(sections[x], invert(cover.element_words[i]))
            )
            if contraction.is_trivial(cover.nucleus.rec, cover.to_base(w), budget):
                witnesses[(x, i)] = h
                exact[(x, i)] = False
                extra |= reference_section_closure_words(rec, sys, w, budget)
                break
        else:
            raise BudgetExceeded(
                f"no self-replication witness for letter {x}, "
                f"element {cover.nucleus.elements[i]} within length {search_radius + 1}"
            )
    return covers.StandardCoverResult(sorted(extra, key=shortlex_key), witnesses, exact)


def reference_section_closure_words(rec, sys, w, budget):
    out = set()
    queue = [rewriting.normal_form(sys, w)]
    seen = set(queue)
    while queue:
        u = queue.pop()
        if u:
            out.add(u)
        if len(seen) > budget.max_states:
            raise BudgetExceeded("extra-relator closure exceeded state budget")
        for sec in rec.split(u)[1]:
            v = rewriting.normal_form(sys, sec)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return out


class TestStandardCover:
    def test_all_catalog_covers_already_self_replicating(self, all_recursion_groups):
        for g in all_recursion_groups:
            cover = universal_cover(
                nucleus(g.recursion), prune=g.facts.get("cover_prune", False)
            )
            result = standard_cover(cover)
            assert result.already_self_replicating
            assert result.extra_relators == []
            assert all(result.exact.values())

    def test_witnesses_cover_every_pair(self, grig_cover):
        cover, _ = grig_cover
        result = standard_cover(cover)
        d = cover.recursion.degree
        assert set(result.witnesses) == {
            (x, i) for x in range(d) for i in range(len(cover.nucleus))
        }

    def test_witnesses_actually_witness(self, grig_cover):
        cover, sys_ = grig_cover
        result = standard_cover(cover, sys=sys_)
        for (x, i), h in result.witnesses.items():
            assert cover.recursion.split(h)[0][x] == x
            section = cover.recursion.section(h, (x,))
            expect = cover.element_words[i]
            assert rewriting.normal_form(sys_, concat(section, invert(expect))) == ()

    def test_degenerate_identity_recursion(self):
        from contracta.recursion import parse_recursion

        rec = parse_recursion("alphabet 2\ngen e = perm(0 1) sections(1, 1)\n")
        cover = universal_cover(nucleus(rec))
        result = standard_cover(cover)
        assert result.extra_relators == []

    @pytest.mark.parametrize(
        "rec",
        [catalog.load("grigorchuk").recursion, SEVEN_GENERATOR_RECURSION],
        ids=["grigorchuk", "seven_generators"],
    )
    def test_search_stops_at_its_last_witness(self, rec, monkeypatch):
        cover = universal_cover(nucleus(rec))
        sys_ = rewriting.complete(cover.presentation)
        given = []

        def recording_normal_form(sys, w):
            given.append(w)
            return rewriting.normal_form(sys, w)

        monkeypatch.setattr(covers, "normal_form", recording_normal_form)
        result = standard_cover(cover, sys=sys_)
        assert all(result.exact.values())
        longest = max(len(h) for h in result.witnesses.values())
        assert max(len(w) for w in given) <= longest

    def test_witness_search_budget_failure_is_explicit(self, grig_cover):
        from contracta.errors import BudgetExceeded

        cover, sys_ = grig_cover
        with pytest.raises(BudgetExceeded, match="witness"):
            standard_cover(cover, sys=sys_, search_radius=1)

    def test_negative_radius_is_refused_before_any_work(self, grig_cover, monkeypatch):
        # the identity lies in every cover, so no radius below 0 means
        # anything; the check comes before the system is completed
        def complete(*args):
            raise AssertionError("completed a system")

        monkeypatch.setattr(rewriting, "complete", complete)
        for radius in (-1, -3):
            with pytest.raises(ValueError, match="^radius must be >= 0$"):
                standard_cover(grig_cover[0], search_radius=radius)

    def test_an_incomplete_system_is_refused(self, grig_cover):
        cover, _ = grig_cover
        sys_ = rewriting.complete(cover.presentation, max_rules=1)
        assert not sys_.complete
        with pytest.raises(BudgetExceeded, match="^cover rewriting system did not complete$"):
            standard_cover(cover, sys=sys_)

    def test_ball_is_charged_before_each_length(self, grig_cover, monkeypatch):
        # the C2 * V ball has 11 words through length 2 and 23 through 3,
        # where the last witness lies: at a cap of 11 the search stops before
        # it builds length 3
        from contracta import marked
        from contracta.errors import BudgetExceeded
        from contracta.recursion import WreathRecursion

        cover, sys_ = grig_cover
        split, lengths = WreathRecursion.split, []

        def recorded(self, word):
            lengths.append(len(word))
            return split(self, word)

        monkeypatch.setattr(WreathRecursion, "split", recorded)
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 11)
        with pytest.raises(BudgetExceeded, match="ball cap of 11 words"):
            standard_cover(cover, sys=sys_)
        assert max(lengths) == 2
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 23)
        result = standard_cover(cover, sys=sys_)
        assert max(map(len, result.witnesses.values())) == 3

    def test_extra_relator_closure_collects_sections(self, grig_cover):
        # a trivial walk over the cover split marks the section closure of its
        # start; the level-1 sections of (ad)^4 rewrite to nothing, so only
        # the word itself is a nonempty state
        cover, sys_ = grig_cover
        ad4 = parse_word("a d", cover.presentation.gens) * 4
        memo = {}
        assert contraction.walk(ad4, covers.section_split(cover, sys_), memo=memo)
        assert {state for state, trivial in memo.items() if trivial and state} == {ad4}

    def test_extra_relators_match_the_reference_fallback(self):
        # x^6 has no exact witness for three pairs within radius 4, so the
        # fallback's walks leave x^6 and x^-6 as extra relators
        cover, sys_ = extra_relator_cover()
        result = standard_cover(cover, PIPELINE_BUDGET, search_radius=4, sys=sys_)
        gens = cover.presentation.gens
        assert [format_word(w, gens) for w in result.extra_relators] == [
            "x x x x x x",
            "x^-1 x^-1 x^-1 x^-1 x^-1 x^-1",
        ]
        assert not all(result.exact.values())
        reference = reference_standard_cover(cover, PIPELINE_BUDGET, 4, sys_)
        assert result.extra_relators == reference.extra_relators
        assert result.witnesses == reference.witnesses
        assert result.exact == reference.exact

    @pytest.mark.parametrize("text", [LONG_REC, LONG4_REC], ids=["long_rec", "long4_rec"])
    @pytest.mark.parametrize("radius", [4, 6])
    def test_long_left_sides_match_the_reference(self, text, radius):
        # the ball leaves out words that a left side longer than 2 rewrites;
        # the random sweep below completes with none
        cover, sys_ = long_cover(text)
        assert max(len(r.lhs) for r in sys_.rules) > 2
        budget = contraction.DEFAULT_BUDGET
        result = standard_cover(cover, budget, radius, sys_)
        reference = reference_standard_cover(cover, budget, radius, sys_)
        assert (result.extra_relators, result.witnesses, result.exact) == (
            reference.extra_relators, reference.witnesses, reference.exact)

    def test_fallback_matches_the_reference_on_random_recursions(self):
        # the draws whose search finds no witness run the fallback to the end,
        # and both sides must then fail with the same message
        rng = random.Random(74)
        answered = 0
        for _ in range(12):
            rec = random_recursion(rng)
            for prune in (False, True):
                try:
                    cover = universal_cover(nucleus(rec, PIPELINE_BUDGET), prune=prune)
                except BudgetExceeded:
                    continue
                sys_ = rewriting.complete(cover.presentation, max_rules=300)
                if not sys_.complete:
                    continue
                outcomes = []
                for search in (standard_cover, reference_standard_cover):
                    try:
                        r = search(cover, PIPELINE_BUDGET, 4, sys_)
                        outcomes.append((r.extra_relators, r.witnesses, r.exact))
                    except BudgetExceeded as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1], (rec, prune)
                answered += not isinstance(outcomes[0], str)
        assert answered > 5


def reference_kernel_member(cover, sys, w, n, memo):
    """Kernel membership as `covers` once decided it: a recursion of its own,
    memoized by (normal form, level), level 0 included."""
    w = rewriting.normal_form(sys, free_reduce(w))
    key = (w, n)
    if key in memo:
        return memo[key]
    if n == 0:
        result = w == ()
    else:
        tau, sections = cover.recursion.split(w)
        result = tau == tuple(range(len(tau))) and all(
            reference_kernel_member(cover, sys, sec, n - 1, memo) for sec in sections
        )
    memo[key] = result
    return result


def kernel_member(name, w, n):
    """Whether the raw word w lies in level n of the catalog chain `name`."""
    return catalog.chain(name).member(n).is_trivial(w)


def chain_profile(name, w, n_max):
    """The least level n <= n_max of the catalog chain `name` holding w, or None."""
    return next((n for n in range(n_max + 1) if kernel_member(name, w, n)), None)


class TestKernelChain:
    def test_an_incomplete_system_is_refused(self, grig_cover):
        cover, _ = grig_cover
        sys_ = rewriting.complete(cover.presentation, max_rules=1)
        assert not sys_.complete
        with pytest.raises(BudgetExceeded,
                           match="^kernel membership needs a complete rewrite system$"):
            kernel_oracle(cover, sys_, 1, {})

    def test_agrees_with_the_reference_recursion(self, rng):
        # random words, and their squares and fourth powers, which enter later
        # kernels in the torsion groups; a fresh chain, so a fresh memo, per
        # word, then the catalog's chain, one memo for every level
        entered_later = 0
        for name in catalog.RECURSION_NAMES:
            cover, sys_ = catalog.cover_for(name)
            words = [random_word(rng, len(cover.presentation.gens), 8) for _ in range(60)]
            words += [u * k for u in words[:30] for k in (2, 4)]
            reference = {}
            for n in range(5):
                expected = [
                    reference_kernel_member(cover, sys_, u, n, reference) for u in words
                ]
                fresh = [catalog.chain.__wrapped__(name).member(n).is_trivial(u) for u in words]
                assert fresh == expected
                assert [kernel_member(name, u, n) for u in words] == expected
            entered_later += sum(
                reference[(rewriting.normal_form(sys_, u), 4)]
                and not reference[(rewriting.normal_form(sys_, u), 0)]
                for u in words
            )
        assert entered_later > 5

    def test_ad4_examples(self, grig_cover):
        cover, sys_ = grig_cover
        ad4 = parse_word("a d", cover.presentation.gens) * 4
        assert not kernel_member("grigorchuk", ad4, 0)
        assert kernel_member("grigorchuk", ad4, 1)
        assert chain_profile("grigorchuk", ad4, 5) == 1

    def test_empty_word_is_always_a_member(self):
        for n in range(4):
            assert kernel_member("grigorchuk", (), n)

    def test_deep_levels_answer_or_exceed_the_budget(self, grig_cover):
        cover, sys_ = grig_cover
        ad4 = parse_word("a d", cover.presentation.gens) * 4
        assert kernel_member("grigorchuk", (), 3000)
        assert kernel_member("grigorchuk", ad4, 3000)
        assert not kernel_member("grigorchuk", parse_word("a b", cover.presentation.gens), 3000)
        # d = (d, a) fixes the root, and the kernel test follows its first
        # section, d again, down to the level
        rec = parse_recursion(
            "alphabet 2\ngen a = perm(1 0) sections(1, 1)\n"
            "gen d = perm(0 1) sections(d, a)\n"
        )
        deep = universal_cover(nucleus(rec))
        deep_sys = rewriting.complete(deep.presentation)
        d = rewriting.normal_form(deep_sys, parse_word("d", deep.presentation.gens))
        assert not kernel_oracle(deep, deep_sys, 50, {})(d)
        assert not kernel_oracle(deep, deep_sys, 3000, {})(d)

    @pytest.mark.parametrize("name, radius, extra, deepest", [
        ("grigorchuk", 4, "", 2),
        ("basilica", 4, "b a b a^-1 b^-1 a b^-1 a^-1", 1),
        ("hanoi3", 3, "", 0),  # no nonempty normal form this short lies in a kernel
    ])
    def test_least_level_agrees_with_the_per_level_reference(self, name, radius, extra, deepest):
        # the normal forms of the free ball, and their squares and fourth
        # powers, which enter later kernels in the torsion groups
        cover, sys_ = catalog.cover_for(name)
        split = covers.section_split(cover, sys_)
        ball = [*free_ball(len(cover.presentation.gens), radius),
                parse_word(extra, cover.presentation.gens)]
        words = {rewriting.normal_form(sys_, free_reduce(u * k)) for u in ball for k in (1, 2, 4)}
        memo, reference = {}, {}
        levels = set()
        for u in words:
            least = contraction.least_level(u, split, memo, operator.not_)
            levels.add(least)
            expected = [reference_in_kernel(u, split, n, reference, operator.not_)
                        for n in range(8)]
            assert [least <= n for n in range(8)] == expected, u
        assert max(levels - {float("inf")}) == deepest and float("inf") in levels

    def test_u1_profile(self, grig_cover):
        cover, sys_ = grig_cover
        u1 = parse_word("a c a c", cover.presentation.gens) * 4
        assert chain_profile("grigorchuk", u1, 6) == 2

    def test_ab_never_enters(self, grig_cover):
        cover, sys_ = grig_cover
        ab = parse_word("a b", cover.presentation.gens)
        assert chain_profile("grigorchuk", ab, 6) is None

    def test_nested_kernels(self, rng):
        for _ in range(60):
            u = random_word(rng, 4, 10)
            for n in range(3):
                if kernel_member("grigorchuk", u, n):
                    assert kernel_member("grigorchuk", u, n + 1)

    def test_recursion_characterization(self, grig_cover, rng):
        # membership at level n is trivial root permutation plus membership of
        # both level-1 sections at level n-1
        cover, sys_ = grig_cover
        rec = cover.recursion
        for _ in range(60):
            u = random_word(rng, 4, 10)
            n = rng.randint(1, 3)
            direct = kernel_member("grigorchuk", u, n)
            split = rec.split(u)[0] == (0, 1) and all(
                kernel_member("grigorchuk", rec.section(u, (x,)), n - 1)
                for x in range(2)
            )
            assert direct == split

    def test_soundness_members_die_in_the_limit(self, grig, rng):
        hits = 0
        for _ in range(200):
            u = random_word(rng, 4, 8)
            if chain_profile("grigorchuk", u, 3) is not None:
                hits += 1
                assert contraction.is_trivial(grig.recursion, u)
        assert hits > 0

    def test_basilica_chain(self, basilica):
        cover, sys_ = catalog.cover_for("basilica")
        gens = cover.presentation.gens
        # b and its flip-conjugate have disjoint supports, so they commute in
        # the group but not in the free cover
        word = parse_word("b a b a^-1 b^-1 a b^-1 a^-1", gens)
        assert rewriting.normal_form(sys_, word) != ()
        assert contraction.is_trivial(basilica.recursion, word)
        assert chain_profile("basilica", word, 6) == 1


class TestNormalFormChain:
    """The `grigorchuk` chain members start `least_level` at the ball word
    itself, with no free reduction or rewriting."""

    def test_alternating_words_are_cover_normal_forms(self, grig_cover):
        # a word is irreducible when no rule's left side occurs in it, and
        # each subword of an alternating word is alternating: with no left
        # side longer than 10 letters, the radius-10 ball covers every length
        cover, sys_ = grig_cover
        assert max(len(rule.lhs) for rule in sys_.rules) <= 10
        for u in C2V.ball(10):
            assert rewriting.normal_form(sys_, u) == u

    def test_members_agree_with_kernel_member(self, grig_cover):
        cover, sys_ = grig_cover
        chain = catalog.chain("grigorchuk")
        assert chain.limit.congruence == C2V
        ball8 = list(C2V.ball(8))
        reference = {}
        for n in range(5):
            member = chain.member(n)
            expected = [reference_kernel_member(cover, sys_, u, n, reference) for u in ball8]
            assert [member.oracle(u) for u in ball8] == expected
            assert any(expected) and not all(expected)

