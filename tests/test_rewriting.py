import pytest

from conftest import random_word
from contracta import catalog, contraction, grig
from contracta.errors import ParseError
from contracta.rewriting import (
    Presentation,
    RewriteRule,
    _apply_rules,
    _bucket,
    complete,
    format_presentation,
    normal_form,
    parse_presentation,
)
from contracta.words import concat, free_reduce, parse_word

C2V_TEXT = """pres
gens a b c d
rel a a
rel b b
rel c c
rel d d
rel b c d
"""


@pytest.fixture(scope="module")
def c2v():
    pres = parse_presentation(C2V_TEXT)
    return pres, complete(pres)


@pytest.fixture(scope="module")
def c3c3():
    gens = ("a", "b")
    pres = Presentation(
        gens, (parse_word("a a a", gens), parse_word("b b b", gens))
    )
    return pres, complete(pres)


def test_parse_presentation_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_presentation("gens a b\nrel a a\n")  # missing header
    with pytest.raises(ParseError):
        parse_presentation("pres\nrel a a\n")  # rel before gens
    with pytest.raises(ParseError):
        parse_presentation("pres\ngens a\nwhat\n")


def test_format_roundtrip(c2v):
    pres, _ = c2v
    assert parse_presentation(format_presentation(pres)) == pres


def test_rule_orientation_is_enforced():
    with pytest.raises(ValueError):
        RewriteRule((1,), (2, 2))
    with pytest.raises(ValueError, match="rule must decrease shortlex order"):
        RewriteRule((1, 2), (1, 2))


@pytest.mark.parametrize("gens, relators, message", [
    (("a", "a"), (), "duplicate generators"),
    (("a",), ((),), "relators must be freely reduced and nonempty"),
    (("a", "b"), ((1, -1, 2),), "relators must be freely reduced and nonempty"),
])
def test_presentation_validation(gens, relators, message):
    with pytest.raises(ValueError, match=message):
        Presentation(gens, relators)


def test_presentations_and_rules_are_values():
    gens = ("a", "b")
    relators = (parse_word("a a", gens), parse_word("a b a^-1 b^-1", gens))
    pres = Presentation(gens, relators)
    again = Presentation(("a", "b"), tuple(list(relators)))
    assert pres == again and hash(pres) == hash(again)
    assert pres != Presentation(gens, relators[:1]) and pres != Presentation(("b", "a"), relators)
    rule = RewriteRule((2, 1), (1,))
    assert rule == RewriteRule((2, 1), (1,)) and hash(rule) == hash(RewriteRule((2, 1), (1,)))
    assert rule != RewriteRule((2, 1), ()) and rule != ((2, 1), (1,))


class TestCompletion:
    def test_c2v_completes_with_ten_core_rules(self, c2v):
        pres, sys_ = c2v
        assert sys_.complete
        core_rules = [r for r in sys_.rules if len(r.lhs) > 1]  # no a^-1 -> a aliases
        assert len(core_rules) == 10
        expected = {
            "a a": "1", "b b": "1", "c c": "1", "d d": "1",
            "b c": "d", "c b": "d", "b d": "c", "d b": "c",
            "c d": "b", "d c": "b",
        }
        from contracta.words import format_word

        got = {
            format_word(r.lhs, pres.gens): format_word(r.rhs, pres.gens)
            for r in core_rules
        }
        assert got == expected

    def test_free_presentation(self):
        pres = Presentation(("a",), ())
        sys_ = complete(pres)
        assert sys_.complete
        assert normal_form(sys_, (1, -1, 1)) == (1,)

    def test_c3c3_normal_forms_alternate(self, c3c3):
        pres, sys_ = c3c3
        assert sys_.complete
        # in the free product of two cyclic groups of order 3, normal forms
        # alternate between the factors with exponents 1 or 2 (= inverse)
        nf = normal_form(sys_, parse_word("a a a a b b a", pres.gens))
        assert nf == parse_word("a b^-1 a", pres.gens)
        for text, expect in [
            ("a a", "a^-1"),
            ("a a a", "1"),
            ("b b b b", "b"),
            ("a b a b", "a b a b"),
        ]:
            assert normal_form(sys_, parse_word(text, pres.gens)) == parse_word(
                expect, pres.gens
            )

    def test_c3c3_against_free_product_normal_form(self, c3c3, rng):
        # independent oracle: reduce syllable-wise with exponents mod 3
        pres, sys_ = c3c3

        def syllable_reduce(word):
            out = []
            for x in word:
                g, e = abs(x), (1 if x > 0 else -1)
                if out and out[-1][0] == g:
                    out[-1][1] = (out[-1][1] + e) % 3
                    if out[-1][1] == 0:
                        out.pop()
                else:
                    out.append([g, e % 3])
            letters = []
            for g, e in out:
                letters.extend([g] * e if e < 3 else [])
            return tuple(letters)

        for _ in range(200):
            u = random_word(rng, 2, 12)
            nf = normal_form(sys_, u)
            # compare as elements: same syllable reduction
            assert syllable_reduce(nf) == syllable_reduce(u)

    def test_incomplete_after_tiny_budget(self):
        gens = ("a", "b")
        # a presentation that needs more than one rule
        pres = Presentation(gens, (parse_word("a b a b a b", gens),))
        sys_ = complete(pres, max_rules=2)
        assert not sys_.complete
        with pytest.raises(ValueError):
            normal_form(sys_, (1,))

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_is_rejected(self, budget):
        gens = ("a", "b")
        pres = Presentation(gens, (parse_word("a b a b a b", gens),))
        with pytest.raises(ValueError, match="max_rules must be positive"):
            complete(pres, max_rules=budget)


class TestNormalForm:
    def test_bc_normalizes_to_d(self, c2v):
        pres, sys_ = c2v
        assert normal_form(sys_, parse_word("b c", pres.gens)) == parse_word(
            "d", pres.gens
        )

    def test_empty(self, c2v):
        assert normal_form(c2v[1], ()) == ()

    def test_abab_is_irreducible(self, c2v):
        pres, sys_ = c2v
        word = parse_word("a b a b", pres.gens)
        assert normal_form(sys_, word) == word

    def test_idempotent_and_shortening(self, c2v, rng):
        pres, sys_ = c2v
        for _ in range(300):
            u = random_word(rng, 4, 14)
            nf = normal_form(sys_, u)
            assert normal_form(sys_, nf) == nf
            assert len(nf) <= len(free_reduce(u))

    def test_confluence_on_products(self, c2v, c3c3, rng):
        for pres, sys_ in (c2v, c3c3):
            for _ in range(300):
                u = random_word(rng, len(pres.gens), 10)
                v = random_word(rng, len(pres.gens), 10)
                direct = normal_form(sys_, concat(u, v))
                stitched = normal_form(
                    sys_, concat(normal_form(sys_, u), normal_form(sys_, v))
                )
                assert direct == stitched

    def test_termination_strictly_decreases_shortlex(self, c2v):
        from contracta.words import shortlex_key

        _, sys_ = c2v
        for rule in sys_.rules:
            assert shortlex_key(rule.lhs) > shortlex_key(rule.rhs)


def test_soundness_against_contraction_oracle(grig, rng):
    # words that rewrite to nothing in the cover must act trivially
    pres = parse_presentation(C2V_TEXT)
    sys_ = complete(pres)
    rec = grig.recursion
    hits = 0
    for _ in range(400):
        u = random_word(rng, 4, 10)
        if normal_form(sys_, u) == ():
            hits += 1
            assert contraction.is_trivial(rec, u)
    assert hits > 0


def test_grig_reduce_agrees_with_knuth_bendix(rng):
    # two independent routes to the cover normal form
    from contracta import grig as grig_mod

    pres = parse_presentation(C2V_TEXT)
    sys_ = complete(pres)
    for _ in range(500):
        u = random_word(rng, 4, 12)
        assert grig_mod.reduce_word(u) == normal_form(sys_, u)


def test_cached_index_agrees_with_index_free_rewriting(rng):
    # a system indexes its rules once; here the lhs -> rhs table and the lhs
    # lengths are rebuilt from the rules for every word
    systems = [complete(grig.g_n_presentation(0))]
    systems += [catalog.cover_for(name)[1] for name in ("grigorchuk", "hanoi3")]
    for sys_ in systems:
        assert sys_.complete
        for _ in range(300):
            u = random_word(rng, len(sys_.gens), 40)
            assert sys_.rewrite(u) == _apply_rules(_bucket(sys_.rules), u)


@pytest.mark.parametrize("system", ["covers", "g0", "g1 at 300", "g1 at 600"])
def test_no_left_side_contains_another(system):
    # interreduction keeps every lhs out of every other, so critical pairs
    # need only the proper overlaps, complete or not
    if system == "covers":
        systems = [catalog.cover_for(name)[1] for name in catalog.RECURSION_NAMES]
    elif system == "g0":
        systems = [complete(grig.g_n_presentation(0))]
    else:
        systems = [complete(grig.g_n_presentation(1), max_rules=int(system.split()[-1]))]
        assert not systems[0].complete
    for sys_ in systems:
        lhs = [r.lhs for r in sys_.rules]
        assert len(set(lhs)) == len(lhs)
        for l1 in lhs:
            for l2 in lhs:
                inside = any(l1[i : i + len(l2)] == l2 for i in range(len(l1) - len(l2) + 1))
                assert l1 == l2 or not inside, (l1, l2)


def reference_apply_rules(rules, w):
    """Leftmost rewriting by a scan of the rules whose lhs starts with the
    current letter, backing up by the longest lhs after each rewrite."""
    by_first = {}
    for r in rules:
        by_first.setdefault(r.lhs[0], []).append(r)
    max_len = max((len(r.lhs) for r in rules), default=0)
    w = list(w)
    i = 0
    while i < len(w):
        hit = None
        for r in by_first.get(w[i], ()):
            n = len(r.lhs)
            if i + n <= len(w) and tuple(w[i : i + n]) == r.lhs:
                hit = r
                break
        if hit is None:
            i += 1
        else:
            w[i : i + len(hit.lhs)] = hit.rhs
            i = max(0, i - max_len + 1)
    return tuple(w)


def test_one_pass_rewriting_agrees_with_first_letter_scan(rng):
    # the lhs set stays substring-free, complete or not, so the first lhs to
    # end on the stack is the leftmost one and both make the same rewrites
    gens = ("a", "b")
    abab = Presentation(gens, (parse_word("a b a b a b", gens),))
    systems = [complete(grig.g_n_presentation(0))]
    systems += [catalog.cover_for(name)[1] for name in catalog.RECURSION_NAMES]
    systems += [
        complete(grig.g_n_presentation(1), max_rules=50),
        complete(abab, max_rules=2),
        complete(abab, max_rules=5),
    ]
    assert [s.complete for s in systems[-3:]] == [False] * 3
    for sys_ in systems:
        for _ in range(200):
            u = random_word(rng, len(sys_.gens), 40)
            assert sys_.rewrite(u) == reference_apply_rules(sys_.rules, u), u
