import random
from collections import deque

import pytest

from conftest import are_equal, random_vertex, random_word
from contracta import catalog
from contracta.contraction import (
    Budget,
    SectionAutomaton,
    _bisimulation_classes,
    section_closure,
)
from contracta.errors import BudgetExceeded, ParseError, SemanticError
from contracta.recursion import (
    DEFAULT_LEVEL_CAP,
    WreathRecursion,
    parse_recursion,
    perm_identity,
    perm_inverse,
)
from contracta.words import concat, free_reduce, invert, parse_word
from test_fuzz import random_recursion

GRIG_TEXT = """\
alphabet 2
gen a = perm(1 0) sections(1, 1)
gen b = perm(0 1) sections(a, c)
gen c = perm(0 1) sections(a, d)
gen d = perm(0 1) sections(1, b)
"""


def w(rec, text):
    return parse_word(text, rec.gens)


class TestParser:
    def test_grigorchuk_file(self):
        rec = parse_recursion(GRIG_TEXT)
        assert rec.degree == 2
        assert rec.gens == ("a", "b", "c", "d")
        assert rec.perm_table[0] == (1, 0)
        assert rec.section_table[0] == ((), ())

    def test_hanoi_file_accepted(self):
        rec = parse_recursion(
            "alphabet 3\n"
            "gen a = perm(0 2 1) sections(a, 1, 1)\n"
            "gen b = perm(2 1 0) sections(1, b, 1)\n"
            "gen c = perm(1 0 2) sections(1, 1, c)\n"
        )
        assert rec.degree == 3
        assert rec.perm_table[0] == (0, 2, 1)

    def test_undeclared_name_is_semantic_error(self):
        with pytest.raises(SemanticError, match="a"):
            parse_recursion("alphabet 2\ngen a = perm(1 0) sections(a, z)\n")

    def test_non_bijective_permutation(self):
        with pytest.raises(SemanticError, match="perm"):
            parse_recursion("alphabet 2\ngen a = perm(0 0) sections(1, 1)\n")

    def test_wrong_section_count(self):
        with pytest.raises(SemanticError, match="sections"):
            parse_recursion("alphabet 2\ngen a = perm(0 1) sections(1, 1, 1)\n")

    def test_parse_errors_carry_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_recursion("alphabet 2\nnonsense here\n")
        with pytest.raises(ParseError):
            parse_recursion("gen a = perm(0 1) sections(1, 1)\n")

    def test_forward_references_allowed(self):
        rec = parse_recursion(GRIG_TEXT)  # b references c before c is defined
        assert rec.section((2,), (1,)) == (3,)


class TestAction:
    def test_flip_moves_first_letter(self, grig):
        rec = grig.recursion
        assert rec.act(w(rec, "a"), (0,)) == (1,)

    def test_identity_acts_trivially(self, grig, rng):
        rec = grig.recursion
        for _ in range(20):
            v = random_vertex(rng, rec.degree, 6)
            assert rec.act((), v) == v

    def test_b_on_01(self, grig):
        rec = grig.recursion
        assert rec.act(w(rec, "b"), (0, 1)) == (0, 0)

    def test_right_action_law(self, all_recursion_groups, rng):
        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(50):
                u = random_word(rng, len(rec.gens), 8)
                v = random_word(rng, len(rec.gens), 8)
                x = random_vertex(rng, rec.degree, 5)
                assert rec.act(v, rec.act(u, x)) == rec.act(concat(u, v), x)


class TestSection:
    def test_section_of_b_at_0(self, grig):
        rec = grig.recursion
        assert rec.section(w(rec, "b"), (0,)) == w(rec, "a")

    def test_section_of_identity(self, grig, rng):
        rec = grig.recursion
        assert rec.section((), random_vertex(rng, 2, 5)) == ()

    def test_product_rule_example(self, grig):
        # (ab)_0 = a_0 b_{0 a} = b_1 = c
        rec = grig.recursion
        assert rec.section(w(rec, "a b"), (0,)) == w(rec, "c")

    def test_section_composition(self, all_recursion_groups, rng):
        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(50):
                u = random_word(rng, len(rec.gens), 10)
                v = random_vertex(rng, rec.degree, 3)
                x = random_vertex(rng, rec.degree, 3)
                assert rec.section(u, v + x) == rec.section(rec.section(u, v), x)

    def test_product_sections_up_to_group_equality(self, all_recursion_groups, rng):
        # (gh)_v equals g_v h_{v g} as group elements; the words can differ
        from contracta import contraction

        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(25):
                u = random_word(rng, len(rec.gens), 8)
                h = random_word(rng, len(rec.gens), 8)
                v = random_vertex(rng, rec.degree, 3)
                lhs = rec.section(concat(u, h), v)
                rhs = concat(rec.section(u, v), rec.section(h, rec.act(u, v)))
                assert are_equal(rec, lhs, rhs)

    def test_inverse_sections(self, all_recursion_groups, rng):
        # (h^-1)_v = (h_{v tau_{h^-1}})^-1
        for g in all_recursion_groups:
            rec = g.recursion
            for _ in range(50):
                h = random_word(rng, len(rec.gens), 8)
                x = random_vertex(rng, rec.degree, 1)
                lhs = rec.section(invert(h), x)
                rhs = invert(rec.section(h, rec.act(invert(h), x)))
                assert lhs == rhs


class TestLevels:
    def test_level_permutation_of_flip(self, grig):
        rec = grig.recursion
        # swaps the 0- and 1-subtrees: 00<->10, 01<->11
        assert rec.level_permutation(w(rec, "a"), 2) == (2, 3, 0, 1)

    def test_level_permutation_of_identity(self, grig):
        assert grig.recursion.level_permutation((), 3) == tuple(range(8))

    def test_b_has_trivial_root_permutation(self, grig):
        rec = grig.recursion
        assert rec.level_permutation(w(rec, "b"), 1) == (0, 1)

    def test_level_cap(self, grig):
        with pytest.raises(BudgetExceeded):
            grig.recursion.level_permutation((), 30, cap=2**20)

    def test_vertex_letters_out_of_range(self, grig):
        rec = grig.recursion
        with pytest.raises(SemanticError):
            rec.act(w(rec, "a"), (2,))
        with pytest.raises(SemanticError):
            rec.section(w(rec, "a"), (0, 5))

    def test_level_permutation_agrees_with_act(self, all_recursion_groups, rng):
        from itertools import product

        for g in all_recursion_groups:
            rec = g.recursion
            d = rec.degree
            for _ in range(10):
                u = random_word(rng, len(rec.gens), 8)
                n = rng.randint(0, 3)
                perm = rec.level_permutation(u, n)
                for i, v in enumerate(product(range(d), repeat=n)):
                    img = rec.act(u, v)
                    idx = 0
                    for x_ in img:
                        idx = idx * d + x_
                    assert perm[i] == idx


class TestIterate:
    """The level-n iterate of a word: its section at every vertex of X^n and
    its permutation of X^n."""

    def test_level_zero_is_identity_map(self, grig):
        rec = grig.recursion
        word = w(rec, "a b")
        assert rec.section(word, ()) == word
        assert rec.level_permutation(word, 0) == (0,)

    def test_ad4_level_one(self, grig):
        rec = grig.recursion
        word = w(rec, "a d") * 4
        assert [rec.section(word, (x,)) for x in (0, 1)] == [w(rec, "b b")] * 2
        assert rec.level_permutation(word, 1) == (0, 1)

    def test_basilica_generator(self, basilica):
        rec = basilica.recursion
        assert [rec.section(w(rec, "a"), (x,)) for x in (0, 1)] == [w(rec, "b"), ()]
        assert rec.level_permutation(w(rec, "a"), 1) == (1, 0)

    def test_composition_law(self, all_recursion_groups, rng):
        # the level-(m+n) iterate is the level-m iterate of each section of
        # the level-n iterate: u_{vt} = (u_v)_t, and vt goes to (v u)(t u_v)
        from itertools import product

        for g in all_recursion_groups:
            rec = g.recursion
            d = rec.degree
            for _ in range(10):
                u = random_word(rng, len(rec.gens), 8)
                m, n = rng.randint(0, 2), rng.randint(0, 2)
                outer = rec.level_permutation(u, n)
                direct = rec.level_permutation(u, m + n)
                for iv, v in enumerate(product(range(d), repeat=n)):
                    inner = rec.level_permutation(rec.section(u, v), m)
                    for it, t in enumerate(product(range(d), repeat=m)):
                        assert rec.section(u, v + t) == rec.section(rec.section(u, v), t)
                        assert direct[iv * d**m + it] == outer[iv] * d**m + inner[it]


# -- the one-pass kernel against the per-vertex walk it replaced ---------------
#
# Verbatim copies of the single-track kernel: letter sections of inverse
# generators re-derived with `invert`, one walk of the word per vertex letter,
# and the root permutation composed letter by letter.


def reference_perm_mul(p, q):
    """Right-action composition: apply p, then q."""
    return tuple(q[x] for x in p)


def reference_letter_perm(rec, letter: int):
    if letter > 0:
        return rec.perm_table[letter - 1]
    return perm_inverse(rec.perm_table[-letter - 1])


def reference_letter_section(rec, letter: int, x: int):
    if not 0 <= x < rec.degree:
        raise SemanticError(f"letter {x} out of range for degree {rec.degree}")
    if letter > 0:
        return rec.section_table[letter - 1][x]
    # (h^-1)_x = (h_{x tau_{h^-1}})^-1
    g = -letter - 1
    return invert(rec.section_table[g][perm_inverse(rec.perm_table[g])[x]])


def reference_word_perm(rec, word) -> tuple:
    p = perm_identity(rec.degree)
    for s in word:
        p = reference_perm_mul(p, reference_letter_perm(rec, s))
    return p


def reference_section(rec, word, vertex):
    """g_v, via (gh)_x = g_x h_{x tau_g} one vertex letter at a time."""
    w = word
    for x in vertex:
        if not 0 <= x < rec.degree:
            raise SemanticError(f"letter {x} out of range for degree {rec.degree}")
        out = []
        pos = x
        for s in w:
            for y in reference_letter_section(rec, s, pos):
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
            pos = reference_letter_perm(rec, s)[pos]
        w = tuple(out)
    return w


def reference_section_closure(rec, seeds, budget):
    """The closure built from one word_perm and d per-vertex sections per state."""
    d = rec.degree
    states, trans, perms = [], [], []
    index = {}
    queue = deque()

    def add(word, depth):
        word = free_reduce(word)
        if word in index:
            return index[word]
        if len(word) > budget.max_word_length:
            raise BudgetExceeded(
                f"section word of length {len(word)} exceeds cap "
                f"{budget.max_word_length}"
            )
        if len(states) >= budget.max_states:
            raise BudgetExceeded(f"section closure exceeds {budget.max_states} states")
        i = len(states)
        index[word] = i
        states.append(word)
        trans.append(None)
        perms.append(reference_word_perm(rec, word))
        queue.append((i, depth))
        return i

    add((), 0)
    for s in seeds:
        add(s, 0)
    while queue:
        i, depth = queue.popleft()
        if depth > budget.max_depth:
            raise BudgetExceeded(f"section closure deeper than {budget.max_depth}")
        trans[i] = tuple(
            add(reference_section(rec, states[i], (x,)), depth + 1) for x in range(d)
        )
    auto = SectionAutomaton(states, trans, perms, index)
    auto.classes = _bisimulation_classes(auto)
    return auto


def kernel_recursions():
    """The six catalog recursions, then the sequential seed-72 fuzz draw."""
    recs = [catalog.load(name).recursion for name in catalog.RECURSION_NAMES]
    draw = random.Random(72)
    return recs + [random_recursion(draw) for _ in range(100)]


class TestOnePassKernel:
    def test_split_matches_the_per_vertex_walk(self, rng):
        for rec in kernel_recursions():
            n = len(rec.gens)
            samples = [(s,) for s in range(-n, n + 1) if s]  # the stored letters
            samples += [random_word(rng, n, 12) for _ in range(40)]  # often not reduced
            for word in samples:
                perm, sections = rec.split(word)
                assert perm == reference_word_perm(rec, word)
                assert sections == tuple(
                    reference_section(rec, word, (x,)) for x in range(rec.degree)
                )
                x = rng.randrange(rec.degree)
                assert rec.split(word, (x,)) == ((perm[x],), (sections[x],))
                v = random_vertex(rng, rec.degree, 4)
                assert rec.section(word, v) == reference_section(rec, word, v)

    def test_composed_invariant_is_the_level_permutation(self, rng):
        for rec in kernel_recursions():
            g = catalog.recursion_group(rec, "kernel")
            depth = 6 if rec.degree == 2 else 4
            samples = [(), (1, -1), (-1, 1, 1)]
            samples += [random_word(rng, len(rec.gens), 10) for _ in range(25)]
            for word in samples:
                assert g.invariant(word) == rec.level_permutation(word, depth)

    def test_level_action_checks_its_level(self, grig):
        rec = grig.recursion
        with pytest.raises(BudgetExceeded):
            rec.level_action(21)
        with pytest.raises(ValueError):
            rec.level_action(0)

    def test_invariant_tables_wait_for_the_first_call(self, monkeypatch):
        rec = parse_recursion(GRIG_TEXT)
        calls = []
        original = WreathRecursion.level_permutation

        def counted(self, word, n, cap=DEFAULT_LEVEL_CAP):
            calls.append(word)
            return original(self, word, n, cap)

        monkeypatch.setattr(WreathRecursion, "level_permutation", counted)
        g = catalog.recursion_group(rec, "grig")
        assert calls == []
        g.invariant((1, 2))
        g.invariant((3,))
        assert sorted(calls) == [(-4,), (-3,), (-2,), (-1,), (1,), (2,), (3,), (4,)]

    def test_closure_matches_the_per_vertex_closure(self, rng):
        budget = Budget(max_states=300, max_depth=32, max_word_length=96)
        answered = 0
        for rec in kernel_recursions():
            seeds = [random_word(rng, len(rec.gens), 6) for _ in range(3)]

            def outcome(closure):
                try:
                    auto = closure(rec, seeds, budget)
                except BudgetExceeded as e:
                    return str(e)
                return auto.states, auto.trans, auto.perms, auto.classes, auto.index

            expected = outcome(reference_section_closure)
            assert outcome(section_closure) == expected
            answered += not isinstance(expected, str)
        assert 90 < answered < 106  # and some closures exceed the budget
