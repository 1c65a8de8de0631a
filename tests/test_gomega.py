import random
from collections import deque

import pytest

from conftest import random_word
from contracta import catalog, contraction, grig
from contracta import gomega as GO
from contracta.contraction import Budget, DEFAULT_BUDGET
from contracta.errors import BudgetExceeded, ParseError
from contracta.gomega import OmegaSequence
from contracta.grig import A, B, C, D, GENS, reduce_word
from contracta.rewriting import normal_form
from contracta.words import free_reduce, parse_word


def w(text):
    return parse_word(text, GENS)


def random_normal_form(rng, max_len):
    """A random alternating word of C2 * V of length up to `max_len`."""
    start = rng.randint(0, 1)  # 0: the word starts with `a`
    return tuple(
        A if (i + start) % 2 == 0 else rng.choice((B, C, D))
        for i in range(rng.randint(0, max_len))
    )


def shift(om):
    """The parameter one symbol along, as each tree level sees it."""
    if om.preperiod:
        return OmegaSequence(om.preperiod[1:], om.period)
    return OmegaSequence((), om.period[1:] + om.period[:1])


def section(om, word, vertex, offset=0):
    """The section state (normal form, canonical offset) of `word` at
    `vertex`, read at `offset` shifts of the parameter, by `om.split`."""
    state = (reduce_word(word), GO._canonical_offset(om, offset))
    for x in vertex:
        state = om.split(state)[1][x]
    return state


def random_omega(rng):
    pre = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 4)))
    return OmegaSequence(pre, per)


class TestSequence:
    def test_parse_and_str(self):
        om = OmegaSequence.parse(":012")
        assert om.preperiod == () and om.period == (0, 1, 2)
        assert str(om) == ":012"
        om2 = OmegaSequence.parse("20:1")
        assert om2.preperiod == (2, 0)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            OmegaSequence.parse("012")
        with pytest.raises(ParseError):
            OmegaSequence.parse(":3")
        with pytest.raises(ValueError):
            OmegaSequence((), ())

    def test_symbols_and_shift(self):
        om = OmegaSequence.parse("2:01")
        assert [om.symbol(k) for k in range(1, 6)] == [2, 0, 1, 0, 1]
        shifted = shift(om)
        assert [shifted.symbol(k) for k in range(1, 5)] == [0, 1, 0, 1]
        assert shift(shift(om)).symbol(1) == 1

    def test_shift_rotates_pure_period(self):
        om = OmegaSequence.parse(":012")
        assert str(shift(om)) == ":120"


class TestSections:
    def test_first_symbol_zero_gives_flip_section(self):
        # the period has length 1, so every offset past 0 is canonically 0
        assert section(OmegaSequence.parse(":0"), (B,), (0,)) == ((A,), 0)

    def test_first_symbol_two_gives_trivial_section(self):
        assert section(OmegaSequence.parse(":2"), (B,), (0,)) == ((), 0)

    def test_identity_sections(self, rng):
        om = OmegaSequence.parse(":012")
        for v in [(0,), (1,), (0, 1), (1, 1, 0)]:
            assert section(om, (), v)[0] == ()

    def test_right_half_keeps_the_letter(self):
        assert section(OmegaSequence.parse(":012"), (C,), (1,)) == ((C,), 1)

    def test_section_composition(self, rng):
        # the split's section at v, then the per-letter reference's at x
        om = OmegaSequence.parse("1:02")
        for _ in range(50):
            word = tuple(rng.choice([A, B, C, D]) for _ in range(rng.randint(0, 8)))
            v = tuple(rng.randint(0, 1) for _ in range(2))
            x = tuple(rng.randint(0, 1) for _ in range(2))
            inner, offset = section(om, word, v)
            nested, offset = _reference_section(om, inner, x, offset)
            assert section(om, word, v + x) == (nested, GO._canonical_offset(om, offset))


class TestTriviality:
    def test_relations_hold_for_twenty_random_parameters(self, rng):
        for _ in range(20):
            om = random_omega(rng)
            for text in ["a a", "b b", "c c", "d d", "b c d"]:
                assert GO.omega_is_trivial(om, w(text))

    def test_empty_word(self):
        assert GO.omega_is_trivial(OmegaSequence.parse(":012"), ())

    def test_constant_zero_kills_d(self):
        assert GO.omega_is_trivial(OmegaSequence.parse(":0"), (D,))
        assert not GO.omega_is_trivial(OmegaSequence.parse(":0"), (B,))

    def test_constant_zero_parameter_gives_infinite_dihedral(self):
        # with the constant parameter the second and third torsion letters
        # coincide and the fourth dies, leaving two involutions whose product
        # has infinite order
        om = OmegaSequence.parse(":0")
        assert GO.omega_is_trivial(om, (B, C))  # b c^-1 = b c: c is an involution
        for k in range(1, 9):
            assert not GO.omega_is_trivial(om, (A, B) * k)
        assert GO.omega_is_trivial(om, (A, B, B, A))

    def test_constant_parameter_growth_is_linear(self):
        # infinite dihedral ball sizes over the four marked generators:
        # gamma(n) = 2n + 1
        from contracta import catalog, growth

        g = catalog.load("gomega::0")
        table = growth.ball_sizes(g.equal, 4, 6)
        assert table.gamma == [2 * n + 1 for n in range(7)]

    def test_specializes_to_the_self_similar_group(self, grig, rng):
        om = OmegaSequence.parse(":012")
        rec = grig.recursion
        for _ in range(200):
            u = random_word(rng, 4, 12)
            assert GO.omega_is_trivial(om, u) == contraction.is_trivial(rec, u)

    def test_conjugation_identities(self, rng):
        # a X a has sections (X at one shift, flip-or-nothing per the table)
        rows = {B: (1, 1, 0), C: (1, 0, 1), D: (0, 1, 1)}
        for _ in range(20):
            om = random_omega(rng)
            for X in (B, C, D):
                flip, (s0, s1) = om.split(((A, X, A), 0))
                after = GO._canonical_offset(om, 1)
                expected_flip = (A,) if rows[X][om.symbol(1)] else ()
                assert (flip, s0, s1) == (0, ((X,), after), (expected_flip, after))


# The free-group map behind `gomega._split`, kept as its reference: the
# level-1 images of the four generators in the base cover, one table per symbol
_PHI = {
    i: {
        A: ((), (), (1, 0)),
        B: (((A,) if GO._A_PART[B][i] else ()), (B,), (0, 1)),
        C: (((A,) if GO._A_PART[C][i] else ()), (C,), (0, 1)),
        D: (((A,) if GO._A_PART[D][i] else ()), (D,), (0, 1)),
    }
    for i in (0, 1, 2)
}


def phi_i_apply(i: int, w) -> tuple:
    """Level-1 image of a word under the symbol-i splitting: a pair of freely
    reduced component words and the root permutation."""
    if i not in (0, 1, 2):
        raise ValueError("symbol must be 0, 1, or 2")
    comps = [(), ()]
    perm = (0, 1)
    for s in free_reduce(w):
        u0, u1, tau = _PHI[i][abs(s)]
        if s < 0:
            # wreath inverse; both elements of S_2 are self-inverse, so the
            # permutation stays and the components permute and invert
            u0, u1 = (
                tuple(-y for y in reversed((u0, u1)[tau[0]])),
                tuple(-y for y in reversed((u0, u1)[tau[1]])),
            )
        comps = [
            free_reduce(comps[x] + (u0, u1)[perm[x]]) for x in (0, 1)
        ]
        perm = tuple(tau[perm[x]] for x in (0, 1))
    return comps[0], comps[1], perm


class TestPhi:
    def test_tables(self):
        assert phi_i_apply(1, (C,)) == ((), (C,), (0, 1))
        assert phi_i_apply(0, (B,)) == ((A,), (B,), (0, 1))
        assert phi_i_apply(2, (B,)) == ((), (B,), (0, 1))
        assert phi_i_apply(0, (D,)) == ((), (D,), (0, 1))

    def test_empty(self):
        assert phi_i_apply(0, ()) == ((), (), (0, 1))

    def test_ab_under_phi0(self):
        assert phi_i_apply(0, (A, B)) == ((B,), (A,), (1, 0))

    def test_homomorphism(self, rng):
        from contracta.words import concat

        for i in (0, 1, 2):
            for _ in range(50):
                u = random_word(rng, 4, 8)
                v = random_word(rng, 4, 8)
                u0, u1, tu = phi_i_apply(i, u)
                v0, v1, tv = phi_i_apply(i, v)
                combined = phi_i_apply(i, concat(u, v))
                pair = [concat(u0, (v0, v1)[tu[0]]), concat(u1, (v0, v1)[tu[1]])]
                perm = tuple(tv[tu[x]] for x in (0, 1))
                assert combined == (pair[0], pair[1], perm)

    def test_inverse_letters(self):
        # the image of an inverse letter is the wreath inverse of the image
        u0, u1, tau = phi_i_apply(0, (-B,))
        assert (u0, u1, tau) == ((-A,), (-B,), (0, 1))
        assert phi_i_apply(0, (-A,)) == ((), (), (1, 0))


@pytest.fixture(scope="module")
def sys_():
    return catalog.cover_for("grigorchuk")[1]


class TestKernel:

    def test_base_relator_is_level_zero(self):
        for om_text in (":012", ":0", "12:0"):
            om = OmegaSequence.parse(om_text)
            assert GO.omega_kernel_member(om, w("a a"), 0)

    def test_ad4_profile_matches_cover_chain(self):
        om = OmegaSequence.parse(":012")
        ad4 = w("a d") * 4
        assert not GO.omega_kernel_member(om, ad4, 0)
        assert GO.omega_kernel_member(om, ad4, 1)

    def test_ab_never_a_member(self):
        om = OmegaSequence.parse(":012")
        for n in range(5):
            assert not GO.omega_kernel_member(om, w("a b"), n)

    def test_kernel_nesting(self, rng):
        om = OmegaSequence.parse(":012")
        for _ in range(60):
            u = random_word(rng, 4, 10)
            for n in range(3):
                if GO.omega_kernel_member(om, u, n):
                    assert GO.omega_kernel_member(om, u, n + 1)

    def test_members_are_trivial_in_the_limit(self, rng):
        om = OmegaSequence.parse(":012")
        hits = 0
        for _ in range(150):
            u = random_word(rng, 4, 8)
            if GO.omega_kernel_member(om, u, 3):
                hits += 1
                assert GO.omega_is_trivial(om, u)
        assert hits > 0

    def test_deep_levels_answer_or_exceed_the_budget(self):
        # the identity lies in every kernel, and at :012 a nontrivial word
        # meets a root move within a few levels, so both answer at any depth
        om = OmegaSequence.parse(":012")
        assert GO.omega_kernel_member(om, (), 3000)
        assert GO.omega_kernel_member(om, w("a d") * 4, 3000)
        assert not GO.omega_kernel_member(om, w("a b"), 3000)
        # at :0, d = (1, d) never moves the root and never empties: it is
        # in no kernel, and the test recurses as deep as the level
        zero = OmegaSequence.parse(":0")
        memo = {}
        with pytest.raises(BudgetExceeded, match="level-3000 kernel test exceeds"):
            GO.omega_kernel_member(zero, (D,), 3000, memo)
        # what the failed walk left in the memo is sound
        assert not GO.omega_kernel_member(zero, (D,), 50, memo)
        assert GO.omega_kernel_member(zero, (), 3000, memo)
        assert GO.omega_kernel_member(zero, (D, D), 50, memo)

    def test_profiles_match_the_cover_chain(self, sys_, rng):
        # for the 3-periodic parameter the two level maps differ only by a
        # cyclic relabeling of the torsion letters, so the kernels coincide
        from contracta import covers

        om = OmegaSequence.parse(":012")
        cover, _ = catalog.cover_for("grigorchuk")
        ad4 = w("a d") * 4
        words = [ad4, w("a c a c") * 4, w("a b"), ()]
        words += [random_word(rng, 4, 8) for _ in range(40)]
        for u in words:
            cover_profile = covers.kernel_chain_profile(cover, sys_, u, 4)
            omega_profile = next(
                (n for n in range(5) if GO.omega_kernel_member(om, u, n)),
                None,
            )
            assert cover_profile == omega_profile


# -- the per-word oracles that `_split` and the memos replaced, kept as
# references: the BFS over per-letter sections, and the kernel chain on
# phi_i_apply with level 0 decided by Knuth-Bendix on the C2 * V cover


def _reference_letter_sections(omega, letter, offset):
    if letter == A:
        return (), ()
    first = omega.symbol(offset + 1)
    apart = (A,) if GO._A_PART[letter][first] else ()
    return apart, (letter,)


def _reference_section(omega, g, vertex, offset=0):
    """Section at a vertex, letter by letter, with its offset; every tree
    level shifts the parameter once."""
    word = reduce_word(g)
    for x in vertex:
        out = []
        pos = x
        for s in word:
            secs = _reference_letter_sections(omega, s, offset)
            out.extend(secs[pos])
            if s == A:
                pos ^= 1
        word, offset = reduce_word(out), offset + 1
    return word, offset


def reference_is_trivial(omega, g, budget=DEFAULT_BUDGET, offset=0):
    start = (reduce_word(g), GO._canonical_offset(omega, offset))
    seen = {start}
    queue = deque([start])
    while queue:
        word, offset = queue.popleft()
        if sum(1 for x in word if x == A) % 2:
            return False
        for x in (0, 1):
            nxt, after = _reference_section(omega, word, (x,), offset)
            state = (nxt, GO._canonical_offset(omega, after))
            if state not in seen:
                if len(seen) >= budget.max_states:
                    raise BudgetExceeded(
                        f"section states exceed {budget.max_states}"
                    )
                seen.add(state)
                queue.append(state)
    return True


def reference_kernel_member(omega, w, n, sys, _memo=None):
    if n < 0:
        raise ValueError("level must be >= 0")
    if _memo is None:
        _memo = {}
    w = tuple(reduce_word(w))
    key = (w, str(omega), n)
    if key in _memo:
        return _memo[key]
    if n == 0:
        result = normal_form(sys, w) == ()
    else:
        w0, w1, tau = phi_i_apply(omega.symbol(1), w)
        shifted = shift(omega)
        result = tau == (0, 1) and all(
            reference_kernel_member(shifted, c, n - 1, sys, _memo) for c in (w0, w1)
        )
    _memo[key] = result
    return result


def is_identity(state):
    return state[0] == ()


AGREEMENT_OMEGAS = (":0", ":01", ":012", "0:12", "2:0121", "12:10220", "01:201", ":01202")
LEVELS = range(5)


def past_preperiod(om):
    """An offset past the preperiod that is not canonical."""
    return len(om.preperiod) + len(om.period) + 1


def shifted(om, k):
    for _ in range(k):
        om = shift(om)
    return om


@pytest.fixture(scope="module")
def ball9():
    return list(grig.CoverCongruence().ball(9))


@pytest.fixture(scope="module")
def references(ball9, sys_):
    """Per parameter: the reference triviality of each ball word and its
    reference kernel membership at each level, at offset 0 and past the
    preperiod, where the kernel chain is that of the shifted parameter."""
    out = {}
    for text in AGREEMENT_OMEGAS:
        om = OmegaSequence.parse(text)
        past = past_preperiod(om)
        answers = []
        for offset, chain_om in ((0, om), (past, shifted(om, past))):
            trivial = [reference_is_trivial(om, u, offset=offset) for u in ball9]
            memos = {n: {} for n in LEVELS}
            kernel = {
                n: [reference_kernel_member(chain_om, u, n, sys_, memos[n]) for u in ball9]
                for n in LEVELS
            }
            answers.append((trivial, kernel))
        out[text] = answers
    return out


class TestAgreement:
    """The one-pass split and the memoized oracles agree with the per-word
    references on the radius-9 ball of C2 * V."""

    def test_split_is_phi_then_reduce(self, ball9, rng):
        for symbol in (0, 1, 2):
            for u in ball9:
                u0, u1, tau = phi_i_apply(symbol, u)
                flip = 0 if tau == (0, 1) else 1
                assert GO._split(symbol, u) == (reduce_word(u0), reduce_word(u1), flip)
        # past the ball: normal forms of length up to 40, split by
        # OmegaSequence.split at every canonical offset of each parameter
        for text in AGREEMENT_OMEGAS:
            om = OmegaSequence.parse(text)
            for offset, (symbol, after) in enumerate(om.steps):
                for _ in range(60):
                    u = random_normal_form(rng, 40)
                    u0, u1, tau = phi_i_apply(symbol, u)
                    flip = 0 if tau == (0, 1) else 1
                    sections = ((reduce_word(u0), after), (reduce_word(u1), after))
                    assert om.split((u, offset)) == (flip, sections), (text, offset, u)

    def test_sections_match_the_reference(self, ball9):
        om = OmegaSequence.parse("1:02")
        for u in ball9[::7]:
            for offset in (0, past_preperiod(om)):
                for v in [(0,), (1,), (0, 1), (1, 1, 0)]:
                    word, after = _reference_section(om, u, v, offset)
                    assert section(om, u, v, offset) == (word, GO._canonical_offset(om, after))

    @pytest.mark.parametrize("text", AGREEMENT_OMEGAS)
    def test_fresh_memo_per_word(self, text, ball9, references):
        om = OmegaSequence.parse(text)
        (trivial, kernel), (trivial_past, kernel_past) = references[text]
        assert [GO.omega_is_trivial(om, u) for u in ball9] == trivial
        for n in LEVELS:
            assert [GO.omega_kernel_member(om, u, n) for u in ball9] == kernel[n]
        start = GO._canonical_offset(om, past_preperiod(om))
        assert [contraction.walk((u, start), om.split) for u in ball9] == trivial_past
        for n in LEVELS:
            got = [
                contraction.in_kernel((reduce_word(u), start), om.split, n, {}, is_identity)
                for u in ball9
            ]
            assert got == kernel_past[n]

    @pytest.mark.parametrize("text", AGREEMENT_OMEGAS)
    def test_shared_memo_in_any_order(self, text, ball9, references):
        om = OmegaSequence.parse(text)
        (trivial, kernel), _ = references[text]
        shuffled = list(range(len(ball9)))
        random.Random(text).shuffle(shuffled)
        for order in (shuffled, list(reversed(range(len(ball9))))):
            memo = {}
            got = {i: GO.omega_is_trivial(om, ball9[i], _memo=memo) for i in order}
            assert [got[i] for i in range(len(ball9))] == trivial
            memo = {}  # one memo for every level, too
            for n in LEVELS:
                got = {i: GO.omega_kernel_member(om, ball9[i], n, memo) for i in order}
                assert [got[i] for i in range(len(ball9))] == kernel[n]

    def test_kernel_memo_keeps_shifts_apart(self, sys_):
        # (ad)^4 is the left section of (bada)^4 under symbol 0, so asking for
        # the lift at level 2 decides (ad)^4 at level 1 one shift along, where
        # symbol 1 puts it outside the kernel; at the start it is inside
        om = OmegaSequence.parse(":01")
        ad4, lift = w("a d") * 4, w("b a d a") * 4
        assert GO._split(0, lift) == (ad4, (), 0)
        memo = {}
        assert not GO.omega_kernel_member(om, lift, 2, memo)
        assert not reference_kernel_member(om, lift, 2, sys_)
        assert GO.omega_kernel_member(om, ad4, 1, memo)
        assert not GO.omega_kernel_member(shift(om), ad4, 1)

    def test_inverse_letters_and_free_words(self, rng):
        om = OmegaSequence.parse("2:0121")
        memo = {}
        for _ in range(200):
            u = random_word(rng, 4, 10)
            expected = reference_is_trivial(om, u)
            assert GO.omega_is_trivial(om, u) == expected
            assert GO.omega_is_trivial(om, u, _memo=memo) == expected


class TestWalkMemo:
    @pytest.mark.parametrize("text", [":012", "01:12", "2:0112"])
    def test_a_shared_memo_answers_as_fresh_ones(self, text, ball9):
        # random words, and random words times a conjugate of a trivial
        # word of the radius-9 ball, which walks through trivial states
        om = OmegaSequence.parse(text)
        rng = random.Random(text)
        relators = [u for u in ball9 if u and GO.omega_is_trivial(om, u)]
        words = []
        for _ in range(2_000):
            u = random_word(rng, 4, 12)
            if rng.random() < 0.5:
                c = random_word(rng, 4, 4)
                u += c + rng.choice(relators) + tuple(reversed(c))
            words.append(u)
        memo = {}
        shared = [GO.omega_is_trivial(om, u, _memo=memo) for u in words]
        assert shared == [GO.omega_is_trivial(om, u) for u in words]
        assert 0 < sum(shared) < len(words)
        assert False in memo.values() and True in memo.values()


class TestBudget:
    def _states(self, om, u):
        """How many states the reference search adds for a trivial word: the
        least budget that decides it."""
        for k in range(1, 1000):
            try:
                assert reference_is_trivial(om, u, Budget(max_states=k))
                return k
            except BudgetExceeded:
                pass
        raise AssertionError("no budget below 1000 decides the word")

    def test_fresh_memo_checks_the_budget_before_adding_a_state(self):
        om = OmegaSequence.parse(":012")
        u = w("a d") * 4
        k = self._states(om, u)
        assert k > 1
        assert GO.omega_is_trivial(om, u, Budget(max_states=k))
        with pytest.raises(BudgetExceeded, match=f"section states exceed {k - 1}"):
            GO.omega_is_trivial(om, u, Budget(max_states=k - 1))
        with pytest.raises(BudgetExceeded, match="section states exceed 1"):
            GO.omega_is_trivial(om, u, Budget(max_states=1), _memo={})

    def test_a_memo_hit_only_turns_budget_failures_into_answers(self, ball9):
        om = OmegaSequence.parse(":012")
        small = Budget(max_states=4)
        memo = {}
        failed = answered = 0
        for u in ball9:
            expected = reference_is_trivial(om, u)
            try:
                fresh = GO.omega_is_trivial(om, u, small)
            except BudgetExceeded:
                fresh = None
            try:
                shared = GO.omega_is_trivial(om, u, small, _memo=memo)
            except BudgetExceeded:
                shared = None
            if fresh is not None:
                assert fresh == shared == expected
            elif shared is not None:
                assert shared == expected
                answered += 1
            else:
                failed += 1
        assert answered > 0 and failed > 0

    def test_a_warm_memo_answers_within_any_budget(self):
        om = OmegaSequence.parse(":012")
        u = w("a d") * 4
        memo = {}
        assert GO.omega_is_trivial(om, u, _memo=memo)
        assert GO.omega_is_trivial(om, u, Budget(max_states=1), _memo=memo)
