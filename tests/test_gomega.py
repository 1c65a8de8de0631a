import random
from collections import deque
from itertools import product

import pytest

from conftest import partition, random_word, reference_in_kernel, reference_level_action
from contracta import catalog, contraction, grig
from contracta import gomega as GO
from contracta.contraction import Budget, DEFAULT_BUDGET, portrait
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


def symbol(om, k):
    """The k-th symbol, 1-indexed: `OmegaSequence.symbol` as it was."""
    if k < 1:
        raise ValueError("symbols are 1-indexed")
    if k <= len(om.preperiod):
        return om.preperiod[k - 1]
    return om.period[(k - 1 - len(om.preperiod)) % len(om.period)]


def canonical_offset(om, offset):
    """`gomega._canonical_offset` as it was: an offset past the preperiod,
    taken modulo the period."""
    pre = len(om.preperiod)
    if offset <= pre:
        return offset
    return pre + (offset - pre) % len(om.period)


def section(om, word, vertex, offset=0):
    """The section state (normal form, canonical offset) of `word` at
    `vertex`, read at `offset` shifts of the parameter, by `om.split`."""
    state = (reduce_word(word), canonical_offset(om, offset))
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
        assert [symbol(om, k) for k in range(1, 6)] == [2, 0, 1, 0, 1]
        shifted = shift(om)
        assert [symbol(shifted, k) for k in range(1, 5)] == [0, 1, 0, 1]
        assert symbol(shift(shift(om)), 1) == 1

    def test_steps_match_the_symbols_and_canonical_offsets(self):
        # all 4,800 parameters with a preperiod of at most 3 symbols and a
        # period of at most 4
        for pre in range(4):
            for per in range(1, 5):
                for seq in product((0, 1, 2), repeat=pre + per):
                    om = OmegaSequence(seq[:pre], seq[pre:])
                    assert om.steps == tuple(
                        (symbol(om, k + 1), canonical_offset(om, k + 1)) for k in range(pre + per)
                    ), om

    def test_shift_rotates_pure_period(self):
        om = OmegaSequence.parse(":012")
        assert str(shift(om)) == ":120"

    def test_steps_are_made_once(self):
        om = OmegaSequence.parse("2:01")
        steps = om.steps
        assert om.steps is steps and steps == ((2, 1), (0, 2), (1, 1))

    def test_equal_parameters_are_equal(self):
        om = OmegaSequence.parse(":012")
        om.steps  # a cached table takes no part in equality
        assert om == OmegaSequence((), (0, 1, 2)) and hash(om) == hash(OmegaSequence((), (0, 1, 2)))
        assert om != OmegaSequence.parse(":021") and om != OmegaSequence.parse("0:120")


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
            assert section(om, word, v + x) == (nested, canonical_offset(om, offset))


class TestTriviality:
    def test_relations_hold_for_twenty_random_parameters(self, rng):
        for _ in range(20):
            om = random_omega(rng)
            for text in ["a a", "b b", "c c", "d d", "b c d"]:
                assert GO.normal_form_is_trivial(om, reduce_word(w(text)))

    def test_empty_word(self):
        assert GO.normal_form_is_trivial(OmegaSequence.parse(":012"), reduce_word(()))

    def test_constant_zero_kills_d(self):
        assert GO.normal_form_is_trivial(OmegaSequence.parse(":0"), reduce_word((D,)))
        assert not GO.normal_form_is_trivial(OmegaSequence.parse(":0"), reduce_word((B,)))

    def test_constant_zero_parameter_gives_infinite_dihedral(self):
        # with the constant parameter the second and third torsion letters
        # coincide and the fourth dies, leaving two involutions whose product
        # has infinite order
        om = OmegaSequence.parse(":0")
        # b c^-1 = b c: c is an involution
        assert GO.normal_form_is_trivial(om, reduce_word((B, C)))
        for k in range(1, 9):
            assert not GO.normal_form_is_trivial(om, reduce_word((A, B) * k))
        assert GO.normal_form_is_trivial(om, reduce_word((A, B, B, A)))

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
            expected = contraction.is_trivial(rec, u)
            assert GO.normal_form_is_trivial(om, reduce_word(u)) == expected

    def test_conjugation_identities(self, rng):
        # a X a has sections (X at one shift, flip-or-nothing per the table)
        rows = {B: (1, 1, 0), C: (1, 0, 1), D: (0, 1, 1)}
        for _ in range(20):
            om = random_omega(rng)
            for X in (B, C, D):
                flip, (s0, s1) = om.split(((A, X, A), 0))
                after = canonical_offset(om, 1)
                expected_flip = (A,) if rows[X][symbol(om, 1)] else ()
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
            assert GO.normal_form_kernel_member(om, reduce_word(w("a a")), 0)

    def test_ad4_profile_matches_cover_chain(self):
        om = OmegaSequence.parse(":012")
        ad4 = w("a d") * 4
        assert not GO.normal_form_kernel_member(om, reduce_word(ad4), 0)
        assert GO.normal_form_kernel_member(om, reduce_word(ad4), 1)

    def test_ab_never_a_member(self):
        om = OmegaSequence.parse(":012")
        for n in range(5):
            assert not GO.normal_form_kernel_member(om, reduce_word(w("a b")), n)

    def test_kernel_nesting(self, rng):
        om = OmegaSequence.parse(":012")
        for _ in range(60):
            u = random_word(rng, 4, 10)
            for n in range(3):
                if GO.normal_form_kernel_member(om, reduce_word(u), n):
                    assert GO.normal_form_kernel_member(om, reduce_word(u), n + 1)

    def test_members_are_trivial_in_the_limit(self, rng):
        om = OmegaSequence.parse(":012")
        hits = 0
        for _ in range(150):
            u = random_word(rng, 4, 8)
            if GO.normal_form_kernel_member(om, reduce_word(u), 3):
                hits += 1
                assert GO.normal_form_is_trivial(om, reduce_word(u))
        assert hits > 0

    def test_deep_levels_answer_or_exceed_the_budget(self):
        # the identity lies in every kernel, and at :012 a nontrivial word
        # meets a root move within a few levels, so both answer at any depth
        om = OmegaSequence.parse(":012")
        assert GO.normal_form_kernel_member(om, reduce_word(()), 3000)
        assert GO.normal_form_kernel_member(om, reduce_word(w("a d") * 4), 3000)
        assert not GO.normal_form_kernel_member(om, reduce_word(w("a b")), 3000)
        # at :0, d = (1, d) never moves the root and never empties: it is
        # in no kernel, at any depth
        zero = OmegaSequence.parse(":0")
        memo = {}
        for n in (3000, 100_000, 50):
            assert not GO.normal_form_kernel_member(zero, reduce_word((D,)), n, memo)
        assert GO.normal_form_kernel_member(zero, reduce_word(()), 3000, memo)
        assert GO.normal_form_kernel_member(zero, reduce_word((D, D)), 50, memo)

    def test_the_walk_charges_the_states_it_splits(self):
        # (adacab)^16 lies in the level-4 kernel at :012, which the walk
        # finds by splitting nine states
        om = OmegaSequence.parse(":012")
        state = (w("a d a c a b") * 16, 0)
        least = contraction.least_level(state, om.split, {}, GO._is_identity, Budget(max_states=9))
        assert least == 4
        memo = {}
        with pytest.raises(BudgetExceeded, match="section states exceed 8"):
            contraction.least_level(state, om.split, memo, GO._is_identity, Budget(max_states=8))
        # the failed walk left only finished states, at their least levels
        assert memo and all(
            contraction.least_level(s, om.split, {}, GO._is_identity) == level
            for s, level in memo.items()
        )

    def test_profiles_match_the_cover_chain(self, rng):
        # for the 3-periodic parameter the two level maps differ only by a
        # cyclic relabeling of the torsion letters, so the kernels coincide
        om = OmegaSequence.parse(":012")
        chain = catalog.chain("grigorchuk")
        ad4 = w("a d") * 4
        words = [ad4, w("a c a c") * 4, w("a b"), ()]
        words += [random_word(rng, 4, 8) for _ in range(40)]
        for u in words:
            cover_profile = next(
                (n for n in range(5) if chain.member(n).is_trivial(u)), None)
            omega_profile = next(
                (n for n in range(5) if GO.normal_form_kernel_member(om, reduce_word(u), n)),
                None,
            )
            assert cover_profile == omega_profile


# -- the per-word oracles that `_split` and the memos replaced, kept as
# references: the BFS over per-letter sections, and the kernel chain on
# phi_i_apply with level 0 decided by Knuth-Bendix on the C2 * V cover


def _reference_letter_sections(omega, letter, offset):
    if letter == A:
        return (), ()
    first = symbol(omega, offset + 1)
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
    start = (reduce_word(g), canonical_offset(omega, offset))
    seen = {start}
    queue = deque([start])
    while queue:
        word, offset = queue.popleft()
        if sum(1 for x in word if x == A) % 2:
            return False
        for x in (0, 1):
            nxt, after = _reference_section(omega, word, (x,), offset)
            state = (nxt, canonical_offset(omega, after))
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
        w0, w1, tau = phi_i_apply(symbol(omega, 1), w)
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
    return list(grig.C2V.ball(9))


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
                    assert section(om, u, v, offset) == (word, canonical_offset(om, after))

    @pytest.mark.parametrize("text", AGREEMENT_OMEGAS)
    def test_fresh_memo_per_word(self, text, ball9, references):
        om = OmegaSequence.parse(text)
        (trivial, kernel), (trivial_past, kernel_past) = references[text]
        assert [GO.normal_form_is_trivial(om, reduce_word(u)) for u in ball9] == trivial
        for n in LEVELS:
            got = [GO.normal_form_kernel_member(om, reduce_word(u), n) for u in ball9]
            assert got == kernel[n]
        start = canonical_offset(om, past_preperiod(om))
        assert [contraction.walk((u, start), om.split) for u in ball9] == trivial_past
        states = [(reduce_word(u), start) for u in ball9]
        for n in LEVELS:
            got = [reference_in_kernel(state, om.split, n, {}, is_identity) for state in states]
            assert got == kernel_past[n]
            got = [contraction.least_level(state, om.split, {}, is_identity) <= n for state in states]
            assert got == kernel_past[n]

    @pytest.mark.parametrize("text", AGREEMENT_OMEGAS)
    def test_shared_memo_in_any_order(self, text, ball9, references):
        om = OmegaSequence.parse(text)
        (trivial, kernel), _ = references[text]
        shuffled = list(range(len(ball9)))
        random.Random(text).shuffle(shuffled)
        for order in (shuffled, list(reversed(range(len(ball9))))):
            memo = {}
            got = {i: GO.normal_form_is_trivial(om, reduce_word(ball9[i]), memo=memo)
                   for i in order}
            assert [got[i] for i in range(len(ball9))] == trivial
            memo = {}  # one memo for every level, too
            for n in LEVELS:
                got = {i: GO.normal_form_kernel_member(om, reduce_word(ball9[i]), n, memo)
                       for i in order}
                assert [got[i] for i in range(len(ball9))] == kernel[n]

    def test_kernel_memo_keeps_shifts_apart(self, sys_):
        # (ad)^4 is the left section of (bada)^4 under symbol 0, so asking for
        # the lift at level 2 decides (ad)^4 at level 1 one shift along, where
        # symbol 1 puts it outside the kernel; at the start it is inside
        om = OmegaSequence.parse(":01")
        ad4, lift = w("a d") * 4, w("b a d a") * 4
        assert GO._split(0, lift) == (ad4, (), 0)
        memo = {}
        assert not GO.normal_form_kernel_member(om, reduce_word(lift), 2, memo)
        assert not reference_kernel_member(om, lift, 2, sys_)
        assert GO.normal_form_kernel_member(om, reduce_word(ad4), 1, memo)
        assert not GO.normal_form_kernel_member(shift(om), reduce_word(ad4), 1)

    def test_inverse_letters_and_free_words(self, rng):
        om = OmegaSequence.parse("2:0121")
        memo = {}
        for _ in range(200):
            u = random_word(rng, 4, 10)
            expected = reference_is_trivial(om, u)
            assert GO.normal_form_is_trivial(om, reduce_word(u)) == expected
            assert GO.normal_form_is_trivial(om, reduce_word(u), memo=memo) == expected


def seeded_omega(seed):
    """A parameter drawn from `seed`: up to two preperiod symbols and a
    period of three to five."""
    rng = random.Random(seed)
    pre = "".join(str(rng.randrange(3)) for _ in range(rng.randint(0, 2)))
    return pre + ":" + "".join(str(rng.randrange(3)) for _ in range(rng.randint(3, 5)))


class TestNormalFormOracles:
    """The marked limit and chain members of `gomega` ask the normal-form
    cores, and answer as the raw-word oracles on every alternating word."""

    @pytest.mark.parametrize("text", [":012", seeded_omega(0), seeded_omega(6)])
    def test_agree_with_the_raw_word_oracles(self, text):
        om = OmegaSequence.parse(text)
        ball8 = list(grig.C2V.ball(8))
        limit = catalog.marked(f"gomega:{text}")
        expected = [GO.normal_form_is_trivial(om, reduce_word(u)) for u in ball8]
        assert [limit.oracle(u) for u in ball8] == expected
        assert any(expected[1:])  # the empty word aside
        for n in LEVELS:
            member = catalog.marked(f"gomega:{text}@{n}")
            expected = [GO.normal_form_kernel_member(om, reduce_word(u), n) for u in ball8]
            assert [member.oracle(u) for u in ball8] == expected

    def test_deep_member_answers(self):
        # at :0, d = (1, d) never moves the root and never empties
        for n in (3000, 100_000):
            member = catalog.marked(f"gomega::0@{n}")
            assert not member.oracle((D,))
            assert member.oracle(()) and not member.oracle((A, B))


class TestWalkMemo:
    @pytest.mark.parametrize("text", [":012", "01:12", "2:0112"])
    def test_a_shared_memo_answers_as_fresh_ones(self, text, ball9):
        # random words, and random words times a conjugate of a trivial
        # word of the radius-9 ball, which walks through trivial states
        om = OmegaSequence.parse(text)
        rng = random.Random(text)
        relators = [u for u in ball9 if u and GO.normal_form_is_trivial(om, reduce_word(u))]
        words = []
        for _ in range(2_000):
            u = random_word(rng, 4, 12)
            if rng.random() < 0.5:
                c = random_word(rng, 4, 4)
                u += c + rng.choice(relators) + tuple(reversed(c))
            words.append(u)
        memo = {}
        shared = [GO.normal_form_is_trivial(om, reduce_word(u), memo=memo) for u in words]
        assert shared == [GO.normal_form_is_trivial(om, reduce_word(u)) for u in words]
        assert 0 < sum(shared) < len(words)
        assert False in memo.values() and True in memo.values()
        # one kernel memo, asked the levels in shuffled order
        asks = [(u, n) for u in words[:400] for n in range(6)]
        rng.shuffle(asks)
        memo = {}
        shared = [GO.normal_form_kernel_member(om, reduce_word(u), n, memo) for u, n in asks]
        assert shared == [GO.normal_form_kernel_member(om, reduce_word(u), n) for u, n in asks]
        assert 0 < sum(shared) < len(asks)


def reference_level_permutation(om, word, n):
    """The permutation of {0,1}^n of a C2 * V normal form, in lexicographic
    order, one vertex at a time: (xv)g = (x flipped by g)(v g_x), with g and
    its sections split by `om.split` as whole words."""
    perm = []
    for vertex in product((0, 1), repeat=n):
        state, index = (word, 0), 0
        for x in vertex:
            flip, sections = om.split(state)
            index = 2 * index + (x ^ flip)
            state = sections[x]
        perm.append(index)
    return tuple(perm)


class TestLevelAction:
    """`contraction.portrait` over `split` numbers a normal form's action on
    a level: equal numbers exactly when the vertex-by-vertex actions are
    equal."""

    @pytest.mark.parametrize("text", AGREEMENT_OMEGAS)
    def test_matches_the_vertex_by_vertex_action(self, text, ball9):
        om = OmegaSequence.parse(text)
        for n in (1, 3, 6):
            number = portrait(om.split, n)
            words = ball9[::5]
            assert partition(number((u, 0)) for u in words) == partition(
                reference_level_permutation(om, u, n) for u in words), (text, n)

    def test_is_the_grigorchuk_recursions_action_at_012(self, grig, rng):
        words = [random_word(rng, 4, 20) for _ in range(300)]
        words += [u + (s, s) for u in words[:50] for s in (A, D)]  # equal elements
        assert partition(map(catalog.load("gomega::012").invariant, words)) == partition(
            map(reference_level_action(grig.recursion, 6), words))

    def test_the_catalog_invariant_takes_any_word(self, rng):
        g = catalog.load("gomega:1:02")
        identity = g.invariant(())
        for _ in range(200):
            u = random_word(rng, 4, 16)
            assert g.invariant(u) == g.invariant(reduce_word(u))
            if g.is_trivial(u):
                assert g.invariant(u) == identity

    def test_each_state_and_level_is_split_once(self, ball9):
        # the states below the asked word are kept per level, so over a ball
        # each (state, level) under 6 is split once, and each ball word once
        om = OmegaSequence.parse("01:201")
        splits = []

        def split(state):
            splits.append(state)
            return om.split(state)

        number = portrait(split, 6)
        words = ball9[:400]
        for u in words:
            number((u, 0))
        pairs = {((u, 0), 6) for u in words}
        for level in range(5, 0, -1):
            pairs |= {(sec, level) for state, above in pairs if above == level + 1
                      for sec in om.split(state)[1]}
        assert sorted(splits) == sorted(state for state, _ in pairs)
        assert len(splits) > len(words)


def lift(symbol, word):
    """A word in C2 * V normal form whose left section at `symbol` is `word`:
    `a` goes to a letter whose first section is the flip, and a V letter v
    to a v a."""
    y = next(v for v in (B, C, D) if GO._A_PART[v][symbol])
    return reduce_word([x for s in word for x in ((y,) if s == A else (A, s, A))])


class TestLeastLevel:
    """`least_level` agrees with the per-level kernel test it replaced, at
    levels 0-50, where that test's recursion still works."""

    @pytest.mark.parametrize("text", [":012", "01:12", "2:0112", ":0"])
    def test_agrees_with_the_per_level_reference(self, text, ball9):
        om = OmegaSequence.parse(text)
        offsets = [0]
        for _ in range(4):
            offsets.append(om.steps[offsets[-1]][1])
        # the ball at offset 0, and words of deeper levels: part of the ball,
        # read at the k-th offset along, lifted k times back to offset 0; at
        # each offset, one (ax)^4 has level 1
        states = [(u, 0) for u in ball9]
        for k in range(1, 5):
            for u in ball9[::9] + [w(f"a {x}") * 4 for x in "bcd"]:
                for offset in reversed(offsets[:k]):
                    u = lift(om.steps[offset][0], u)
                states.append((u, 0))
        memo, reference = {}, {}
        levels = set()
        for state in states:
            least = contraction.least_level(state, om.split, memo, is_identity)
            levels.add(least)
            expected = [reference_in_kernel(state, om.split, n, reference, is_identity)
                        for n in range(51)]
            assert [least <= n for n in range(51)] == expected, state
        assert float("inf") in levels and max(levels - {float("inf")}) >= 3


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
        assert GO.normal_form_is_trivial(om, reduce_word(u), Budget(max_states=k))
        with pytest.raises(BudgetExceeded, match=f"section states exceed {k - 1}"):
            GO.normal_form_is_trivial(om, reduce_word(u), Budget(max_states=k - 1))
        with pytest.raises(BudgetExceeded, match="section states exceed 1"):
            GO.normal_form_is_trivial(om, reduce_word(u), Budget(max_states=1), memo={})

    def test_a_memo_hit_only_turns_budget_failures_into_answers(self, ball9):
        om = OmegaSequence.parse(":012")
        small = Budget(max_states=4)
        memo = {}
        failed = answered = 0
        for u in ball9:
            expected = reference_is_trivial(om, u)
            try:
                fresh = GO.normal_form_is_trivial(om, reduce_word(u), small)
            except BudgetExceeded:
                fresh = None
            try:
                shared = GO.normal_form_is_trivial(om, reduce_word(u), small, memo=memo)
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
        assert GO.normal_form_is_trivial(om, reduce_word(u), memo=memo)
        assert GO.normal_form_is_trivial(om, reduce_word(u), Budget(max_states=1), memo=memo)
