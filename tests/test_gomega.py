import pytest

from conftest import random_word
from contracta import catalog, contraction
from contracta import gomega as GO
from contracta.errors import ParseError, SemanticError
from contracta.gomega import OmegaElement, OmegaSequence
from contracta.grig import A, B, C, D, GENS
from contracta.words import parse_word


def w(text):
    return parse_word(text, GENS)


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
        shifted = om.shift()
        assert [shifted.symbol(k) for k in range(1, 5)] == [0, 1, 0, 1]
        assert om.shift().shift().symbol(1) == 1

    def test_shift_rotates_pure_period(self):
        om = OmegaSequence.parse(":012")
        assert str(om.shift()) == ":120"

    def test_classification_flags(self):
        assert OmegaSequence.parse("01:2").is_eventually_constant
        assert not OmegaSequence.parse(":012").is_eventually_constant
        assert OmegaSequence.parse(":012").hits_all_three
        assert not OmegaSequence.parse(":01").hits_all_three


class TestSections:
    def test_first_symbol_zero_gives_flip_section(self):
        om = OmegaSequence.parse(":0")
        sec = GO.omega_section(om, OmegaElement((B,)), (0,))
        assert sec.word == (A,) and sec.offset == 1

    def test_first_symbol_two_gives_trivial_section(self):
        om = OmegaSequence.parse(":2")
        sec = GO.omega_section(om, OmegaElement((B,)), (0,))
        assert sec.word == () and sec.offset == 1

    def test_identity_sections(self, rng):
        om = OmegaSequence.parse(":012")
        for v in [(0,), (1,), (0, 1), (1, 1, 0)]:
            sec = GO.omega_section(om, OmegaElement(()), v)
            assert sec.word == ()

    def test_right_half_keeps_the_letter(self):
        om = OmegaSequence.parse(":012")
        sec = GO.omega_section(om, OmegaElement((C,)), (1,))
        assert sec.word == (C,) and sec.offset == 1

    def test_vertex_letters_checked(self):
        om = OmegaSequence.parse(":012")
        with pytest.raises(SemanticError):
            GO.omega_section(om, OmegaElement((B,)), (2,))

    def test_section_composition(self, rng):
        om = OmegaSequence.parse("1:02")
        for _ in range(50):
            word = tuple(rng.choice([A, B, C, D]) for _ in range(rng.randint(0, 8)))
            v = tuple(rng.randint(0, 1) for _ in range(2))
            x = tuple(rng.randint(0, 1) for _ in range(2))
            joint = GO.omega_section(om, OmegaElement(word), v + x)
            nested = GO.omega_section(om, GO.omega_section(om, OmegaElement(word), v), x)
            assert joint == nested


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
        assert GO.omega_are_equal(om, OmegaElement((B,)), OmegaElement((C,)))
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
                conj = OmegaElement((A, X, A))
                s0 = GO.omega_section(om, conj, (0,))
                s1 = GO.omega_section(om, conj, (1,))
                shifted = om.shift()
                assert GO.omega_are_equal(shifted, s0, OmegaElement((X,), 1))
                expected_flip = (A,) if rows[X][om.symbol(1)] else ()
                assert GO.omega_are_equal(shifted, s1, OmegaElement(expected_flip, 1))


class TestPhi:
    def test_tables(self):
        assert GO.phi_i_apply(1, (C,)) == ((), (C,), (0, 1))
        assert GO.phi_i_apply(0, (B,)) == ((A,), (B,), (0, 1))
        assert GO.phi_i_apply(2, (B,)) == ((), (B,), (0, 1))
        assert GO.phi_i_apply(0, (D,)) == ((), (D,), (0, 1))

    def test_empty(self):
        assert GO.phi_i_apply(0, ()) == ((), (), (0, 1))

    def test_ab_under_phi0(self):
        assert GO.phi_i_apply(0, (A, B)) == ((B,), (A,), (1, 0))

    def test_homomorphism(self, rng):
        from contracta.words import concat

        for i in (0, 1, 2):
            for _ in range(50):
                u = random_word(rng, 4, 8)
                v = random_word(rng, 4, 8)
                u0, u1, tu = GO.phi_i_apply(i, u)
                v0, v1, tv = GO.phi_i_apply(i, v)
                combined = GO.phi_i_apply(i, concat(u, v))
                pair = [concat(u0, (v0, v1)[tu[0]]), concat(u1, (v0, v1)[tu[1]])]
                perm = tuple(tv[tu[x]] for x in (0, 1))
                assert combined == (pair[0], pair[1], perm)

    def test_inverse_letters(self):
        # the image of an inverse letter is the wreath inverse of the image
        u0, u1, tau = GO.phi_i_apply(0, (-B,))
        assert (u0, u1, tau) == ((-A,), (-B,), (0, 1))
        assert GO.phi_i_apply(0, (-A,)) == ((), (), (1, 0))


@pytest.fixture(scope="module")
def sys_():
    return catalog.cover_for("grigorchuk")[1]


class TestKernel:

    def test_base_relator_is_level_zero(self, sys_):
        for om_text in (":012", ":0", "12:0"):
            om = OmegaSequence.parse(om_text)
            assert GO.omega_kernel_member(om, w("a a"), 0, sys_)

    def test_ad4_profile_matches_cover_chain(self, sys_):
        om = OmegaSequence.parse(":012")
        ad4 = w("a d") * 4
        assert not GO.omega_kernel_member(om, ad4, 0, sys_)
        assert GO.omega_kernel_member(om, ad4, 1, sys_)

    def test_ab_never_a_member(self, sys_):
        om = OmegaSequence.parse(":012")
        for n in range(5):
            assert not GO.omega_kernel_member(om, w("a b"), n, sys_)

    def test_kernel_nesting(self, sys_, rng):
        om = OmegaSequence.parse(":012")
        for _ in range(60):
            u = random_word(rng, 4, 10)
            for n in range(3):
                if GO.omega_kernel_member(om, u, n, sys_):
                    assert GO.omega_kernel_member(om, u, n + 1, sys_)

    def test_members_are_trivial_in_the_limit(self, sys_, rng):
        om = OmegaSequence.parse(":012")
        hits = 0
        for _ in range(150):
            u = random_word(rng, 4, 8)
            if GO.omega_kernel_member(om, u, 3, sys_):
                hits += 1
                assert GO.omega_is_trivial(om, u)
        assert hits > 0

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
                (n for n in range(5) if GO.omega_kernel_member(om, u, n, sys_)),
                None,
            )
            assert cover_profile == omega_profile
