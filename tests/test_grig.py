import pytest

from conftest import are_equal, random_word
from contracta import contraction
from contracta import grig as G
from contracta.cosets import enumerate_cosets
from contracta.errors import SemanticError
from contracta.words import concat, free_reduce, parse_word


def w(text):
    return parse_word(text, G.GENS)


def reference_reduce_word(word):
    """C2 * V normal form by popping two Klein-four letters and pushing their
    product back through the loop."""
    out = []
    for x in word:
        x = abs(x)
        while True:
            if not out:
                out.append(x)
                break
            top = out[-1]
            if top == x:
                out.pop()
                break
            if top != G.A and x != G.A:
                out.pop()
                x = G._VTABLE[(top, x)]
                continue
            out.append(x)
            break
    return tuple(out)


class TestReduce:
    def test_klein_four_table(self):
        assert G.reduce_word(w("b c")) == w("d")
        assert G.reduce_word(w("b c d")) == ()
        assert G.reduce_word(w("a a")) == ()
        assert G.reduce_word(w("a^-1")) == w("a")

    def test_alternating_shape(self, rng):
        # normal forms alternate between a and Klein-four letters
        for _ in range(300):
            u = random_word(rng, 4, 14)
            nf = G.reduce_word(u)
            for x, y in zip(nf, nf[1:]):
                assert (x == G.A) != (y == G.A)

    def test_agrees_with_the_reference_loop(self, rng):
        # random words in all eight signed letters, so inverses and runs of
        # Klein-four letters both occur
        for _ in range(2000):
            u = random_word(rng, 4, 16)
            assert G.reduce_word(u) == reference_reduce_word(u)

    def test_reduction_is_sound_for_the_group(self, grig, rng):
        rec = grig.recursion
        for _ in range(100):
            u = random_word(rng, 4, 10)
            assert are_equal(rec, u, G.reduce_word(u))


class TestSigma:
    def test_abac_example(self):
        assert G.sigma_apply(w("a b a c")) == w("a c a d a c a b")

    def test_zero_iterations(self, rng):
        for _ in range(20):
            u = random_word(rng, 4, 10)
            assert G.sigma_apply(u, 0) == free_reduce(u)

    def test_ad_goes_to_acac(self):
        assert G.sigma_apply(w("a d")) == w("a c a c")

    def test_endomorphism_property(self, rng):
        for _ in range(100):
            u = random_word(rng, 4, 8)
            v = random_word(rng, 4, 8)
            assert G.sigma_apply(concat(u, v)) == concat(
                G.sigma_apply(u), G.sigma_apply(v)
            )

    def test_length_cap(self):
        with pytest.raises(SemanticError):
            G.sigma_apply(w("a d"), 20)


class TestRelators:
    def test_base_cases(self):
        assert G.lysenok_relator("u", 0) == w("a d") * 4
        assert G.lysenok_relator("v", 0) == w("a d a c a c") * 4

    def test_u1(self):
        assert G.lysenok_relator("u", 1) == w("a c a c") * 4

    def test_cache_consistency(self):
        direct = G.sigma_apply(G.lysenok_relator("u", 0), 3)
        assert G.lysenok_relator("u", 3) == direct

    def test_relators_vanish_in_the_group(self, grig):
        rec = grig.recursion
        for kind in ("u", "v"):
            for n in range(4):
                assert contraction.is_trivial(rec, G.lysenok_relator(kind, n))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            G.lysenok_relator("x", 0)


class TestPresentations:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_relator_count(self, n):
        pres = G.g_n_presentation(n)
        assert len(pres.relators) == 5 + (n + 1) + n

    def test_level_zero_has_u0_only(self):
        pres = G.g_n_presentation(0)
        assert G.lysenok_relator("u", 0) in pres.relators
        assert G.lysenok_relator("v", 0) not in pres.relators

    def test_level_one_adds_u1_and_v0(self):
        pres = G.g_n_presentation(1)
        assert G.lysenok_relator("u", 1) in pres.relators
        assert G.lysenok_relator("v", 0) in pres.relators


class TestPsi0:
    def test_single_generators(self):
        assert G.psi0_image(["b"]) == (w("a"), w("c"))
        assert G.psi0_image(["d"]) == ((), w("b"))
        assert G.psi0_image(["ada"]) == (w("b"), ())

    def test_empty_word(self):
        assert G.psi0_image([]) == ((), ())

    def test_product(self):
        assert G.psi0_image(["d", "aba"]) == (w("c"), w("b a"))

    def test_rejects_foreign_tokens(self):
        with pytest.raises(SemanticError):
            G.psi0_image(["a"])

    def test_matches_level_one_sections(self, grig, rng):
        # the map is the level-1 section map of the index-2 subgroup
        rec = grig.recursion
        spell = {
            "b": w("b"), "c": w("c"), "d": w("d"),
            "aba": w("a b a"), "aca": w("a c a"), "ada": w("a d a"),
        }
        tokens = list(spell)
        for _ in range(100):
            word = [rng.choice(tokens) for _ in range(rng.randint(0, 6))]
            image = G.psi0_image(word)
            flat = ()
            for tok in word:
                flat = concat(flat, spell[tok])
            assert rec.split(flat)[0] == (0, 1)
            for side in (0, 1):
                assert are_equal(
                    rec, image[side], rec.section(flat, (side,))
                )


class TestPsi0Kernel:
    def test_next_relators_die_under_the_splitting_map(self):
        # u_1 and v_0 lie in the kernel of the level-1 splitting of the
        # index-2 subgroup: both image components are trivial in the level-0
        # truncation.  Checked through an independent engine: Knuth-Bendix
        # normal forms of the truncated presentation.
        from contracta.rewriting import complete, normal_form

        sys0 = complete(G.g_n_presentation(0))
        assert sys0.complete

        u1_tokens = ["aca", "c"] * 4
        v0_tokens = ["ada", "c", "aca", "d", "aca", "c"] * 2
        # sanity: the tokenizations spell the relators
        spell = {
            "b": w("b"), "c": w("c"), "d": w("d"),
            "aba": w("a b a"), "aca": w("a c a"), "ada": w("a d a"),
        }

        def flatten(tokens):
            out = ()
            for tok in tokens:
                out = concat(out, spell[tok])
            return out

        assert flatten(u1_tokens) == G.lysenok_relator("u", 1)
        assert flatten(v0_tokens) == G.lysenok_relator("v", 0)

        for tokens in (u1_tokens, v0_tokens):
            left, right = G.psi0_image(tokens)
            assert normal_form(sys0, left) == ()
            assert normal_form(sys0, right) == ()

        # while a generic subgroup word does not die
        left, right = G.psi0_image(["b", "aba"])
        assert normal_form(sys0, left) != () or normal_form(sys0, right) != ()

    def test_image_has_index_eight_in_the_direct_square(self):
        # coset enumeration over the direct square of the level-0 truncation,
        # with the subgroup generated by the six splitting-map images
        from contracta.rewriting import Presentation

        g0 = G.g_n_presentation(0)
        gens = tuple(g + "1" for g in g0.gens) + tuple(g + "2" for g in g0.gens)
        relators = []
        for r in g0.relators:
            relators.append(r)
            relators.append(tuple(x + 4 if x > 0 else x - 4 for x in r))
        for i in range(1, 5):
            for j in range(5, 9):
                relators.append((i, j, -i, -j))
        square = Presentation(gens, tuple(relators))
        images = [
            parse_word(t, gens)
            for t in ["a1 c2", "a1 d2", "b2", "c1 a2", "d1 a2", "b1"]
        ]
        assert enumerate_cosets(square, images).index == 8


class TestSubgroupWords:
    def test_b0_generators(self):
        assert G.B0_GENS == (w("b"), w("a b a"), w("d a b a d"), w("a d a b a d a"))

    def test_k0_generators(self):
        assert G.K0_GENS == (w("a b") * 2, w("b a d a") * 2, w("a b a d") * 2)

    def test_sigma_shifts_normal_generators_into_the_right_half(self, grig):
        # the substitution image of a normal generator acts as (1, g)
        rec = grig.recursion
        for g in G.B0_GENS:
            s = G.sigma_apply(g)
            assert rec.split(s)[0] == (0, 1)
            assert contraction.is_trivial(rec, rec.section(s, (0,)))
            assert are_equal(rec, rec.section(s, (1,)), g)


class TestHn:
    def test_h0_is_k0(self):
        assert G.h_n_generators(0) == list(G.K0_GENS)

    def test_h1_shape(self):
        gens = G.h_n_generators(1)
        assert len(gens) == 6
        t, v, w_ = G.K0_GENS
        expected = [
            concat((G.A,), G.sigma_apply(g), (G.A,)) for g in (t, v, w_)
        ] + [G.sigma_apply(g) for g in (t, v, w_)]
        assert gens == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_generators_stabilize_level_one(self, grig, n):
        rec = grig.recursion
        for g in G.h_n_generators(n):
            assert rec.level_permutation(g, 1) == (0, 1)

    def test_index_chain(self):
        p0 = G.g_n_presentation(0)
        assert enumerate_cosets(p0, G.XI0_GENS).index == 2
        assert enumerate_cosets(p0, G.B0_GENS).index == 8
        assert enumerate_cosets(p0, G.K0_GENS).index == 16

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_index_formula(self, n):
        # [level-n truncation : H_n] = 2^(2^(n+1) + 2)
        table = enumerate_cosets(G.g_n_presentation(n), G.h_n_generators(n))
        assert table.index == 2 ** (2 ** (n + 1) + 2)

    def test_quotient_by_b_closure_is_dihedral_of_order_eight(self):
        # killing the normal closure of b leaves <a, d | a^2, d^2, (ad)^4>
        table = enumerate_cosets(G.g_n_presentation(0), G.B0_GENS)
        perms = [tuple(row[2 * k] for row in table.table) for k in range(4)]

        def mul(p, q):
            return tuple(q[x] for x in p)

        group = {tuple(range(table.index))}
        frontier = list(group)
        while frontier:
            new = []
            for g in frontier:
                for h in perms:
                    x = mul(g, h)
                    if x not in group:
                        group.add(x)
                        new.append(x)
            frontier = new
        assert len(group) == 8

        def order(g):
            acc, k = g, 1
            while acc != tuple(range(len(g))):
                acc, k = mul(acc, g), k + 1
            return k

        assert sorted(order(g) for g in group) == [1, 2, 2, 2, 2, 2, 4, 4]


class TestCongruence:
    def test_ball_counts(self):
        cong = G.CoverCongruence()
        assert len(list(cong.ball(0))) == 1
        assert len(list(cong.ball(1))) == 5
        assert len(list(cong.ball(8))) == 401

    def test_ball_is_lazy_and_in_length_order(self):
        ball = G.CoverCongruence().ball(40)
        lengths = [len(next(ball)) for _ in range(2_000)]
        assert lengths == sorted(lengths)

    def test_ball_words_are_irreducible(self):
        cong = G.CoverCongruence()
        for word in cong.ball(6):
            assert G.reduce_word(word) == word

    def test_normal_form_never_lengthens(self, rng):
        cong = G.CoverCongruence()
        for _ in range(200):
            u = random_word(rng, 4, 12)
            assert len(cong.normal_form(u)) <= len(free_reduce(u))
