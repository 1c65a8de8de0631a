from fractions import Fraction

import pytest

from conftest import random_word
from contracta.errors import SemanticError
from contracta import metabelian
from contracta.metabelian import (
    MAX_BASE_BITS,
    BsDatum,
    GENS,
    MetElement,
    WnDatum,
    S,
    britton_reduce,
    met_eval,
    wreath_eval,
)
from contracta.words import concat, free_reduce, invert, parse_word


def w(text):
    return parse_word(text, GENS)


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    return free_reduce(u + v + invert(u) + invert(v))


def conjugate(u, v):
    """u conjugated by v: v^-1 u v."""
    return free_reduce(invert(v) + u + v)


def bs_phi(word, iterations, l):
    """n-fold substitution s -> s^l, t -> t on a free word, written out: the
    reference that the base element l^n of `BsDatum(l, m, n)` replaces."""
    factor = l**iterations
    out = []
    for x in free_reduce(word):
        if abs(x) == S:
            out.extend([S if x > 0 else -S] * factor)
        else:
            out.append(x)
    return free_reduce(out)


def wreath_product(x, y, modulus):
    """`WreathElement.__mul__` as it was, on (values, shift) pairs: y's
    values moved by x's shift and added to x's, reduced mod h (modulus h,
    0 for Z) and the zeros dropped; the shifts add."""
    (x_values, x_shift), (y_values, y_shift) = x, y
    acc = dict(x_values)
    for pos, val in y_values:
        acc[pos + x_shift] = acc.get(pos + x_shift, 0) + val
    values = []
    for pos in sorted(acc):
        v = acc[pos] % modulus if modulus else acc[pos]
        if v:
            values.append((pos, v))
    return tuple(values), x_shift + y_shift


def reference_wreath_eval(word, modulus=0):
    """`wreath_eval` as it was: the product of one element per letter."""
    out = ((), 0)
    for x in free_reduce(word):
        sign = 1 if x > 0 else -1
        out = wreath_product(out, (((0, sign),), 0) if abs(x) == S else ((), sign), modulus)
    return out


def reference_matrix_image(l, m, word):
    """`metabelian.matrix_image` as it was before it counted in integers:
    one `Fraction` product or sum per letter."""
    ratio = Fraction(l, m)
    a, b = Fraction(1), Fraction(0)
    for x in free_reduce(word):
        if x == S:
            b += a
        elif x == -S:
            b -= a
        elif x == metabelian.T:
            a *= ratio
        elif x == -metabelian.T:
            a /= ratio
        else:
            raise SemanticError("matrix words use the letters s and t only")
    return MetElement(a, b)


def pair(element):
    return element.values, element.shift


NON_HOPF = commutator(conjugate(w("s"), w("t")), w("s"))


class TestWreath:
    def test_commuting_translates(self):
        rel = commutator(conjugate(w("s"), w("t")), w("s"))
        assert wreath_eval(rel).is_identity

    def test_empty(self):
        assert wreath_eval(()).is_identity

    def test_support_example(self):
        elt = wreath_eval(w("s t s t^-1"))
        assert elt.values == ((0, 1), (1, 1))
        assert elt.shift == 0

    def test_homomorphism(self, rng):
        for modulus in (0, 2, 5):
            for _ in range(100):
                u = random_word(rng, 2, 8)
                v = random_word(rng, 2, 8)
                assert pair(wreath_eval(concat(u, v), modulus)) == wreath_product(
                    pair(wreath_eval(u, modulus)), pair(wreath_eval(v, modulus)), modulus
                )

    def test_agrees_with_the_element_product(self, rng):
        # one pass with a single reduction mod h against the product of one
        # element per letter, reduced after each
        for modulus in (0, 2, 3, 5):
            for _ in range(2_000):
                u = random_word(rng, 2, 16)
                assert pair(wreath_eval(u, modulus)) == reference_wreath_eval(u, modulus), u

    def test_inverses(self, rng):
        for _ in range(50):
            u = random_word(rng, 2, 8)
            assert wreath_eval(concat(u, invert(u))).is_identity

    def test_finite_base_torsion(self):
        assert wreath_eval(w("s s"), 2).is_identity
        assert not wreath_eval(w("s s"), 3).is_identity
        assert not wreath_eval(w("s s")).is_identity

    def test_modulus_validation(self):
        with pytest.raises(SemanticError):
            wreath_eval(w("s"), 1)

    def test_letters_other_than_s_and_t_are_refused(self):
        with pytest.raises(SemanticError, match="^wreath words use the letters s and t only$"):
            wreath_eval((1, 3))


class TestBritton:
    def test_defining_relator_dies(self):
        assert britton_reduce(BsDatum(2, 3), w("t^-1 s^2 t s^-3")).is_trivial

    def test_empty(self):
        assert britton_reduce(BsDatum(2, 3), ()).is_trivial

    def test_non_hopf_witness_is_nontrivial(self):
        reduced = britton_reduce(BsDatum(2, 3), NON_HOPF)
        assert not reduced.is_trivial
        assert reduced.stable_letter_count == 4

    def test_free_letters_stay(self):
        reduced = britton_reduce(BsDatum(2, 3), w("t s t^-1"))
        assert not reduced.is_trivial
        assert reduced.stable_letter_count == 2

    def test_nested_pinches(self):
        # t^-2 s^4 t^2 = s^9 in BS(2, 3)
        word = concat(w("t^-1 t^-1 s^4 t t"), w("s^-9"))
        assert britton_reduce(BsDatum(2, 3), word).is_trivial

    def test_letters_other_than_s_and_t_are_refused(self):
        for datum in (BsDatum(2, 3), WnDatum(1)):
            with pytest.raises(SemanticError, match="^HNN words use the letters s and t only$"):
                britton_reduce(datum, (1, -3))

    def test_wn_relators(self):
        for n in (1, 2, 3):
            datum = WnDatum(n)
            for i in range(n + 1):
                rel = commutator(w("s"), conjugate(w("s"), w("t") * i))
                assert britton_reduce(datum, rel).is_trivial
            beyond = commutator(w("s"), conjugate(w("s"), w("t") * (n + 1)))
            assert not britton_reduce(datum, beyond).is_trivial
            # ...although the full wreath product kills it
            assert wreath_eval(beyond).is_identity


class TestPhi:
    def test_doubles_s(self):
        assert bs_phi(w("s"), 1, 2) == w("s s")
        assert bs_phi(w("t"), 3, 2) == w("t")

    def test_zero_iterations(self, rng):
        for _ in range(20):
            u = random_word(rng, 2, 8)
            assert bs_phi(u, 0, 2) == free_reduce(u)

    def test_witness_dies_after_one_step(self):
        assert britton_reduce(BsDatum(2, 3), bs_phi(NON_HOPF, 1, 2)).is_trivial
        assert britton_reduce(BsDatum(2, 3, 1), NON_HOPF).is_trivial

    def test_scaled_letter_agrees_with_the_written_image(self, rng):
        # the pinch-free form of w with s worth l^n is that of phi^n(w)
        for l, m in ((2, 3), (3, 2), (1, 2), (2, 1), (3, 5)):
            for n in range(4):
                for _ in range(60):
                    u = random_word(rng, 2, 12)
                    written = britton_reduce(BsDatum(l, m), bs_phi(u, n, l))
                    scaled = britton_reduce(BsDatum(l, m, n), u)
                    assert scaled.pieces == written.pieces, (l, m, n, u)

    def test_negative_iterations(self):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            BsDatum(2, 3, -1)

    def test_a_level_past_the_bit_cap_is_refused_before_the_power(self):
        class Base(int):
            def __pow__(self, level):
                raise AssertionError("l^n formed")

        for level in (MAX_BASE_BITS + 1, 10**9, 10**400):
            with pytest.raises(SemanticError, match=f"needs the base element 2\\^{level}, past"):
                BsDatum(Base(2), 3, level)

    def test_the_bit_cap_bounds_level_times_log2_l(self, monkeypatch):
        monkeypatch.setattr(metabelian, "MAX_BASE_BITS", 10)
        assert BsDatum(2, 3, 10).s == 1024 and BsDatum(3, 2, 6).s == 729
        assert BsDatum(1, 2, 10**30).s == 1
        for l, level in ((2, 11), (3, 7)):
            with pytest.raises(SemanticError, match="past the cap of 10 bits"):
                BsDatum(l, 2 * l + 1, level)


class TestMet:
    def test_generator_matrices(self):
        s = met_eval(2, 3, w("s"))
        assert s.rows() == ((1, 1), (0, 1))
        t = met_eval(2, 3, w("t"))
        assert t.rows() == ((Fraction(2, 3), 0), (0, 1))

    def test_empty(self):
        assert met_eval(2, 3, ()).is_identity

    def test_unipotent_elements_commute(self):
        assert met_eval(2, 3, NON_HOPF).is_identity

    def test_homomorphism(self, rng):
        for _ in range(100):
            u = random_word(rng, 2, 8)
            v = random_word(rng, 2, 8)
            x, y = met_eval(2, 3, u), met_eval(2, 3, v)
            assert met_eval(2, 3, concat(u, v)) == MetElement(x.a * y.a, x.a * y.b + x.b)

    def test_matches_fraction_matrix_products(self, rng):
        for l, m in ((2, 3), (1, 2), (3, 1), (3, 5), (4, 7)):
            letters = {
                1: ((1, 1), (0, 1)),
                -1: ((1, -1), (0, 1)),
                2: ((Fraction(l, m), 0), (0, 1)),
                -2: ((Fraction(m, l), 0), (0, 1)),
            }
            for _ in range(60):
                u = random_word(rng, 2, 30)
                mat = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
                for x in u:
                    g = letters[x]
                    mat = tuple(
                        tuple(mat[i][0] * g[0][j] + mat[i][1] * g[1][j] for j in range(2))
                        for i in range(2)
                    )
                assert met_eval(l, m, u).rows() == mat, (l, m, u)
                assert met_eval(l, m, u).is_identity == (mat == ((1, 0), (0, 1)))

    def test_matrix_image_agrees_with_the_fraction_loop(self, rng):
        # every l, m <= 5: coprime, gcd > 1 and l = m, on words that reach
        # t-exponents of both signs, and on words with no s letter
        for l in range(1, 6):
            for m in range(1, 6):
                words = [random_word(rng, 2, 24) for _ in range(80)]
                words += [w("t^-3"), w("t^2"), (), w("s t^4 s^-1 t^-4"), w("t^-5 s t^5")]
                for u in words:
                    got, want = metabelian.matrix_image(l, m, u), reference_matrix_image(l, m, u)
                    assert got == want, (l, m, u)
                    assert type(got.a) is Fraction and type(got.b) is Fraction
        with pytest.raises(SemanticError, match="letters s and t only"):
            metabelian.matrix_image(2, 3, (1, 3))

    def test_parameter_validation(self):
        with pytest.raises(SemanticError):
            met_eval(2, 4, w("s"))
        with pytest.raises(SemanticError):
            met_eval(1, 1, w("s"))

    def test_bs1m_agrees_with_britton(self, rng):
        # when one parameter is 1 the matrix quotient is faithful
        for m in (2, 3):
            datum = BsDatum(1, m)
            for _ in range(150):
                u = random_word(rng, 2, 10)
                assert (
                    britton_reduce(datum, u).is_trivial
                    == met_eval(1, m, u).is_identity
                )


class TestKernelTower:
    def test_witness_chain(self):
        assert not britton_reduce(BsDatum(2, 3, 0), NON_HOPF).is_trivial
        assert britton_reduce(BsDatum(2, 3, 1), NON_HOPF).is_trivial

    def test_empty_word(self):
        for n in range(3):
            assert britton_reduce(BsDatum(2, 3, n), ()).is_trivial

    def test_nesting(self, rng):
        for _ in range(80):
            u = random_word(rng, 2, 8)
            for n in range(3):
                if britton_reduce(BsDatum(2, 3, n), u).is_trivial:
                    assert britton_reduce(BsDatum(2, 3, n + 1), u).is_trivial

    def test_deep_levels_answer_at_once(self):
        # s stands for 2^3000 in the base: no word of that length is built
        assert britton_reduce(BsDatum(2, 3, 3000), NON_HOPF).is_trivial
        assert not britton_reduce(BsDatum(2, 3, 3000), w("t s t^-1")).is_trivial

    def test_members_die_in_the_matrix_group(self, rng):
        hits = 0
        for _ in range(200):
            u = random_word(rng, 2, 8)
            if britton_reduce(BsDatum(2, 3, 2), u).is_trivial:
                hits += 1
                assert met_eval(2, 3, u).is_identity
        assert hits > 0
