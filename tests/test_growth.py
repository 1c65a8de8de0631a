import math
import random

import pytest

from conftest import reference_level_action
from contracta import catalog
from contracta.errors import BudgetExceeded
from contracta.growth import ball_sizes, growth_probe
from contracta.words import concat
from test_fuzz import random_recursion


def exponent_sum(word):
    return sum(1 if x > 0 else -1 for x in word)


def z_table(n_max):
    return ball_sizes(
        lambda u, v: exponent_sum(u) == exponent_sum(v),
        1,
        n_max,
        name="Z",
        invariant=exponent_sum,
    )


def f2_table(n_max):
    return ball_sizes(lambda u, v: u == v, 2, n_max, name="F2", invariant=lambda w: w)


def reference_ball_sizes(equal, ngens, n_max, invariant=None, max_elements=200_000):
    """gamma(0..n_max) by extending every element by all 2 * ngens signed
    letters, freely reduced, each candidate confirmed against its bucket."""
    letters = [i for i in range(1, ngens + 1)] + [-i for i in range(1, ngens + 1)]
    classes = {invariant(()) if invariant else (): [()]}
    gamma, frontier, total = [1], [()], 1
    for _ in range(n_max):
        new_reps = []
        for w in frontier:
            for s in letters:
                cand = concat(w, (s,))
                key = invariant(cand) if invariant else ()
                bucket = classes.setdefault(key, [])
                if any(equal(cand, known) for known in bucket):
                    continue
                bucket.append(cand)
                new_reps.append(cand)
                total += 1
                if total > max_elements:
                    raise BudgetExceeded(f"ball exceeds {max_elements} elements")
        frontier = new_reps
        gamma.append(total)
    return gamma


def assert_agrees_with_reference(equal, ngens, n_max, invariant=None):
    """ball_sizes gives the reference's gamma, raises its BudgetExceeded at
    the same max_elements, and asks `equal` a subsequence of its questions."""

    def outcome(sizes, max_elements):
        asked = []
        try:
            gamma = sizes(lambda u, v: asked.append((u, v)) or equal(u, v), ngens, n_max,
                          invariant=invariant, max_elements=max_elements)
        except BudgetExceeded as e:
            gamma = str(e)
        return gamma, asked

    def new(*args, **kwargs):
        return ball_sizes(*args, **kwargs).gamma

    gamma, _ = outcome(reference_ball_sizes, 200_000)
    # unbounded, then exceeded within the last radius and at its last element
    for max_elements in (200_000, (gamma[-2] + gamma[-1]) // 2, gamma[-1] - 1):
        want, want_asked = outcome(reference_ball_sizes, max_elements)
        got, got_asked = outcome(new, max_elements)
        assert got == want
        reference_questions = iter(want_asked)
        assert all(question in reference_questions for question in got_asked)


class TestBallSizes:
    def test_infinite_cyclic(self):
        assert z_table(6).gamma == [2 * n + 1 for n in range(7)]

    def test_free_group_closed_form(self):
        assert f2_table(6).gamma == [2 * 3**n - 1 for n in range(7)]

    def test_grigorchuk_start(self, grig):
        table = ball_sizes(
            grig.equal, 4, 3, name=grig.name, invariant=grig.invariant
        )
        # 1 + 4 involutions, then the Klein-four collapse keeps balls small
        assert table.gamma[:2] == [1, 5]
        assert table.gamma[2] == 11

    def test_dual_oracles_agree_to_depth_six(self, grig):
        rec = grig.recursion
        bisim = ball_sizes(grig.equal, 4, 6, invariant=grig.invariant)
        by_perm = ball_sizes(
            lambda u, v: True,
            4,
            6,
            invariant=reference_level_action(rec, 6),
        )
        assert bisim.gamma == by_perm.gamma

    def test_gomega_is_bucketed_by_its_level_action(self):
        # gomega::012 is Grigorchuk's group, and both records bucket the
        # ball by the same level-6 action, so both confirm as few candidates
        calls = {}
        for name in ("grigorchuk", "gomega::012"):
            g = catalog.load(name)
            asked = []
            table = ball_sizes(lambda u, v: asked.append(u) or g.equal(u, v), 4, 8,
                               invariant=g.invariant)
            assert table.gamma == [1, 5, 11, 23, 40, 68, 108, 176, 271]
            calls[name] = len(asked)
        assert calls["gomega::012"] == calls["grigorchuk"] == 263

    @pytest.mark.parametrize("name, gamma, calls", [
        ("hanoi3", [1, 4, 10, 22, 46, 94, 190, 382, 766], 3),
        ("basilica", [1, 5, 17, 53, 153, 421, 1125, 2945, 7545], 2338),
    ])
    def test_equal_calls_to_radius_eight(self, name, gamma, calls):
        # the letters new at radius 1 extend a word, never the one that undoes
        # its last letter; hanoi3's three calls are radius 1's, each inverse
        # letter against its involution
        g = catalog.load(name)
        asked = []
        table = ball_sizes(lambda u, v: asked.append(u) or g.equal(u, v), len(g.gens), 8,
                           invariant=g.invariant)
        assert (table.gamma, len(asked)) == (gamma, calls)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            f2_table_big = ball_sizes(
                lambda u, v: u == v, 2, 12, invariant=lambda w: w, max_elements=1000
            )

    def test_submultiplicative(self, rng):
        tables = [z_table(8), f2_table(7)]
        g = catalog.load("gupta_sidki")
        tables.append(ball_sizes(g.equal, 2, 6, invariant=g.invariant))
        for table in tables:
            n_max = len(table.gamma) - 1
            for _ in range(200):
                m = rng.randint(0, n_max)
                n = rng.randint(0, n_max - m)
                assert table.gamma[m + n] <= table.gamma[m] * table.gamma[n]

    @pytest.mark.parametrize("name", [*catalog.RECURSION_NAMES, "gomega::012", "gomega:1:02",
                                      "bs:2:3", "bs:1:1", "met:2:3", "wreath:z", "w_n:1"])
    def test_catalog_groups_agree_with_every_letter_tried(self, name):
        g = catalog.load(name)
        assert_agrees_with_reference(g.equal, len(g.gens), 6, g.invariant)

    def test_free_and_cyclic_groups_agree_with_every_letter_tried(self):
        assert_agrees_with_reference(lambda u, v: u == v, 2, 6, lambda w: w)
        assert_agrees_with_reference(lambda u, v: exponent_sum(u) == exponent_sum(v), 1, 8)

    @pytest.mark.parametrize("second", [0, 1, -1])
    def test_a_letter_trivial_or_equal_to_another_is_dropped(self, second):
        # letter 2 maps to `second` times letter 1 in Z: it is trivial, equal
        # to letter 1, or equal to letter 1's inverse
        def image(word):
            return sum((1 if x > 0 else -1) * (1 if abs(x) == 1 else second) for x in word)

        def equal(u, v):
            return image(u) == image(v)

        for invariant in (image, None):
            assert_agrees_with_reference(equal, 2, 6, invariant)
        assert ball_sizes(equal, 2, 6).gamma == [2 * n + 1 for n in range(7)]

    def test_random_recursions_agree_with_every_letter_tried(self):
        draw = random.Random(30)
        for _ in range(40):
            g = catalog.recursion_group(random_recursion(draw), "random")
            assert_agrees_with_reference(g.equal, len(g.gens), 4, g.invariant)

    def test_csv_format(self):
        table = z_table(2)
        lines = table.to_csv().strip().splitlines()
        assert lines == ["n,gamma", "0,1", "1,3", "2,5"]


class TestProbe:
    def test_cyclic_group_is_polynomial_of_degree_about_one(self):
        probe = growth_probe(z_table(40))
        assert abs(probe.polynomial_degree - 1.0) < 0.15

    def test_free_group_rate_is_log_three(self):
        probe = growth_probe(f2_table(7))
        assert abs(probe.exponential_rate - math.log(3)) < 0.05

    def test_probe_is_labelled_non_conclusive(self, grig):
        table = ball_sizes(grig.equal, 4, 5, invariant=grig.invariant)
        probe = growth_probe(table)
        assert "not a growth-type classification" in probe.note
        assert probe.polynomial_degree > 0

    def test_needs_data(self):
        with pytest.raises(ValueError):
            growth_probe(z_table(1))
