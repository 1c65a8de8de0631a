import math

import pytest

from contracta import catalog
from contracta.errors import BudgetExceeded
from contracta.growth import ball_sizes, growth_probe


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
            invariant=rec.level_action(6),
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
        assert calls["gomega::012"] == calls["grigorchuk"]

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
