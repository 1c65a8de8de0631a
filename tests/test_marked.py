import json
import math

import pytest

from contracta import catalog, grig, marked
from contracta.errors import BudgetExceeded
from contracta.marked import (
    MarkedGroup,
    Valuation,
    ball_size,
    converge_report,
    free_ball,
    scan,
    valuation,
)


def exponent_sum(word):
    return sum(1 if x > 0 else -1 for x in word)


TRIVIAL1 = MarkedGroup(1, lambda w: True, name="trivial")
Z1 = MarkedGroup(1, lambda w: exponent_sum(w) == 0, name="Z")


def members(chain, levels):
    return [(n, chain.member(n)) for n in levels]


def plain(group, memo):
    """`group` without its congruence, so that a scan runs over the free
    ball; its oracle is memoized in `memo` on C2 * V normal forms, which
    keeps the reference scan affordable."""

    def oracle(w):
        key = grig.reduce_word(w)
        if key not in memo:
            memo[key] = group.contains(w)
        return memo[key]

    return MarkedGroup(group.rank, oracle, name=group.name)


class TestFreeBall:
    def test_small_counts(self):
        assert len(free_ball(2, 1)) == 5
        assert len(free_ball(2, 2)) == 17
        assert len(free_ball(1, 4)) == 9  # 2n + 1 along the cyclic direction

    def test_matches_closed_form(self):
        for k in (1, 2, 3):
            for n in range(5):
                assert len(free_ball(k, n)) == ball_size(k, n)

    def test_words_are_reduced_and_distinct(self):
        ball = free_ball(2, 3)
        assert len(set(ball)) == len(ball)
        from contracta.words import free_reduce

        assert all(free_reduce(w) == w for w in ball)

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            free_ball(4, 9, cap=10_000)


class TestValuation:
    def test_identical_oracles_agree_through_radius(self):
        v = valuation(Z1, Z1, 4)
        assert v.at_least and v.value == 4
        assert v.distance == 0.0

    def test_trivial_vs_z(self):
        v = valuation(TRIVIAL1, Z1, 4)
        assert not v.at_least
        assert v.value == 0
        assert v.distance == pytest.approx(1.0)

    def test_symmetry(self):
        a = valuation(TRIVIAL1, Z1, 4)
        b = valuation(Z1, TRIVIAL1, 4)
        assert (a.value, a.at_least) == (b.value, b.at_least)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            valuation(Z1, MarkedGroup(2, lambda w: True), 3)

    def test_level_one_cover_quotient_vs_limit(self):
        # kernels agree through radius 6; the first disagreement is at radius
        # 8 (the shortest relation of the limit missing from the level-1
        # quotient has length 8)
        lim = catalog.marked("grigorchuk")
        g1 = catalog.marked("grigorchuk@1")
        v6 = valuation(g1, lim, 6)
        assert v6.at_least and v6.value == 6
        v8 = valuation(g1, lim, 8)
        assert v8.at_least and v8.value == 8
        g0 = catalog.marked("grigorchuk@0")
        v0 = valuation(g0, lim, 8)
        assert (v0.value, v0.at_least) == (7, False)

    def test_congruence_path_matches_plain_scan(self):
        lim = catalog.marked("grigorchuk")
        plain_lim = plain(lim, {})
        chains = [
            catalog.marked(spec)
            for spec in ("grigorchuk@0", "grigorchuk@1", "gomega::012@0", "gomega::012@1")
        ]
        assert all(g.congruence == lim.congruence is not None for g in chains)
        plains = [plain(group, {}) for group in chains]
        for radius in (3, 5):
            for group, slow_group in zip(chains, plains):
                slow = valuation(slow_group, plain_lim, radius)
                fast = valuation(group, lim, radius)
                assert (slow.value, slow.at_least) == (fast.value, fast.at_least)
        # and one genuinely finite value from both paths
        g0 = catalog.marked("grigorchuk@0")
        om_lim = catalog.marked("gomega::012")
        slow = valuation(plain(g0, {}), plain(om_lim, {}), 8)
        fast = valuation(g0, om_lim, 8)
        assert (slow.value, slow.at_least) == (fast.value, fast.at_least) == (7, False)

    def test_ultrametric_inequality(self):
        pool = [catalog.marked(f"bs:2:3@{n}") for n in range(3)] + [catalog.marked("met:2:3")]
        radius = 4
        vals = {}
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                if i < j:
                    vals[(i, j)] = valuation(a, b, radius).value
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                for k in range(j + 1, len(pool)):
                    vij, vjk, vik = vals[(i, j)], vals[(j, k)], vals[(i, k)]
                    assert min(vij, vjk) <= vik


class TestScan:
    @pytest.mark.parametrize(
        "base, radius, levels", [("grigorchuk", 8, 5), ("gomega::012", 8, 5), ("bs:2:3", 6, 3)]
    )
    def test_one_pass_report_matches_per_member_valuations(self, base, radius, levels):
        chain = catalog.chain(base)
        report = converge_report(members(chain, range(levels)), chain.limit, radius)
        fresh = catalog.chain(base)  # new oracle memos for the reference
        assert [row.valuation for row in report.rows] == [
            valuation(fresh.member(n), fresh.limit, radius) for n in range(levels)
        ]

    def test_limit_asked_once_per_word_and_members_leave_at_first_disagreement(self):
        asked = {"limit": [], "trivial": []}

        def recording(key, oracle):
            return MarkedGroup(1, lambda w: asked[key].append(w) or oracle(w))

        lim = recording("limit", Z1.oracle)
        values = scan([Z1, recording("trivial", TRIVIAL1.oracle), Z1], lim, 3)
        assert [(v.value, v.at_least) for v in values] == [(3, True), (0, False), (3, True)]
        assert sorted(asked["limit"]) == sorted(free_ball(1, 3)[1:])
        assert asked["trivial"] == [(1,)]

    def test_cap_counts_the_words_visited(self, monkeypatch):
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 10)
        # the ball has 101 words, but the scan ends at its second
        assert valuation(TRIVIAL1, Z1, 50).value == 0
        with pytest.raises(BudgetExceeded, match="ball cap of 10 words"):
            valuation(Z1, Z1, 50)

    def test_no_members_scan_nothing(self):
        assert scan([], MarkedGroup(1, None), 5) == []


class TestValuationObject:
    def test_distance_formula(self):
        assert Valuation(3, False, 8).distance == pytest.approx(math.exp(-3))
        assert Valuation(8, True, 8).distance == 0.0

    def test_str(self):
        assert "v = >= 5" in str(Valuation(5, True, 5))


class TestConvergeReport:
    def test_constant_chain_reports_full_agreement(self):
        rows = converge_report([(n, Z1) for n in range(3)], Z1, 5)
        assert all(r.valuation.at_least for r in rows.rows)
        assert rows.non_decreasing and len(set(rows.values)) == 1

    def test_grig_cover_chain(self):
        chain = catalog.chain("grigorchuk")
        report = converge_report(members(chain, range(3)), chain.limit, 8)
        assert report.non_decreasing
        assert report.values[0] == 7 < report.values[-1]

    def test_two_symbol_parameter_chain(self):
        # the chain converges for every non-eventually-constant parameter,
        # not just the 3-periodic one
        chain = catalog.chain("gomega::01")
        lim = chain.limit
        report = converge_report(members(chain, range(4)), lim, 6)
        assert report.non_decreasing
        hits = 0
        for n, group in members(chain, range(4)):
            for w in grig.CoverCongruence().ball(6):
                if group.contains(w):
                    hits += 1
                    assert lim.contains(w)
        assert hits > 0

    def test_text_and_json_outputs(self):
        rows = converge_report([(n, Z1) for n in range(2)], Z1, 3)
        text = rows.to_text()
        assert "radius 3" in text and ">=3" in text
        doc = json.loads(json.dumps(rows.to_json_dict()))
        assert doc["rows"][0] == {
            "n": 0,
            "v": 3,
            "at_least": True,
            "d": 0.0,
            "radius": 3,
        }
        assert doc["non_decreasing"] is True
