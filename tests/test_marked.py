import gc
import json
import math
import weakref

import pytest

from conftest import ALTERNATING, LONG_REC, free_ball, free_follow, long_cover
from contracta import catalog, grig, marked
from contracta.errors import BudgetExceeded
from contracta.gomega import OmegaSequence, normal_form_kernel_member
from contracta.marked import (
    Congruence,
    MarkedGroup,
    Valuation,
    converge_report,
    scan,
    valuation,
)
from contracta.rewriting import Presentation, complete
from contracta.words import shortlex_key


def ball_size(k: int, n: int) -> int:
    """The closed form for the number of reduced words of length <= n in rank k."""
    return 1 + sum(2 * k * (2 * k - 1) ** (i - 1) for i in range(1, n + 1))


def exponent_sum(word):
    return sum(1 if x > 0 else -1 for x in word)


X = ("x",)  # the generator of a rank-1 group
TRIVIAL1 = MarkedGroup(X, lambda w: True, name="trivial")
Z1 = MarkedGroup(X, lambda w: exponent_sum(w) == 0, name="Z")


def members(chain, levels):
    return [(n, chain.member(n)) for n in levels]


def raw(oracle, gens=grig.GENS):
    """A congruence-less group on `oracle`, a raw-word oracle, so that a scan
    feeds it free-ball words.  Its answers are memoized on C2 * V normal
    forms, which keeps the reference scan affordable; the oracle still
    reduces the first raw word of each class itself."""
    memo = {}

    def contains(w):
        key = grig.reduce_word(w)
        if key not in memo:
            memo[key] = oracle(w)
        return memo[key]

    return MarkedGroup(gens, contains)


def raw_chain_member(spec):
    """Level n of a chain through the raw-word oracle that `kernel-member`
    calls, the member's `is_trivial`, on a chain of its own, so with a memo
    of its own."""
    base, _, level = spec.rpartition("@")
    return raw(catalog.chain.__wrapped__(base).member(int(level)).is_trivial)


def reference_length_order(follow, radius):
    """`marked.length_order` as it was: one generator frame per letter."""

    def extend(w, last, depth):
        for s in follow[last]:
            if depth == 1:
                yield w + (s,)
            else:
                yield from extend(w + (s,), s, depth - 1)

    yield ()
    for r in range(1, radius + 1):
        yield from extend((), None, r)


def reference_scan(members, limit, radius):
    """`marked.scan` as it was: one pass over the whole ball, shortest words
    first, the limit asked once per word and each member asked about the
    words the limit finds trivial when its `onto` is the limit, else about
    every word, until its first disagreement; within `marked.length_order`'s
    cap of DEFAULT_BALL_CAP words."""
    if any(g.rank != limit.rank for g in members):
        raise ValueError("marked groups must have equal ranks")
    if not members:
        return []
    congruence = limit.congruence
    if congruence is not None and all(g.congruence == congruence for g in members):
        words = congruence.ball(radius, marked.DEFAULT_BALL_CAP)
        limit_asks, asks = limit.oracle, [g.oracle for g in members]
    else:
        words = marked.length_order(free_follow(limit.rank), radius, marked.DEFAULT_BALL_CAP)
        limit_asks, asks = limit.is_trivial, [g.is_trivial for g in members]
    first = [None] * len(members)
    live = [(i, a, g.onto is limit) for i, (g, a) in enumerate(zip(members, asks))]
    for w in words:
        if not w:
            continue
        inside = limit_asks(w)
        for i, asks_member, onto_limit in live:
            if (inside or not onto_limit) and asks_member(w) != inside:
                first[i] = len(w)
        live = [(i, a, o) for i, a, o in live if first[i] is None]
        if not live:
            break
    return [
        Valuation(radius, True, radius) if f is None else Valuation(f - 1, False, radius)
        for f in first
    ]


def reference_valuation(a, b, radius):
    return reference_scan([a], b, radius)[0]


class TestMarkedGroup:
    def test_is_trivial_decides_any_word(self):
        # the oracle's answer on the word itself without a congruence; with
        # one, on the word's normal form, read from the record when asked
        asked = []
        g = MarkedGroup(grig.GENS, lambda w: asked.append(w) or not w, congruence=grig.C2V)
        z, ball = MarkedGroup(X, Z1.oracle), free_ball(1, 4)
        assert [z.is_trivial(w) for w in ball] == [Z1.oracle(w) for w in ball]
        assert g.is_trivial((grig.A, -grig.A)) and g.equal((grig.B,), (grig.C, grig.D))
        g.oracle = lambda w: False
        assert not g.is_trivial(())
        assert asked == [(), ()]

    def test_a_dropped_record_is_freed_without_the_collector(self):
        # a record holds no closure over itself, so dropping a chain member
        # frees its oracle, and with it the chain's memo, at once
        class Oracle:
            def __call__(self, w):
                return not w

        oracle = Oracle()
        freed = weakref.ref(oracle)
        g = MarkedGroup(grig.GENS, oracle, congruence=grig.C2V)
        assert g.is_trivial((grig.A, grig.A))
        gc.disable()
        try:
            del g, oracle
            assert freed() is None
        finally:
            gc.enable()


class TestLengthOrder:
    @pytest.mark.parametrize("kept", [marked.KEPT_WORDS, 5, 1])
    def test_same_words_in_the_same_order_as_the_reference(self, kept, monkeypatch):
        # at the default every length of these balls but the last is kept
        # as a list; smaller bounds build the longer lengths from a shorter
        # kept one
        monkeypatch.setattr(marked, "KEPT_WORDS", kept)
        for follow, radius in ((ALTERNATING, 10), (free_follow(2), 6), (free_follow(3), 6)):
            expected = list(reference_length_order(follow, radius))
            assert list(marked.length_order(follow, radius)) == expected
            assert list(marked.length_order(follow, radius, cap=len(expected))) == expected
            with pytest.raises(BudgetExceeded, match=f"ball cap of {len(expected) - 1} words"):
                list(marked.length_order(follow, radius, cap=len(expected) - 1))

    def test_cap_is_checked_before_a_length_is_built(self, monkeypatch):
        # rank 2 has 1 + 4 + 12 words through length 2.  The groups first
        # disagree at the first word of length 2, the 6th word of the ball,
        # but the cap of 10 falls inside length 2, so the scan stops before it
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 10)
        long = MarkedGroup(("a", "b"), lambda w: len(w) >= 2)
        none = MarkedGroup(("a", "b"), lambda w: False)
        assert reference_valuation(long, none, 1).value == 1
        with pytest.raises(BudgetExceeded, match="ball cap of 10 words"):
            reference_valuation(long, none, 2)


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
        # a ball of exactly `cap` words is within it
        size = ball_size(3, 4)
        assert len(free_ball(3, 4, cap=size)) == size
        with pytest.raises(BudgetExceeded, match=f"ball cap of {size - 1} words"):
            free_ball(3, 4, cap=size - 1)


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
            valuation(Z1, MarkedGroup(("a", "b"), lambda w: True), 3)

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
        # the fast side walks the alternating ball with the normal-form
        # oracles; the slow side walks the free ball with the raw-word ones
        lim = catalog.marked("grigorchuk")
        raw_lim = raw(catalog.load("grigorchuk").is_trivial)
        specs = ("grigorchuk@0", "grigorchuk@1", "gomega::012@0", "gomega::012@1")
        chains = [catalog.marked(spec) for spec in specs]
        assert all(g.congruence == lim.congruence is not None for g in chains)
        raws = [raw_chain_member(spec) for spec in specs]
        for radius in (3, 5):
            for group, slow_group in zip(chains, raws):
                slow = valuation(slow_group, raw_lim, radius)
                fast = valuation(group, lim, radius)
                assert (slow.value, slow.at_least) == (fast.value, fast.at_least)
        # and one genuinely finite value from both paths.  The free ball of
        # radius 8 passes the ball cap, where the scan of the whole ball
        # stopped; the scan of its half ball finds (ad)^4, a length-8
        # disagreement
        fast = valuation(catalog.marked("grigorchuk@0"), catalog.marked("gomega::012"), 8)
        assert (fast.value, fast.at_least) == (7, False)
        g0, om = raw_chain_member("grigorchuk@0"), raw(catalog.load("gomega::012").is_trivial)
        assert ball_size(4, 8) > marked.DEFAULT_BALL_CAP
        assert valuation(g0, om, 8) == fast
        ad4 = (grig.A, grig.D) * 4
        assert not g0.oracle(ad4) and om.oracle(ad4)

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
        fresh = catalog.chain.__wrapped__(base)  # new member oracle memos for the reference
        assert [row.valuation for row in report.rows] == [
            valuation(fresh.member(n), fresh.limit, radius) for n in range(levels)
        ]

    def test_limit_asked_once_per_word_and_members_leave_at_first_disagreement(self):
        asked = {"limit": [], "trivial": []}

        def recording(key, oracle):
            return MarkedGroup(X, lambda w: asked[key].append(w) or oracle(w))

        lim = recording("limit", Z1.oracle)
        values = reference_scan([Z1, recording("trivial", TRIVIAL1.oracle), Z1], lim, 3)
        assert [(v.value, v.at_least) for v in values] == [(3, True), (0, False), (3, True)]
        assert sorted(asked["limit"]) == sorted(free_ball(1, 3)[1:])
        assert asked["trivial"] == [(1,)]

    def test_members_leaving_at_different_lengths_get_their_own_valuations(self):
        # Z/k disagrees with Z first at x^k; the scan drops each member at its
        # own length and keeps asking the others, in any member order
        def cyclic(k):
            return MarkedGroup(X, lambda w: exponent_sum(w) % k == 0, name=f"Z/{k}")

        groups = [cyclic(5), TRIVIAL1, Z1, cyclic(2), cyclic(7), cyclic(3), cyclic(2)]
        for limit in (Z1, cyclic(6)):
            values = scan(groups, limit, 6)
            assert values == [valuation(g, limit, 6) for g in groups]
        assert [(v.value, v.at_least) for v in scan(groups, Z1, 6)] == [
            (4, False), (0, False), (6, True), (1, False), (6, True), (2, False), (1, False)
        ]

    def test_cap_counts_the_words_visited(self, monkeypatch):
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 10)
        # the ball has 101 words, but the scan ends at its second
        assert reference_valuation(TRIVIAL1, Z1, 50).value == 0
        with pytest.raises(BudgetExceeded, match="ball cap of 10 words"):
            reference_valuation(Z1, Z1, 50)

    def test_mixed_scan_hands_normal_forms_to_the_congruence_group(self, monkeypatch):
        # a congruence-less raw-word group against the level-1 gomega
        # member: the scan walks the free ball and normalizes each word for
        # the member, whose oracle takes only C2 * V normal forms
        asked = []
        member = catalog.marked("gomega::012@1")
        oracle = member.oracle
        monkeypatch.setattr(member, "oracle", lambda w: asked.append(w) or oracle(w))
        limit = MarkedGroup(grig.GENS, catalog.load("gomega::012").is_trivial)
        v = valuation(member, limit, 5)
        assert (v.value, v.at_least) == (5, True)
        assert asked and all(grig.reduce_word(w) == w for w in asked)
        # and the member as the limit, against a raw-word chain member
        om = OmegaSequence.parse(":012")
        raw_member = MarkedGroup(
            grig.GENS, lambda w: normal_form_kernel_member(om, grig.reduce_word(w), 0))
        mixed = valuation(raw_member, catalog.marked("gomega::012@1"), 5)
        same = valuation(catalog.marked("gomega::012@0"), catalog.marked("gomega::012@1"), 5)
        assert (mixed.value, mixed.at_least) == (same.value, same.at_least)

    def test_separately_marked_groups_share_the_congruence_ball(self, monkeypatch):
        # the chain carries the congruence of the `grigorchuk` cover's
        # system, and this limit the literal C2 * V one: two objects with one
        # rule set, so the scan walks the alternating ball, not the free one
        member, marked_limit = catalog.marked("grigorchuk@0"), catalog.marked("grigorchuk")
        limit = MarkedGroup(marked_limit.gens, marked_limit.oracle, marked_limit.name, grig.C2V)
        assert member.congruence is not limit.congruence
        assert member.congruence == limit.congruence == grig.C2V
        assert hash(member.congruence) == hash(grig.C2V)

        def free_ball(*args):
            raise AssertionError("the scan walked the free ball")

        monkeypatch.setattr(marked, "_free", free_ball)
        assert valuation(member, limit, 8) == Valuation(7, False, 8)
        assert valuation(catalog.marked("grigorchuk@1"), limit, 8) == Valuation(8, True, 8)

    def test_no_members_scan_nothing(self):
        assert scan([], MarkedGroup(X, None), 5) == []


# one chain of each family, at a radius whose ball holds words the limit
# finds trivial and keeps each family's test well under a second
ONTO_CHAINS = [
    ("grigorchuk", 8),
    ("basilica", 8),
    ("img_z2_plus_i", 8),
    ("gupta_sidki", 6),
    ("fabrykowski_gupta", 6),
    ("hanoi3", 5),
    ("gomega::012", 8),
    ("gomega:0:1", 8),
    ("bs:2:3", 8),
    ("bs:3:2", 8),
    ("bs:1:2", 8),
]
ONTO_LEVELS = range(4)
# chains whose limit finds no nonempty normal form trivial through radius 13,
# so their scans here walk the free ball
FREE_BALL_CHAINS = {"hanoi3", "gupta_sidki", "fabrykowski_gupta"}


def without_congruence(group):
    """`group` with no congruence, asked about any free-group word through
    its `is_trivial`: a scan of it walks the free ball."""
    return MarkedGroup(group.gens, group.is_trivial, group.name)


def onto_groups(base):
    """The limit and the members at ONTO_LEVELS of the chain on `base`."""
    chain = catalog.chain(base)
    groups = [chain.limit] + [chain.member(n) for n in ONTO_LEVELS]
    if base in FREE_BALL_CHAINS:
        groups = [without_congruence(g) for g in groups]
    return groups[0], groups[1:]


def scan_ball(group, radius):
    """The words a scan against `group` walks when every member carries its
    congruence: its normal forms, or the free ball without one."""
    if group.congruence is not None:
        return list(group.congruence.ball(radius))
    return free_ball(group.rank, radius)


class TestOnto:
    """A chain member maps onto the limit, so a scan asks it only about the
    words the limit finds trivial."""

    def test_one_chain_per_base(self):
        # so `<base>@<n>` for every n shares the chain's one memo
        for base in ("grigorchuk", "gomega::012", "bs:2:3"):
            assert catalog.chain(base) is catalog.chain(base)
        assert catalog.marked("hanoi3@1").onto is catalog.marked("hanoi3@2").onto

    def test_a_member_maps_onto_the_marked_limit(self):
        assert catalog.marked("grigorchuk") is catalog.marked("grigorchuk")
        for spec, limit in [("grigorchuk@2", "grigorchuk"), ("gomega::012@0", "gomega::012"),
                            ("bs:2:3@1", "met:2:3")]:
            assert catalog.marked(spec).onto is catalog.marked(limit)
            assert catalog.marked(limit).onto is None

    @pytest.mark.parametrize("base, radius", ONTO_CHAINS)
    def test_member_kernels_lie_in_the_limit_kernel(self, base, radius):
        lim, groups = onto_groups(base)
        outside = [w for w in scan_ball(lim, radius) if not lim.oracle(w)]
        for n, member in zip(ONTO_LEVELS, groups):
            assert not any(member.oracle(w) for w in outside), f"{base}@{n}"

    @pytest.mark.parametrize("base, radius", ONTO_CHAINS)
    def test_members_are_asked_only_about_the_words_the_limit_finds_trivial(self, base, radius):
        lim, groups = onto_groups(base)
        trivial, asked = set(), set()

        def limit_oracle(w):
            inside = lim.oracle(w)
            if inside:
                trivial.add(w)
            return inside

        def asking(oracle):
            return lambda w: asked.add(w) or oracle(w)

        limit = MarkedGroup(lim.gens, limit_oracle, lim.name, lim.congruence)
        counted = [
            MarkedGroup(g.gens, asking(g.oracle), g.name, g.congruence, onto=limit)
            for g in groups
        ]
        cleared = [MarkedGroup(g.gens, g.oracle, g.name, g.congruence) for g in groups]
        assert reference_scan(counted, limit, radius) == reference_scan(cleared, lim, radius)
        assert asked and asked <= trivial


# every chain family, at radii where the scan of the whole ball, the
# reference, stays well under a second
CHAIN_RADII = [
    ("grigorchuk", 10),
    ("basilica", 10),
    ("img_z2_plus_i", 10),
    ("gupta_sidki", 9),
    ("fabrykowski_gupta", 9),
    ("hanoi3", 10),
    ("gomega::012", 10),
    ("gomega:1:02", 10),
    ("gomega:01:201", 10),
    ("gomega::0", 10),
    ("bs:2:3", 9),
    ("bs:3:2", 8),
    ("bs:1:2", 8),
]


def chain_scan(base, radius, scanner):
    """`scanner` of levels 0-3 of a fresh chain on `base` against its limit."""
    chain = catalog.chain.__wrapped__(base)
    return scanner([chain.member(n) for n in range(4)], chain.limit, radius)


def mixed_pairs():
    """(members, limit, radius) for groups that the onto rule does not
    relate: a member as the limit, congruence-less raw-word groups against
    congruence groups, and groups with no onto between them."""
    m = catalog.marked
    raw_limit = raw(catalog.load("gomega::012").is_trivial)
    return [
        ([m("gomega::012"), m("gomega::012@0"), m("gomega::012@2")], m("gomega::012@1"), 8),
        ([m("grigorchuk"), m("grigorchuk@0")], m("grigorchuk@1"), 8),
        ([m("bs:2:3@0"), m("bs:2:3@2"), m("met:2:3")], m("bs:2:3@1"), 8),
        ([m("gomega::012@0"), m("gomega::012@1")], raw_limit, 5),
        ([raw_chain_member("gomega::012@0"), m("gomega::012")], m("gomega::012@1"), 5),
        ([m("grigorchuk@0"), m("gomega:1:02"), m("gomega::01")], m("gomega::012"), 8),
        ([m("w_n:1"), m("w_n:2")], m("wreath:z"), 8),
        ([m("wreath:z"), m("bs:2:3")], m("w_n:1"), 8),
        ([m("bs:2:3"), m("bs:3:2")], m("met:2:3"), 8),
        ([m("met:2:3")], m("bs:2:3@1"), 8),
        ([m("gomega::0")], m("gomega::0@2"), 6),
    ]


class TestCollisions:
    """The scan lists kernel words by collisions on the half ball; the scan
    of the whole ball it replaced is the reference."""

    @pytest.mark.parametrize("base, radius", CHAIN_RADII)
    def test_agrees_with_the_reference_on_every_chain_family(self, base, radius):
        assert chain_scan(base, radius, scan) == chain_scan(base, radius, reference_scan)

    def test_agrees_with_the_reference_on_mixed_pairs(self):
        cases = mixed_pairs()
        found = [scan(members, limit, radius) for members, limit, radius in cases]
        assert found == [reference_scan(*case) for case in cases]
        # the pairs see disagreements at several lengths, not only agreement
        values = {v.value for vs in found for v in vs if not v.at_least}
        assert len(values) >= 3

    def test_one_classifier_numbers_the_words_and_their_inverses(self, monkeypatch):
        # a scan whose classes of u and of s^-1 are numbered apart, each in
        # the order its words come, pairs the wrong words
        by_class = marked._by_class

        def numbered_apart(words, number):
            return dict(enumerate(by_class(words, number).values()))

        monkeypatch.setattr(marked, "_by_class", numbered_apart)
        # all but the slowest references; gomega::0's chain disagrees at
        # length 1, where no word pairs with a nonempty s
        cheap = [(b, r) for b, r in CHAIN_RADII if b != "basilica" and not b.startswith("bs:")]
        wrong = [b for b, r in cheap if chain_scan(b, r, scan) != chain_scan(b, r, reference_scan)]
        assert wrong == [b for b, _ in cheap if b != "gomega::0"]

    def test_members_are_asked_only_about_the_limits_kernel_words(self):
        # a member that maps onto the limit is asked about the limit's kernel
        # words, shortest first, up to its first disagreement: all of them
        # when it never disagrees
        lim = catalog.marked("grigorchuk")
        asked = {}

        def member(n):
            g = catalog.chain.__wrapped__("grigorchuk").member(n)
            record = asked.setdefault(n, [])
            return MarkedGroup(g.gens, lambda w: record.append(w) or g.oracle(w), g.name,
                               g.congruence, onto=lim)

        values = scan([member(n) for n in range(3)], lim, 10)
        assert [(v.value, v.at_least) for v in values] == [(7, False), (10, True), (10, True)]
        kernel = [w for w in lim.congruence.ball(10) if w and lim.oracle(w)]
        assert sorted(asked[1], key=shortlex_key) == kernel == sorted(asked[2], key=shortlex_key)
        assert set(asked[0]) < set(kernel) and max(map(len, asked[0])) == 8
        assert len(kernel) < len(list(lim.congruence.ball(10))) // 10

    def test_cap_counts_the_half_ball_and_the_pairs(self, monkeypatch):
        # rank 1 to radius 6: a half ball of 7 words; one class in the
        # trivial group, so 2 pairs at length 1 and 4 at each longer length
        asked = []
        lim = MarkedGroup(X, lambda w: True)
        member = MarkedGroup(X, lambda w: asked.append(w) or True, onto=lim)
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 6)
        with pytest.raises(BudgetExceeded, match="ball cap of 6 words"):
            scan([member], lim, 6)
        assert asked == []
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 10)
        assert valuation(member, lim, 3) == Valuation(3, True, 3)
        asked.clear()
        # 2 + 4 + 4 pairs through length 3, and length 4 would pass the cap
        with pytest.raises(BudgetExceeded, match="cap of 10 word pairs"):
            scan([member], lim, 6)
        assert max(map(len, asked)) == 3

    def test_a_group_without_an_invariant_borrows_its_ontos(self):
        member, limit = catalog.marked("gomega::012@1"), catalog.marked("gomega::012")
        assert member.invariant is None and member.onto is limit
        assert marked._invariant(member) is limit.invariant
        assert marked._invariant(Z1) is None


# S3 as two involutions with (ab)^3 = 1: shortlex rewrites bab -> aba
S3 = Presentation(("a", "b"), ((1, 1), (2, 2), (1, 2) * 3))

# every catalog chain and one gomega chain, at radii where the free ball is
# cheap: 22,409 words in rank 4, 23,437 in rank 3, 13,121 in rank 2
AGREEMENT_CHAINS = [
    ("grigorchuk", 5),
    ("gomega::012", 5),
    ("hanoi3", 6),
    ("img_z2_plus_i", 6),
    ("basilica", 8),
    ("gupta_sidki", 8),
    ("fabrykowski_gupta", 8),
]


class TestCongruence:
    """A congruence read off a complete rewriting system, against the free
    ball it replaces."""

    @pytest.mark.parametrize("base, radius", AGREEMENT_CHAINS)
    def test_congruence_scan_matches_the_free_ball_scan(self, base, radius):
        chain = catalog.chain(base)
        groups = [chain.member(n) for n in range(4)]
        assert all(g.congruence == chain.limit.congruence is not None for g in groups)
        free = scan([without_congruence(g) for g in groups], without_congruence(chain.limit),
                    radius)
        assert scan(groups, chain.limit, radius) == free

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_ball_is_the_irreducible_free_words(self, name):
        cong = catalog.marked(name).congruence
        rank = len(catalog.load(name).gens)
        irreducible = [w for w in free_ball(rank, 5) if cong.normal_form(w) == w]
        assert sorted(cong.ball(5)) == sorted(irreducible)

    def test_equal_by_rule_set(self):
        # covers of one shape share the ball; covers of two shapes do not
        cong = {name: catalog.marked(name).congruence for name in catalog.RECURSION_NAMES}
        assert cong["hanoi3"] == cong["img_z2_plus_i"]
        assert cong["gupta_sidki"] == cong["fabrykowski_gupta"]
        assert len(set(cong.values())) == 4

    def test_refuses_an_incomplete_system(self):
        partial = complete(Presentation(("a", "b"), ((1, 2, -1, -2),)), max_rules=3)
        assert not partial.complete
        with pytest.raises(ValueError, match="complete"):
            Congruence(partial)

    def test_ball_leaves_out_words_with_a_long_left_side(self):
        # the last-letter table's b a b is filtered out of the ball
        s3 = complete(S3)
        assert s3.complete and max(len(r.lhs) for r in s3.rules) == 3
        assert list(Congruence(s3).ball(6)) == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]

    @pytest.mark.parametrize("name, radius", [("s3", 6), ("long_rec", 4)])
    def test_ball_is_the_irreducible_free_words_in_order(self, name, radius):
        sys_ = complete(S3) if name == "s3" else long_cover(LONG_REC)[1]
        assert max(len(r.lhs) for r in sys_.rules) > 2
        cong = Congruence(sys_)
        irreducible = sorted(
            (w for w in free_ball(len(sys_.gens), radius) if sys_.rewrite(w) == w),
            key=shortlex_key,
        )
        for r in range(radius + 1):
            assert list(cong.ball(r)) == [w for w in irreducible if len(w) <= r]


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
            for w in grig.C2V.ball(6):
                if group.oracle(w):
                    hits += 1
                    assert lim.oracle(w)
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
