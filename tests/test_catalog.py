import os

import pytest

from contracta import catalog, contraction, covers, gomega
from contracta.cosets import FreeProductSignature
from contracta.errors import SemanticError
from contracta.grig import C2V, reduce_word
from contracta.marked import Congruence
from contracta.words import format_word, parse_word


class TestLoad:
    def test_all_recursion_names_load(self):
        for name in catalog.RECURSION_NAMES:
            g = catalog.load(name)
            assert g.recursion is not None
            assert g.rank == len(g.gens)

    def test_one_entry_per_budget(self):
        # `load`, with the default budget named or not, and `cover_for` read
        # one cache entry; another budget gets one of its own
        g = catalog.load("hanoi3")
        misses = catalog._recursion_entry.cache_info().misses
        catalog.cover_for.__wrapped__("hanoi3")
        assert catalog.load("hanoi3", contraction.Budget()) is g
        assert catalog._recursion_entry.cache_info().misses == misses
        assert catalog.load("hanoi3", contraction.Budget(max_states=50)) is not g

    def test_equal_budgets_share_one_entry(self):
        small = catalog.load("hanoi3", contraction.Budget(max_states=50))
        misses = catalog._recursion_entry.cache_info().misses
        assert catalog.load("hanoi3", contraction.Budget(50, 64, 4_096)) is small
        assert catalog._recursion_entry.cache_info().misses == misses

    def test_unknown_name(self):
        with pytest.raises(SemanticError):
            catalog.load("no_such_group")

    def test_grigorchuk_recursion_matches_definition(self, grig):
        rec = grig.recursion
        assert rec.gens == ("a", "b", "c", "d")
        assert rec.perm_table == ((1, 0), (0, 1), (0, 1), (0, 1))
        assert rec.section_table[1] == ((1,), (3,))  # b = (a, c)

    def test_fabrykowski_gupta_sections(self):
        g = catalog.load("fabrykowski_gupta")
        assert g.recursion.section_table[1] == ((1,), (), (2,))  # b = (a, 1, b)

    def test_parametrized_families(self):
        bs = catalog.load("bs:2:3")
        assert bs.rank == 2
        met = catalog.load("met:2:3")
        assert met.is_trivial(())
        wr = catalog.load("wreath:z2")
        assert wr.is_trivial(parse_word("s s", wr.gens))
        wn = catalog.load("w_n:2")
        assert wn.rank == 2

    def test_non_integer_specs_are_named(self):
        for spec, load in (
            ("w_n:x", catalog.load),
            ("grigorchuk@x", catalog.marked),
            ("gomega::012@", catalog.marked),
            ("bs:2:3@1.5", catalog.marked),
        ):
            with pytest.raises(SemanticError, match="with an integer n") as exc:
                load(spec)
            assert repr(spec) in str(exc.value)

    def test_gomega_matches_grigorchuk_oracle(self, grig, rng):
        from conftest import random_word

        g = catalog.load("gomega::012")
        for _ in range(50):
            u = random_word(rng, 4, 10)
            assert g.is_trivial(u) == grig.is_trivial(u)

    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "tiny.rec").write_text(
            "alphabet 2\ngen a = perm(1 0) sections(1, 1)\n#! nucleus_size: 2\n"
        )
        monkeypatch.setenv("CONTRACTA_CATALOG", str(tmp_path))
        g = catalog._recursion_entry.__wrapped__("tiny", catalog.DEFAULT_BUDGET)
        assert g.facts["nucleus_size"] == 2
        assert g.gens == ("a",)


class TestOneRecord:
    """`load` and `marked` build one `MarkedGroup` per spec, with one oracle
    and so one memo."""

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_a_marked_recursion_shares_the_loaded_oracle(self, name):
        g, m = catalog.load(name), catalog.marked(name)
        assert m.oracle is g.oracle
        assert m.congruence == Congruence(catalog.cover_for(name)[1])
        assert (m.gens, m.recursion, m.facts, m.invariant) == (
            g.gens, g.recursion, g.facts, g.invariant)

    @pytest.mark.parametrize("spec", ["gomega::012", "bs:2:3", "met:2:3", "wreath:z", "w_n:1"])
    def test_marked_is_the_record_load_builds(self, spec, monkeypatch):
        built, load = [], catalog.load
        monkeypatch.setattr(catalog, "load", lambda *args: built.append(load(*args)) or built[-1])
        g = catalog.marked.__wrapped__(spec)
        assert len(built) == 1 and built[0] is g
        assert g.name == spec and catalog.marked(spec) is catalog.marked(spec)

    def test_gomega_is_trivial_takes_any_word(self, rng):
        from conftest import random_word

        om = gomega.OmegaSequence.parse(":012")
        g = catalog.load("gomega::012")
        assert g.congruence is C2V
        ball = list(C2V.ball(8))
        assert [g.is_trivial(w) for w in ball] == [g.oracle(w) for w in ball]
        assert any(g.oracle(w) for w in ball if w)
        for _ in range(200):
            u = random_word(rng, 4, 16)
            assert g.is_trivial(u) == gomega.normal_form_is_trivial(om, reduce_word(u))

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_gomega_group_and_chain_members_normalize_with_reduce_word(self, rng, level):
        # the group and a member of its chain carry C2V, so each hands its
        # oracle the `reduce_word` normal form of a raw word
        from conftest import random_word

        om = gomega.OmegaSequence.parse(":012")
        g = catalog.load("gomega::012")
        member = catalog.chain.__wrapped__("gomega::012").member(level)
        assert g.congruence is member.congruence is C2V
        asked = []
        for record in (g, member):  # fresh records, so the spies stay here
            oracle = record.oracle
            record.oracle = lambda w, oracle=oracle: asked.append(w) or oracle(w)
        for _ in range(200):
            u = random_word(rng, 4, 16)
            del asked[:]
            assert g.is_trivial(u) == gomega.normal_form_is_trivial(om, reduce_word(u))
            assert member.is_trivial(u) == gomega.normal_form_kernel_member(
                om, reduce_word(u), level)
            assert asked == [reduce_word(u)] * 2


class TestExpectedFacts:
    """Every catalog entry's recorded facts hold under the oracles."""

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_nucleus_size(self, name):
        g = catalog.load(name)
        nuc = contraction.nucleus(g.recursion)
        assert len(nuc) == g.facts["nucleus_size"]

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_cover_relators(self, name):
        g = catalog.load(name)
        cover, _ = catalog.cover_for(name)
        got = sorted(
            format_word(r, cover.presentation.gens)
            for r in cover.presentation.relators
        )
        assert got == sorted(g.facts["cover_relators"])

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_cover_generators_are_the_recursion_generators(self, name):
        # the cover's congruence is over the marked group's own letters
        cover, _ = catalog.cover_for(name)
        assert cover.presentation.gens == catalog.load(name).gens

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_the_c2v_cover_carries_the_c2v_congruence(self, name):
        congruence = catalog.marked(name).congruence
        assert congruence == Congruence(catalog.cover_for(name)[1])
        is_c2v = catalog.load(name).facts["cover_shape"] == "C2 * V"
        assert (congruence == C2V) == is_c2v

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_cover_rank_matches_factor_data(self, name):
        g = catalog.load(name)
        cover, _ = catalog.cover_for(name)
        orders = g.facts["cover_factor_orders"]
        free_rank = g.facts.get("cover_free_rank", 0)
        if orders:
            sig = FreeProductSignature(tuple(orders), free_rank)
            # a free product of finite cyclic-like factors has one generator
            # per factor plus one per free rank
            assert len(cover.presentation.gens) >= len(orders)
        else:
            assert len(cover.presentation.gens) == free_rank
            assert cover.presentation.relators == ()

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_self_replicating_flag(self, name):
        # exact witnesses for every (letter, nucleus element) pair make the
        # base group level-1 self-replicating
        g = catalog.load(name)
        if g.facts.get("self_replicating"):
            cover, sys_ = catalog.cover_for(name)
            result = covers.standard_cover(cover, sys=sys_)
            assert len(result.witnesses) == g.recursion.degree * len(cover.nucleus)
            assert all(result.exact.values())

    @pytest.mark.parametrize("name", catalog.RECURSION_NAMES)
    def test_standard_cover_not_needed(self, name):
        cover, sys_ = catalog.cover_for(name)
        result = covers.standard_cover(cover, sys=sys_)
        assert result.already_self_replicating
