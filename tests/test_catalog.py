import os

import pytest

from contracta import catalog, contraction, covers
from contracta.cosets import FreeProductSignature
from contracta.errors import SemanticError
from contracta.words import format_word, parse_word


class TestLoad:
    def test_all_recursion_names_load(self):
        for name in catalog.RECURSION_NAMES:
            g = catalog.load(name)
            assert g.recursion is not None
            assert g.rank == len(g.gens)

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
        g = catalog._recursion_entry.__wrapped__("tiny")
        assert g.facts["nucleus_size"] == 2
        assert g.gens == ("a",)


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
