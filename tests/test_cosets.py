from fractions import Fraction

import pytest

from contracta import grig
from contracta.cosets import (
    FreeProductSignature,
    _col,
    _verify,
    enumerate_cosets,
    kernel_rank_free_product,
)
from contracta.errors import BudgetExceeded, ContractaError
from contracta.rewriting import Presentation
from contracta.words import parse_word


def _hole(rows):
    rows[3][0] = None


def _repeat(rows):
    rows[3][0] = rows[4][0]


def _swap(rows):
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]


@pytest.fixture(scope="module")
def g0():
    return grig.g_n_presentation(0)


class TestEnumeration:
    def test_full_generating_set_gives_index_one(self, g0):
        table = enumerate_cosets(g0, [parse_word(g, g0.gens) for g in g0.gens])
        assert table.index == 1

    def test_xi0_has_index_two(self, g0):
        assert enumerate_cosets(g0, grig.XI0_GENS).index == 2

    def test_b0_has_index_eight(self, g0):
        assert enumerate_cosets(g0, grig.B0_GENS).index == 8

    def test_k0_has_index_sixteen(self, g0):
        assert enumerate_cosets(g0, grig.K0_GENS).index == 16

    def test_index_multiplicativity_along_the_chain(self, g0):
        # index(K_0) = index(B_0) * index(K_0 in B_0) = 8 * 2
        assert (
            enumerate_cosets(g0, grig.K0_GENS).index
            == enumerate_cosets(g0, grig.B0_GENS).index * 2
        )

    def test_klein_four_quotient(self):
        gens = ("x", "y")
        pres = Presentation(
            gens,
            tuple(
                parse_word(t, gens)
                for t in ["x x", "y y", "x y x^-1 y^-1"]
            ),
        )
        assert enumerate_cosets(pres, []).index == 4

    def test_budget_exhaustion(self):
        # free group of rank 2 has no finite coset table over the trivial
        # subgroup; the budget must fire
        pres = Presentation(("x", "y"), ())
        with pytest.raises(BudgetExceeded):
            enumerate_cosets(pres, [], max_cosets=64)

    def test_columns_are_permutations_and_relators_fix_cosets(self, g0):
        table = enumerate_cosets(g0, grig.B0_GENS)
        for k in range(len(g0.gens)):
            perm = table.permutation(k)
            assert sorted(perm) == list(range(table.index))

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (_hole, "incomplete coset table"),
            (_repeat, "column is not a permutation"),
            (_swap, "relator does not fix a coset"),
        ],
    )
    def test_corrupted_table_raises(self, g0, corrupt, message):
        # a real error, not an assert, so the check also runs under python -O
        table = enumerate_cosets(g0, grig.B0_GENS)
        rel_cols = [tuple(_col(x) for x in r) for r in g0.relators]
        sub_cols = [tuple(_col(x) for x in u) for u in grig.B0_GENS if u]
        _verify(table, rel_cols, sub_cols)
        corrupt(table.table)
        with pytest.raises(ContractaError, match=message):
            _verify(table, rel_cols, sub_cols)

    def test_transitive_action(self, g0):
        table = enumerate_cosets(g0, grig.K0_GENS)
        reached = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for x in table.table[a]:
                if x not in reached:
                    reached.add(x)
                    frontier.append(x)
        assert reached == set(range(table.index))

    def test_deterministic_tables(self, g0):
        first = enumerate_cosets(g0, grig.B0_GENS).export_text()
        second = enumerate_cosets(g0, grig.B0_GENS).export_text()
        assert first == second

    def test_export_format(self, g0):
        table = enumerate_cosets(g0, grig.XI0_GENS)
        text = table.export_text()
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("coset 0: a->")


class TestH1:
    def test_h1_has_index_sixty_four(self):
        p1 = grig.g_n_presentation(1)
        table = enumerate_cosets(p1, grig.h_n_generators(1))
        assert table.index == 64


class TestRank:
    def test_paper_triples(self):
        assert kernel_rank_free_product(FreeProductSignature((2, 4)), 8) == 3
        assert kernel_rank_free_product(FreeProductSignature((2, 2, 2)), 8) == 5
        assert kernel_rank_free_product(FreeProductSignature((3, 3)), 9) == 4

    def test_euler_characteristics(self):
        assert FreeProductSignature((2, 4)).euler_characteristic == Fraction(-1, 4)
        assert FreeProductSignature((2, 2, 2)).euler_characteristic == Fraction(-1, 2)
        assert FreeProductSignature((3, 3)).euler_characteristic == Fraction(-1, 3)
        # a free factor contributes -1 per rank
        assert FreeProductSignature((), 2).euler_characteristic == Fraction(-1)

    def test_non_integral_rank_is_rejected(self):
        with pytest.raises(ValueError):
            kernel_rank_free_product(FreeProductSignature((2, 4)), 7)

    def test_invalid_signature(self):
        with pytest.raises(ValueError):
            FreeProductSignature((1, 2))
        with pytest.raises(ValueError):
            kernel_rank_free_product(FreeProductSignature((2, 4)), 0)
