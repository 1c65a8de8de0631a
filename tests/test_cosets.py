import functools
import random
import tracemalloc
from fractions import Fraction

import pytest

from contracta import grig
from contracta.cosets import (
    FreeProductSignature,
    _col,
    _Enumerator,
    _layout,
    _standardize,
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
            perm = [row[2 * k] for row in table.table]
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

    def test_undefined_entry_raises(self):
        # a hole left in a live row is an error, not a KeyError in renumbering
        pres = Presentation(("x",), ())
        layout, inv = _layout(pres)
        enum = _Enumerator(inv, 4)
        with pytest.raises(ContractaError, match="incomplete coset table"):
            _standardize(enum, layout, pres)

    def test_one_pass_over_the_cosets(self, monkeypatch):
        # G_2/H_2 meets no coincidence, so one HLT pass scans each subgroup
        # generator once at coset 0 and each relator once at each coset
        calls = []
        scan = _Enumerator.scan_and_fill

        def counted(self, *args):
            calls.append(args)
            return scan(self, *args)

        monkeypatch.setattr(_Enumerator, "scan_and_fill", counted)
        pres, gens = grig.g_n_presentation(2), grig.h_n_generators(2)
        table = enumerate_cosets(pres, gens)
        assert table.index == 1024
        assert len(calls) == len(gens) + table.index * len(pres.relators)

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


class TestInvolutionColumns:
    """A generator with relator `x x` or `x^-1 x^-1` gets one working column,
    which is its own inverse; every other generator keeps two."""

    def test_g_n_generators_fold(self, g0):
        assert _layout(g0) == ([0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 2, 3])

    def test_inverse_square_folds(self):
        gens = ("x", "y")
        pres = Presentation(gens, ((-1, -1), (2, 2, 2), (1, 2) * 5))
        assert _layout(pres) == ([0, 0, 1, 2], [0, 2, 1])
        # the same table as with `x x`, at the same definition count
        assert enumerate_cosets(pres, [], max_cosets=66).table == enumerate_cosets(
            _triangle(5), []
        ).table
        with pytest.raises(BudgetExceeded, match="coset budget 65 exhausted"):
            enumerate_cosets(pres, [], max_cosets=65)

    def test_odd_order_does_not_fold(self):
        # folding x here would force x = x^-1, so x = 1: a one-coset table
        # that still satisfies x^3, which only the index can catch
        pres = Presentation(("x",), ((1, 1, 1),))
        assert _layout(pres) == ([0, 1], [1, 0])
        assert enumerate_cosets(pres, []).index == 3

    def test_a_consequence_x_squared_does_not_fold(self):
        # x^2 = 1 follows from x^4 and x^6, but is not a relator
        pres = Presentation(("x",), ((1,) * 4, (1,) * 6))
        assert _layout(pres) == ([0, 1], [1, 0])
        assert enumerate_cosets(pres, []).index == 2


class TestH1:
    def test_h1_has_index_sixty_four(self):
        p1 = grig.g_n_presentation(1)
        table = enumerate_cosets(p1, grig.h_n_generators(1))
        assert table.index == 64


class _ReferenceEnumerator:
    """The list-of-lists HLT enumerator the flat table replaced: one row
    list per coset, ids as entries, None for undefined, a union-find list
    over every coset."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.queue = []
        self.dead = 0

    def rep(self, a):
        r = a
        while self.p[r] != r:
            r = self.p[r]
        while self.p[a] != r:
            self.p[a], a = r, self.p[a]
        return r

    def define(self, a, col):
        if len(self.table) >= self.max_cosets:
            raise BudgetExceeded(f"coset budget {self.max_cosets} exhausted")
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(b)
        self.table[a][col] = b
        self.table[b][col ^ 1] = a
        return b

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.dead += 1
        self.queue.append(b)

    def process_coincidences(self):
        while self.queue:
            dead = self.queue.pop()
            row = self.table[dead]
            for col in range(self.ncols):
                c = row[col]
                if c is None:
                    continue
                if self.table[c][col ^ 1] == dead:
                    self.table[c][col ^ 1] = None
                mu, nu = self.rep(dead), self.rep(c)
                if self.table[mu][col] is not None:
                    self.merge(nu, self.table[mu][col])
                elif self.table[nu][col ^ 1] is not None:
                    self.merge(mu, self.table[nu][col ^ 1])
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, a, cols):
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    self.process_coincidences()
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.merge(f, b)
                self.process_coincidences()
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                return
            f = self.define(f, cols[i])
            i += 1


def reference_table(pres, subgroup_gens, max_cosets):
    """Standardized rows from the list-of-lists enumerator, and the number
    of cosets it defined."""
    enum = _ReferenceEnumerator(len(pres.gens), max_cosets)
    rel_cols = [tuple(_col(x) for x in r) for r in pres.relators]
    sub_cols = [tuple(_col(x) for x in w) for w in subgroup_gens if w]
    stable = False
    while not stable:
        stable = True
        for cols in sub_cols:
            enum.scan_and_fill(0, cols)
        a = 0
        while a < len(enum.table):
            if enum.p[a] != a:
                a += 1
                continue
            dead_before = enum.dead
            for cols in rel_cols:
                enum.scan_and_fill(a, cols)
                if enum.p[a] != a:
                    break
            if enum.p[a] == a:
                for col in range(enum.ncols):
                    if enum.table[a][col] is None:
                        enum.define(a, col)
            if enum.dead != dead_before:
                stable = False
            a += 1
    live = [i for i in range(len(enum.table)) if enum.p[i] == i]
    resolved = {a: [enum.rep(x) for x in enum.table[a]] for a in live}
    order, seen, q = [0], {0}, 0
    while q < len(order):
        for x in resolved[order[q]]:
            if x not in seen:
                seen.add(x)
                order.append(x)
        q += 1
    assert len(order) == len(live)
    renum = {a: i for i, a in enumerate(order)}
    return [[renum[x] for x in resolved[a]] for a in order], len(enum.table)


def _triangle(k):
    gens = ("x", "y")
    return Presentation(
        gens, tuple(parse_word(r, gens) for r in ["x x", "y y y", " ".join(["x y"] * k)])
    )


@functools.cache
def _reference(case):
    pres, gens = TestFlatTableAgreesWithListOfLists.CASES[case]()
    return reference_table(pres, gens, 2**22)


def _random_word(rng, ngens, length):
    word = []
    while len(word) < length:
        x = rng.choice([1, -1]) * rng.randint(1, ngens)
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def _random_presentation(rng):
    """1-3 generators, each an involution with probability 1/2 (written
    `x x` or `x^-1 x^-1`), 1-3 random relators and 0-2 subgroup words."""
    ngens = rng.randint(1, 3)
    rels = [(g, g) for g in (rng.choice([k, -k]) for k in range(1, ngens + 1))
            if rng.random() < 0.5]
    rels += [_random_word(rng, ngens, rng.randint(2, 8)) for _ in range(rng.randint(1, 3))]
    subs = [_random_word(rng, ngens, rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
    return Presentation(("x", "y", "z")[:ngens], tuple(rels)), subs


class TestFlatTableAgreesWithListOfLists:
    """The reference is the list-of-lists enumerator the flat table
    replaced, with two columns for every generator.  It repeats its HLT pass
    until a pass meets no coincidence; the flat one makes a single pass and
    gives an involution one column, so it defines fewer cosets.  Both
    produce the same standardized table."""

    CASES = {
        "g0_xi0": lambda: (grig.g_n_presentation(0), grig.XI0_GENS),
        "g0_b0": lambda: (grig.g_n_presentation(0), grig.B0_GENS),
        "g0_k0": lambda: (grig.g_n_presentation(0), grig.K0_GENS),
        "g0_all": lambda: (grig.g_n_presentation(0), [(1,), (2,), (3,), (4,)]),  # a b c d
        "g1_h1": lambda: (grig.g_n_presentation(1), grig.h_n_generators(1)),
        "g2_h2": lambda: (grig.g_n_presentation(2), grig.h_n_generators(2)),
        "g3_h2": lambda: (grig.g_n_presentation(3), grig.h_n_generators(2)),
        "triangle_3": lambda: (_triangle(3), []),
        "triangle_4": lambda: (_triangle(4), []),
        "triangle_5": lambda: (_triangle(5), []),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_table(self, case):
        pres, gens = self.CASES[case]()
        table = enumerate_cosets(pres, gens)
        assert table.table == _reference(case)[0]

    @pytest.mark.parametrize("case", list(CASES))
    def test_defines_no_more_than_the_reference(self, case):
        pres, gens = self.CASES[case]()
        rows, defined = _reference(case)
        assert enumerate_cosets(pres, gens, max_cosets=defined).table == rows

    @pytest.mark.parametrize("case", ["g0_b0", "triangle_5"])
    def test_same_budget_point(self, case):
        # the budget admits exactly the cosets the folded table defines; the
        # list-of-lists one defines 23 and 82
        defined = {"g0_b0": 16, "triangle_5": 66}[case]
        pres, gens = self.CASES[case]()
        assert enumerate_cosets(pres, gens, max_cosets=defined).table == _reference(case)[0]
        with pytest.raises(BudgetExceeded, match=f"coset budget {defined - 1} exhausted"):
            enumerate_cosets(pres, gens, max_cosets=defined - 1)

    def test_random_presentations(self):
        rng = random.Random(5)
        nontrivial_folded = 0
        for _ in range(300):
            pres, gens = _random_presentation(rng)
            try:
                rows, _ = reference_table(pres, gens, 3000)
            except BudgetExceeded:
                continue
            assert enumerate_cosets(pres, gens, max_cosets=3000).table == rows, pres
            layout = _layout(pres)[0]
            nontrivial_folded += len(rows) > 1 and len(set(layout)) < len(layout)
        # the sample is not all trivial groups or all unfolded generators
        assert nontrivial_folded >= 50

    def test_triangle_group_orders(self):
        # <x, y | x^2, y^3, (xy)^k> is A_4, S_4, A_5 for k = 3, 4, 5
        assert [enumerate_cosets(_triangle(k), []).index for k in (3, 4, 5)] == [12, 24, 60]

    def test_same_budget_failure(self):
        pres, gens = grig.g_n_presentation(3), grig.h_n_generators(3)
        with pytest.raises(BudgetExceeded) as flat:
            enumerate_cosets(pres, gens, max_cosets=2**12)
        with pytest.raises(BudgetExceeded) as ref:
            reference_table(pres, gens, 2**12)
        assert str(flat.value) == str(ref.value) == "coset budget 4096 exhausted"


class TestBudget:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_is_rejected(self, g0, budget):
        with pytest.raises(ValueError, match="max_cosets must be positive"):
            enumerate_cosets(g0, grig.XI0_GENS, max_cosets=budget)

    def test_one_coset_fits_a_budget_of_one(self, g0):
        gens = [parse_word(g, g0.gens) for g in g0.gens]
        assert enumerate_cosets(g0, gens, max_cosets=1).index == 1

    def test_peak_memory_per_budgeted_coset(self):
        # G_3/H_3 fills its whole budget, so the traced peak is the table's
        # size at the budget: one flat list of offsets, no list per coset
        pres, gens = grig.g_n_presentation(3), grig.h_n_generators(3)
        budget = 2**14
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                enumerate_cosets(pres, gens, max_cosets=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 80 * budget


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
