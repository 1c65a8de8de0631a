"""Todd-Coxeter coset enumeration and Euler-characteristic rank counts.

The enumerator is HLT-style: scan every relator at every live coset, define
new cosets to fill gaps, process coincidences through a union-find merge.
Row filling keeps the scan order deterministic, so a given input always
produces the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ContractaError
DEFAULT_MAX_COSETS = 2**22


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _inv_col(col: int) -> int:
    return col ^ 1


@dataclass
class CosetTable:
    gens: tuple
    table: list  # rows over 2*len(gens) columns, entries are coset ids
    subgroup_gens: tuple
    complete: bool = True

    @property
    def index(self) -> int:
        return len(self.table)

    def permutation(self, gen_index: int):
        """Action of a generator on cosets; rows must be complete."""
        col = 2 * gen_index
        return tuple(row[col] for row in self.table)

    def export_text(self) -> str:
        lines = []
        for i, row in enumerate(self.table):
            cells = " ".join(
                f"{g}->{row[2 * k]}" for k, g in enumerate(self.gens)
            )
            lines.append(f"coset {i}: {cells}")
        return "\n".join(lines) + "\n"


class _Enumerator:
    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]  # union-find; p[i] <= i for live cosets
        self.queue = []
        self.dead = 0

    # -- union-find --------------------------------------------------------

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
        self.table[b][_inv_col(col)] = a
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
                # clear the mirrored pointer back at the dead coset, then
                # replay the edge between current representatives
                if self.table[c][_inv_col(col)] == dead:
                    self.table[c][_inv_col(col)] = None
                mu, nu = self.rep(dead), self.rep(c)
                if self.table[mu][col] is not None:
                    self.merge(nu, self.table[mu][col])
                elif self.table[nu][_inv_col(col)] is not None:
                    self.merge(mu, self.table[nu][_inv_col(col)])
                else:
                    self.table[mu][col] = nu
                    self.table[nu][_inv_col(col)] = mu

    def scan_and_fill(self, a, cols):
        """Scan a relator (as column sequence) at coset a, filling gaps."""
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            # scan forward as far as possible
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    self.process_coincidences()
                return
            # scan backward
            while j >= i and self.table[b][_inv_col(cols[j])] is not None:
                b = self.table[b][_inv_col(cols[j])]
                j -= 1
            if j < i:
                self.merge(f, b)
                self.process_coincidences()
                return
            if j == i:
                # deduction closes the scan
                self.table[f][cols[i]] = b
                self.table[b][_inv_col(cols[i])] = f
                return
            f = self.define(f, cols[i])
            i += 1

    def live(self):
        return [i for i in range(len(self.table)) if self.p[i] == i]


def enumerate_cosets(
    pres, subgroup_gens, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Index of the subgroup generated by `subgroup_gens` in the presented
    group, with the completed coset table (standardized numbering)."""
    enum = _Enumerator(len(pres.gens), max_cosets)
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
                stable = False  # coincidences can punch holes in earlier rows
            a += 1

    table = _standardize(enum, pres, subgroup_gens)
    _verify(table, rel_cols, sub_cols)
    return table


def _verify(table: CosetTable, rel_cols, sub_cols):
    rows = table.table
    for row in rows:
        if any(x is None for x in row):
            raise ContractaError("incomplete coset table")
    for col in range(2 * len(table.gens)):
        images = [row[col] for row in rows]
        if sorted(images) != list(range(len(rows))):
            raise ContractaError("column is not a permutation")
    for cols in rel_cols:
        for i in range(len(rows)):
            a = i
            for c in cols:
                a = rows[a][c]
            if a != i:
                raise ContractaError("relator does not fix a coset")
    for cols in sub_cols:
        a = 0
        for c in cols:
            a = rows[a][c]
        if a != 0:
            raise ContractaError("subgroup generator moves coset 0")


def _standardize(enum, pres, subgroup_gens):
    """Renumber live cosets in BFS order from coset 0, column order."""
    live = enum.live()
    # resolve all entries through the union-find first
    resolved = {}
    for a in live:
        resolved[a] = [enum.rep(x) if x is not None else None for x in enum.table[a]]
    order = [enum.rep(0)]
    seen = {order[0]}
    q = 0
    while q < len(order):
        a = order[q]
        q += 1
        for x in resolved[a]:
            if x is not None and x not in seen:
                seen.add(x)
                order.append(x)
    if len(order) != len(live):
        raise ContractaError("coset table is not transitive")
    renum = {a: i for i, a in enumerate(order)}
    table = [[renum[x] for x in resolved[a]] for a in order]
    return CosetTable(pres.gens, table, tuple(subgroup_gens))


@dataclass(frozen=True)
class FreeProductSignature:
    """Free product of finite factors of the given orders with a free factor."""

    factor_orders: tuple
    free_rank: int = 0

    def __post_init__(self):
        if any(m < 2 for m in self.factor_orders):
            raise ValueError("finite factor orders must be >= 2")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")

    @property
    def euler_characteristic(self) -> Fraction:
        r = len(self.factor_orders)
        return sum(
            (Fraction(1, m) for m in self.factor_orders), Fraction(0)
        ) - (r + self.free_rank - 1)


def kernel_rank_free_product(sig: FreeProductSignature, index: int) -> int:
    """Rank of a free subgroup of the given index, from chi(F_x) = 1 - x and
    multiplicativity of the Euler characteristic.  Exact rationals only."""
    if index < 1:
        raise ValueError("index must be >= 1")
    chi = index * sig.euler_characteristic
    rank = 1 - chi
    if rank.denominator != 1 or rank < 0:
        raise ValueError(
            f"no free subgroup of index {index}: rank would be {rank}"
        )
    return int(rank)
