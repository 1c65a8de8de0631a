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
    """HLT working storage in one flat list of `ncols`-slot rows.

    Coset k's row starts at offset `(k + 1) * ncols`, so coset 0 sits at
    offset `ncols` and an entry of 0 means undefined.  Entries hold row
    offsets.  The union-find `p` holds dead cosets only, mapping each to the
    coset it merged into; a live coset's offset is not in `p`.  One list of
    ints, not one list per coset, keeps the garbage collector off the table.
    """

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.blank = [0] * self.ncols
        self.t = self.blank * 2  # an unused row at offset 0, then coset 0
        self.end = (max_cosets + 1) * self.ncols  # table length at the budget
        self.max_cosets = max_cosets
        self.p = {}
        self.queue = []

    # -- union-find --------------------------------------------------------

    def rep(self, a):
        p = self.p
        r = a
        while r in p:
            r = p[r]
        while a != r:
            p[a], a = r, p[a]
        return r

    def define(self, a, col):
        t = self.t
        b = len(t)
        if b >= self.end:
            raise BudgetExceeded(f"coset budget {self.max_cosets} exhausted")
        t += self.blank
        t[a + col] = b
        t[b + (col ^ 1)] = a
        return b

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.queue.append(b)

    def process_coincidences(self):
        t, queue, rep = self.t, self.queue, self.rep
        while queue:
            dead = queue.pop()
            for col in range(self.ncols):
                c = t[dead + col]
                if not c:
                    continue
                # clear the mirrored pointer back at the dead coset, then
                # replay the edge between current representatives
                inv = col ^ 1
                if t[c + inv] == dead:
                    t[c + inv] = 0
                mu, nu = rep(dead), rep(c)
                if t[mu + col]:
                    self.merge(nu, t[mu + col])
                elif t[nu + inv]:
                    self.merge(mu, t[nu + inv])
                else:
                    t[mu + col] = nu
                    t[nu + inv] = mu

    def scan_and_fill(self, a, cols, inv):
        """Scan a relator (columns `cols`, inverse columns `inv`) at coset
        offset a, filling gaps."""
        t = self.t
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            # scan forward as far as possible
            while i <= j and (x := t[f + cols[i]]):
                f = x
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    self.process_coincidences()
                return
            # scan backward
            while j >= i and (x := t[b + inv[j]]):
                b = x
                j -= 1
            if j < i:
                self.merge(f, b)
                self.process_coincidences()
                return
            if j == i:
                # deduction closes the scan
                t[f + cols[i]] = b
                t[b + inv[i]] = f
                return
            f = self.define(f, cols[i])
            i += 1


def enumerate_cosets(
    pres, subgroup_gens, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Index of the subgroup generated by `subgroup_gens` in the presented
    group, with the completed coset table (standardized numbering)."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if not pres.gens:  # the trivial group: one coset, and no columns
        return CosetTable(pres.gens, [[]], tuple(subgroup_gens))
    enum = _Enumerator(len(pres.gens), max_cosets)
    rel_cols = [tuple(_col(x) for x in r) for r in pres.relators]
    sub_cols = [tuple(_col(x) for x in w) for w in subgroup_gens if w]
    rels = [(c, tuple(x ^ 1 for x in c)) for c in rel_cols]
    subs = [(c, tuple(x ^ 1 for x in c)) for c in sub_cols]
    t, p, ncols = enum.t, enum.p, enum.ncols

    for cols, inv in subs:
        enum.scan_and_fill(ncols, cols, inv)
    a = ncols
    while a < len(t):
        if a in p:
            a += ncols
            continue
        for cols, inv in rels:
            enum.scan_and_fill(a, cols, inv)
            if a in p:
                break
        else:
            for col in range(ncols):
                if not t[a + col]:
                    enum.define(a, col)
        a += ncols

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
    t, ncols, rep = enum.t, enum.ncols, enum.rep
    live = [a for a in range(ncols, len(t), ncols) if a not in enum.p]
    # resolve all entries through the union-find first
    resolved = {a: [rep(x) for x in t[a:a + ncols]] for a in live}
    if any(0 in row for row in resolved.values()):
        raise ContractaError("incomplete coset table")
    order = [ncols]
    seen = {ncols}
    q = 0
    while q < len(order):
        a = order[q]
        q += 1
        for x in resolved[a]:
            if x not in seen:
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
