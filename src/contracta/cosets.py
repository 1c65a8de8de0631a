"""Todd-Coxeter coset enumeration and Euler-characteristic rank counts.

The enumerator is HLT-style: scan every relator at every live coset, define
new cosets to fill gaps, process coincidences through a union-find merge.
Row filling keeps the scan order deterministic, so a given input always
produces the same table.

A generator x with a relator `x x` (or `x^-1 x^-1`) is an involution and
gets one self-inverse working column for x and x^-1, so G_n's rows (four
involutions) are half as long.  The finished table is expanded back to two
columns per generator before it is renumbered and checked.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceeded, ContractaError
from .record import Record
DEFAULT_MAX_COSETS = 2**22


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _layout(pres):
    """The working column of each `_col` column, and the inverse of each
    working column: an involution's x and x^-1 share one self-inverse
    column, every other generator has two."""
    folded = {abs(r[0]) for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    layout, inv = [], []
    for g in range(1, len(pres.gens) + 1):
        x = len(inv)
        layout += [x, x] if g in folded else [x, x + 1]
        inv += [x] if g in folded else [x + 1, x]
    return layout, inv


class CosetTable(Record):
    __slots__ = ("gens", "table")

    def __init__(self, gens: tuple, table: list):
        self.gens = gens
        self.table = table  # rows over 2*len(gens) columns, entries are coset ids

    @property
    def index(self) -> int:
        return len(self.table)

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
    offsets.  `inv[col]` is the column of the inverse letter, `col` itself
    for an involution.  The union-find `p` holds dead cosets only, mapping
    each to the coset it merged into; a live coset's offset is not in `p`.
    One list of ints, not one list per coset, keeps the garbage collector off
    the table.
    """

    def __init__(self, inv, max_cosets):
        self.inv = inv
        self.ncols = len(inv)
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
        t[b + self.inv[col]] = a
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
            for col, inv in enumerate(self.inv):
                c = t[dead + col]
                if not c:
                    continue
                # clear the mirrored pointer back at the dead coset, then
                # replay the edge between current representatives
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
        t, end, blank = self.t, self.end, self.blank
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
            # define f's image, as `define` does: the hot path, so inline.
            # The new coset's one entry points back at f, so neither scan can
            # move after it unless the next letter undoes this one, or f was
            # b and this letter is b's open one (`stop`).  Until then, or
            # until one letter is left for the deduction, define the next
            # image; a later letter equal to `stop` only costs a rescan.
            stop = inv[j] if f == b else -1
            while True:
                x = len(t)
                if x >= end:
                    raise BudgetExceeded(f"coset budget {self.max_cosets} exhausted")
                t += blank
                col = cols[i]
                t[f + col] = x
                t[x + inv[i]] = f
                f = x
                i += 1
                if i == j or cols[i] == inv[i - 1] or col == stop:
                    break


def enumerate_cosets(
    pres, subgroup_gens, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Index of the subgroup generated by `subgroup_gens` in the presented
    group, with the completed coset table (standardized numbering)."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if not pres.gens:  # the trivial group: one coset, and no columns
        return CosetTable(pres.gens, [[]])
    layout, inv = _layout(pres)
    enum = _Enumerator(inv, max_cosets)
    rel_cols = [tuple(_col(x) for x in r) for r in pres.relators]
    sub_cols = [tuple(_col(x) for x in w) for w in subgroup_gens if w]
    rels = [_scan_columns(c, layout) for c in rel_cols]
    subs = [_scan_columns(c, layout) for c in sub_cols]
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

    table = _standardize(enum, layout, pres)
    _verify(table, rel_cols, sub_cols)
    return table


def _scan_columns(cols, layout):
    """A word's working columns and the inverse column of each letter."""
    return tuple(layout[c] for c in cols), tuple(layout[c ^ 1] for c in cols)


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


def _standardize(enum, layout, pres):
    """Renumber live cosets in BFS order from coset 0, column order, over
    two columns per generator (`layout` maps them to working columns)."""
    t, ncols, rep = enum.t, enum.ncols, enum.rep
    live = [a for a in range(ncols, len(t), ncols) if a not in enum.p]
    # resolve all entries through the union-find first
    resolved = {a: [rep(t[a + c]) for c in layout] for a in live}
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
    return CosetTable(pres.gens, table)


class FreeProductSignature(Record):
    """Free product of finite factors of the given orders with a free factor."""

    __slots__ = ("factor_orders", "free_rank")

    def __init__(self, factor_orders: tuple, free_rank: int = 0):
        if any(m < 2 for m in factor_orders):
            raise ValueError("finite factor orders must be >= 2")
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        self.factor_orders, self.free_rank = factor_orders, free_rank

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
        raise ValueError(f"no free subgroup of index {index}: rank would be {rank}")
    return int(rank)
