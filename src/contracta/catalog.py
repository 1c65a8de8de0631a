"""Built-in group definitions wired to all oracles.

Recursion-defined groups ship as .rec files (the single source for both the
definition and the expected facts asserted by the test suite).  Parametrized
families are constructed on demand from their name:

    gomega:<preperiod>:<period>   sequence-indexed tree group, e.g. gomega::012
    bs:<l>:<m>                    Baumslag-Solitar group
    met:<l>:<m>                   exact triangular-matrix quotient
    wreath:z | wreath:z<h>        lamplighter-style wreath product over Z
    w_n:<n>                       truncated wreath-product presentation (HNN)

The CONTRACTA_CATALOG environment variable overrides the definition-file
directory.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from importlib import resources

from . import contraction, covers, gomega, grig, metabelian, rewriting
from .contraction import Budget, DEFAULT_BUDGET, _check_length
from .errors import SemanticError
from .marked import MarkedGroup
from .recursion import DEFAULT_LEVEL_CAP, WreathRecursion, parse_recursion
from .words import concat, invert

RECURSION_NAMES = (
    "grigorchuk",
    "basilica",
    "img_z2_plus_i",
    "gupta_sidki",
    "fabrykowski_gupta",
    "hanoi3",
)


@dataclass
class Group:
    name: str
    gens: tuple
    is_trivial: object  # callable Word -> bool
    recursion: WreathRecursion = None
    facts: dict = field(default_factory=dict)
    invariant: object = None  # hashable prehash for ball deduplication

    @property
    def rank(self):
        return len(self.gens)

    def equal(self, u, v) -> bool:
        return self.is_trivial(concat(u, invert(v)))


def catalog_dir():
    override = os.environ.get("CONTRACTA_CATALOG")
    if override:
        return override
    return str(resources.files("contracta").joinpath("data"))


def read_definition(name: str) -> str:
    path = os.path.join(catalog_dir(), f"{name}.rec")
    if not os.path.exists(path):
        raise SemanticError(f"no catalog definition {name!r} (looked in {path})")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_facts(text: str) -> dict:
    facts = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#!"):
            key, _, value = line[2:].partition(":")
            facts[key.strip()] = json.loads(value.strip())
    return facts


def recursion_group(rec: WreathRecursion, name: str, budget: Budget = DEFAULT_BUDGET):
    """The group of a wreath recursion: word problem by a memoized section
    walk within `budget`, level permutation as ball-deduplication invariant."""
    memo = {}

    def is_trivial(word):
        return contraction.is_trivial(rec, word, budget, memo)

    depth = 6 if rec.degree == 2 else 4
    while rec.degree**depth > DEFAULT_LEVEL_CAP:
        depth -= 1

    return Group(
        name, rec.gens, is_trivial, recursion=rec, invariant=rec.level_action(depth)
    )


@functools.cache
def _recursion_entry(name: str, budget: Budget = DEFAULT_BUDGET):
    text = read_definition(name)
    group = recursion_group(parse_recursion(text), name, budget)
    group.facts = parse_facts(text)
    return group


@functools.cache
def cover_for(name: str):
    entry = _recursion_entry(name)
    nuc = contraction.nucleus(entry.recursion)
    cover = covers.universal_cover(nuc, prune=entry.facts.get("cover_prune", False))
    sys = rewriting.complete(cover.presentation)
    return cover, sys


def load(name: str, budget: Budget = DEFAULT_BUDGET) -> Group:
    """The catalog group `name`; `budget` bounds its word problem, in section
    states and word length for recursion and gomega groups, in word length
    for the others."""
    if name in RECURSION_NAMES:
        if budget == DEFAULT_BUDGET:  # the cache entry `cover_for` shares
            return _recursion_entry(name)
        return _recursion_entry(name, budget)
    if name.startswith("gomega:"):
        omega = gomega.OmegaSequence.parse(name[len("gomega:") :])
        memo = {}
        return Group(
            name,
            grig.GENS,
            lambda w: gomega.omega_is_trivial(omega, w, budget, memo),
            facts={"cover_shape": grig.CoverCongruence.shape},
        )
    if name.startswith("bs:"):
        l, m = parse_lm(name[len("bs:") :])
        datum = metabelian.BsDatum(l, m)
        return Group(
            name,
            metabelian.GENS,
            _bounded(lambda w: metabelian.britton_reduce(datum, w).is_trivial, budget),
            invariant=lambda w: _met_key(l, m, w),
        )
    if name.startswith("met:"):
        l, m = parse_lm(name[len("met:") :])
        return Group(
            name,
            metabelian.GENS,
            _bounded(lambda w: metabelian.met_eval(l, m, w).is_identity, budget),
            invariant=lambda w: _met_key(l, m, w),
        )
    if name.startswith("wreath:"):
        modulus = _wreath_modulus(name[len("wreath:") :])
        return Group(
            name,
            metabelian.GENS,
            _bounded(lambda w: metabelian.wreath_eval(w, modulus).is_identity, budget),
            invariant=lambda w: metabelian.wreath_eval(w, modulus),
        )
    if name.startswith("w_n:"):
        datum = metabelian.WnDatum(_integer(name[len("w_n:") :], "w_n:<n>", name))
        return Group(
            name,
            metabelian.GENS,
            _bounded(lambda w: metabelian.britton_reduce(datum, w).is_trivial, budget),
            invariant=lambda w: metabelian.wreath_eval(w, 0),
        )
    raise SemanticError(f"unknown catalog name {name!r}")


def _bounded(is_trivial, budget):
    """`is_trivial`, charging `max_word_length` on the word it is asked about."""

    def check(word):
        _check_length(word, budget)
        return is_trivial(word)

    return check


def parse_lm(text: str):
    """The integers l, m of `<l>:<m>`, as in bs:<l>:<m>, met:<l>:<m> and the
    CLI's --params."""
    l, _, m = text.partition(":")
    try:
        return int(l), int(m)
    except ValueError:
        raise SemanticError(f"expected <l>:<m> with integers l and m, got {text!r}") from None


def _integer(text: str, form: str, spec: str) -> int:
    """The integer n of a spec of the form `form`."""
    try:
        return int(text)
    except ValueError:
        raise SemanticError(f"expected {form} with an integer n, got {spec!r}") from None


def _wreath_modulus(spec: str) -> int:
    if spec == "z":
        return 0
    if spec.startswith("z") and spec[1:].isdigit() and int(spec[1:]) >= 2:
        return int(spec[1:])
    raise SemanticError(f"wreath base must be z or z<h> with h >= 2, got {spec!r}")


def _met_key(l, m, w):
    mat = metabelian.met_eval(l, m, w)
    return mat.a, mat.b


# -- marked groups and kernel chains -----------------------------------------


def marked(spec: str) -> MarkedGroup:
    """`<name>` marks the catalog group, `<name>@<n>` level n of the kernel
    chain on `<name>`."""
    if "@" in spec:
        base, _, level = spec.rpartition("@")
        return chain(base).member(_integer(level, "<name>@<n>", spec))
    g = load(spec)
    congruence = grig.CoverCongruence()
    if g.facts.get("cover_shape") != congruence.shape:
        congruence = None
    return MarkedGroup(g.rank, g.is_trivial, name=spec, congruence=congruence)


@dataclass(frozen=True)
class Chain:
    """A kernel chain and the limit it converges to in the space of marked
    groups.  Every member is a quotient of the limit's cover, so the limit's
    congruence is sound for all of them."""

    base: str
    limit: MarkedGroup
    levels: object  # callable n -> (rank, kernel-membership oracle of level n)

    def member(self, n: int) -> MarkedGroup:
        rank, oracle = self.levels(n)
        return MarkedGroup(rank, oracle, name=f"{self.base}@{n}", congruence=self.limit.congruence)


def chain(base: str) -> Chain:
    """The kernel chain on `base`: the universal-cover chain of a catalog
    recursion, the splitting chain of gomega:<omega> on the C2 * V cover, or
    the bs:<l>:<m> tower, whose limit is met:<l>:<m>."""
    if base in RECURSION_NAMES:

        def levels(n):
            cover, sys = cover_for(base)
            memo = {}
            rank = len(cover.presentation.gens)
            return rank, lambda w: covers.kernel_member(cover, sys, w, n, memo)

        return Chain(base, marked(base), levels)
    if base.startswith("gomega:"):
        omega = gomega.OmegaSequence.parse(base[len("gomega:") :])

        def levels(n):
            memo = {}
            return len(grig.GENS), lambda w: gomega.omega_kernel_member(omega, w, n, memo)

        return Chain(base, marked(base), levels)
    if base.startswith("bs:"):
        l, m = parse_lm(base[len("bs:") :])
        return Chain(
            base,
            marked(f"met:{l}:{m}"),
            lambda n: (2, lambda w: metabelian.bs_kernel_chain_member(l, m, w, n)),
        )
    raise SemanticError(f"no chain family for {base!r}")
