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
from importlib import resources
from typing import NamedTuple

from . import contraction, covers, gomega, grig, metabelian, rewriting
from .contraction import Budget, DEFAULT_BUDGET, _check_length
from .errors import SemanticError
from .marked import Congruence, MarkedGroup
from .recursion import WreathRecursion, parse_recursion

RECURSION_NAMES = (
    "grigorchuk",
    "basilica",
    "img_z2_plus_i",
    "gupta_sidki",
    "fabrykowski_gupta",
    "hanoi3",
)
DEFAULT_LEVEL_CAP = 2**20  # the most vertices of the level a recursion group's invariant reads


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


def recursion_group(rec: WreathRecursion, name: str, budget: Budget = DEFAULT_BUDGET,
                    facts: dict = None) -> MarkedGroup:
    """The group of a wreath recursion: word problem by a memoized section
    walk within `budget`, and a word's action on a level of the tree, its
    `contraction.portrait`, as ball-deduplication invariant."""
    memo = {}

    def is_trivial(word):
        return contraction.is_trivial(rec, word, budget, memo)

    depth = 6 if rec.degree == 2 else 4
    while rec.degree**depth > DEFAULT_LEVEL_CAP:
        depth -= 1

    return MarkedGroup(rec.gens, is_trivial, name, recursion=rec, facts=facts,
                       invariant=contraction.portrait(rec.split, depth))


@functools.cache
def _recursion_entry(name: str, budget: Budget):
    text = read_definition(name)
    return recursion_group(parse_recursion(text), name, budget, parse_facts(text))


@functools.cache
def cover_for(name: str):
    entry = _recursion_entry(name, DEFAULT_BUDGET)
    nuc = contraction.nucleus(entry.recursion)
    cover = covers.universal_cover(nuc, prune=entry.facts.get("cover_prune", False))
    sys = rewriting.complete(cover.presentation)
    return cover, sys


def load(name: str, budget: Budget = DEFAULT_BUDGET) -> MarkedGroup:
    """The catalog group `name`; `budget` bounds its word problem, in section
    states and word length for recursion and gomega groups, in word length
    for the others.  A `gomega` group carries `grig.C2V`: its oracle takes
    C2 * V normal forms, which `is_trivial` makes with `grig.reduce_word`,
    and the level-6 portrait of that normal form as its ball invariant."""
    if name in RECURSION_NAMES:
        return _recursion_entry(name, budget)
    if name.startswith("gomega:"):
        omega, memo = _omega(name), {}
        action = contraction.portrait(omega.split, 6)
        return MarkedGroup(grig.GENS, lambda w: gomega.normal_form_is_trivial(
            omega, w, budget, memo), name, grig.C2V,
            invariant=lambda w: action((grig.reduce_word(w), 0)))
    if name.startswith("bs:"):
        l, m = parse_lm(name[len("bs:") :])
        datum = metabelian.BsDatum(l, m)
        return _metabelian(name, lambda w: metabelian.britton_reduce(datum, w).is_trivial,
                           lambda w: _bs_key(l, m, w), budget)
    if name.startswith("met:"):
        l, m = parse_lm(name[len("met:") :])
        return _metabelian(name, lambda w: metabelian.met_eval(l, m, w).is_identity,
                           lambda w: metabelian.met_eval(l, m, w), budget)
    if name.startswith("wreath:"):
        modulus = _wreath_modulus(name[len("wreath:") :])
        return _metabelian(name, lambda w: metabelian.wreath_eval(w, modulus).is_identity,
                           lambda w: metabelian.wreath_eval(w, modulus), budget)
    if name.startswith("w_n:"):
        datum = metabelian.WnDatum(_integer(name[len("w_n:") :], "w_n:<n>", name))
        return _metabelian(name, lambda w: metabelian.britton_reduce(datum, w).is_trivial,
                           lambda w: metabelian.wreath_eval(w, 0), budget)
    raise SemanticError(f"unknown catalog name {name!r}")


def _metabelian(name, is_trivial, invariant, budget):
    """The group `name` on the generators s, t: `is_trivial`, charging
    `max_word_length` on the word it is asked about, as its oracle."""

    def oracle(word):
        _check_length(word, budget)
        return is_trivial(word)

    return MarkedGroup(metabelian.GENS, oracle, name, invariant=invariant)


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


def _omega(name: str):
    """The parameter of `gomega:<omega>`."""
    return gomega.OmegaSequence.parse(name[len("gomega:") :])


def _wreath_modulus(spec: str) -> int:
    if spec == "z":
        return 0
    if spec.startswith("z") and spec[1:].isdigit() and int(spec[1:]) >= 2:
        return int(spec[1:])
    raise SemanticError(f"wreath base must be z or z<h> with h >= 2, got {spec!r}")


def _bs_key(l, m, w):
    """A homomorphic image of BS(l, m) for every l, m >= 1: the t-exponent
    sum, which the matrix image loses when l = m, and the matrix image."""
    t_exponent = sum(1 if x > 0 else -1 for x in w if abs(x) == metabelian.T)
    return t_exponent, metabelian.matrix_image(l, m, w)


# -- marked groups and kernel chains -----------------------------------------


@functools.cache
def marked(spec: str) -> MarkedGroup:
    """`<name>` marks the catalog group, `<name>@<n>` level n of the kernel
    chain on `<name>`.  A catalog recursion carries the congruence of its
    cover's rewriting system, and a `gomega` group that of C2 * V; each is
    asked only about normal forms, so its oracle takes the word as it is.

    There is one marked group per spec, with one oracle memo: `<name>` is
    the group `load` builds, with the cover's congruence added for a catalog
    recursion, and a chain member's `onto` is the very object that `marked`
    returns for the chain's limit, so a scan of `<name>@<n>` against that
    limit asks the member only about the words the limit finds trivial."""
    if "@" in spec:
        base, _, level = spec.rpartition("@")
        return chain(base).member(_integer(level, "<name>@<n>", spec))
    g = load(spec)
    if spec not in RECURSION_NAMES:
        return g
    return MarkedGroup(g.gens, g.oracle, spec, Congruence(cover_for(spec)[1]),
                       recursion=g.recursion, facts=g.facts, invariant=g.invariant)


class Chain(NamedTuple):
    """A kernel chain and the limit it converges to in the space of marked
    groups.  Every member is a quotient of the limit's cover, so the limit's
    congruence is sound for all of them.

    Every member maps onto the limit, generator to generator, so its kernel
    K_n lies in the limit's, and a member's `onto` is the limit:
    - a catalog recursion's cover chain: K_n consists of cover words that
      fix n levels and whose level-n sections rewrite to 1.  Such a word
      acts trivially, so it is trivial in the recursion group;
    - gomega:<omega>: the level-n kernel of the C2 * V splitting chain
      consists of words that act trivially on the tree of G_omega;
    - bs:<l>:<m>: w lies in K_n iff phi^n(w) = 1 in BS(l, m), where
      phi: s -> s^l, t -> t.  BS(l, m) maps onto Met(l, m), and on
      Met(l, m) = Z[1/lm] x| Z phi multiplies the base by l, which is
      injective.  So phi^n(w) = 1 in Met(l, m) forces w = 1 there."""

    base: str
    limit: MarkedGroup
    levels: object  # callable n -> (gens, kernel-membership oracle of level n)

    def member(self, n: int) -> MarkedGroup:
        if n < 0:
            raise ValueError("level must be >= 0")
        gens, oracle = self.levels(n)
        return MarkedGroup(gens, oracle, f"{self.base}@{n}", self.limit.congruence, self.limit)


@functools.cache
def chain(base: str) -> Chain:
    """The kernel chain on `base`: the universal-cover chain of a catalog
    recursion, the splitting chain of gomega:<omega> on the C2 * V cover, or
    the bs:<l>:<m> tower, whose limit is met:<l>:<m>.  There is one chain per
    base, so every member of it shares one memo."""
    memo = {}  # least levels by state, one memo for every member
    if base in RECURSION_NAMES:

        def levels(n):
            cover, sys = cover_for(base)
            # a scanned word is in the normal form of the cover's congruence
            return cover.presentation.gens, covers.kernel_oracle(cover, sys, n, memo)

        return Chain(base, marked(base), levels)
    if base.startswith("gomega:"):
        omega = _omega(base)

        def levels(n):
            return grig.GENS, lambda w: gomega.normal_form_kernel_member(omega, w, n, memo)

        return Chain(base, marked(base), levels)
    if base.startswith("bs:"):
        l, m = parse_lm(base[len("bs:") :])

        def levels(n):
            datum = metabelian.BsDatum(l, m, n)
            return metabelian.GENS, lambda w: metabelian.britton_reduce(datum, w).is_trivial

        return Chain(base, marked(f"met:{l}:{m}"), levels)
    raise SemanticError(f"no chain family for {base!r}")
