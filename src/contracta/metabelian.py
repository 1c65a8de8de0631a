"""Lamplighter-style wreath products, HNN truncations with Britton reduction,
Baumslag-Solitar groups, and the exact 2x2 matrix groups they converge to.

Words here are over the two letters s, t (with inverses); all arithmetic is
exact (integer exponent vectors, `fractions.Fraction` matrix entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import SemanticError
from .words import free_reduce

S, T = 1, 2
GENS = ("s", "t")


# -- A wr Z ----------------------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """Finitely supported map Z -> A plus a shift; A = Z (modulus 0) or Z/h."""

    values: tuple  # sorted ((position, value), ...), values nonzero
    shift: int
    modulus: int = 0

    @property
    def is_identity(self) -> bool:
        return not self.values and self.shift == 0

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.modulus != other.modulus:
            raise SemanticError("mixed base groups")
        acc = dict(self.values)
        for pos, val in other.values:
            acc[pos + self.shift] = acc.get(pos + self.shift, 0) + val
        return _wreath(acc, self.shift + other.shift, self.modulus)


def _wreath(mapping, shift, modulus):
    vals = []
    for pos in sorted(mapping):
        v = mapping[pos] % modulus if modulus else mapping[pos]
        if v:
            vals.append((pos, v))
    return WreathElement(tuple(vals), shift, modulus)


def wreath_identity(modulus: int = 0) -> WreathElement:
    return WreathElement((), 0, modulus)


def wreath_eval(word, modulus: int = 0) -> WreathElement:
    """Image of a free word in s, t under s -> delta_0, t -> unit shift.

    Triviality of the result decides the word problem in the wreath product.
    """
    if modulus == 1 or modulus < 0:
        raise SemanticError("base modulus must be 0 (infinite) or >= 2")
    out = wreath_identity(modulus)
    for x in free_reduce(word):
        if abs(x) == S:
            out = out * WreathElement(((0, 1 if x > 0 else -1),), 0, modulus)
        elif abs(x) == T:
            out = out * WreathElement((), 1 if x > 0 else -1, modulus)
        else:
            raise SemanticError("wreath words use the letters s and t only")
    return out


# -- HNN data and Britton reduction -----------------------------------------


class BsDatum:
    """BS(l, m) = <s, t | t^-1 s^l t = s^m>; base <s> = Z, K = lZ, L = mZ.

    At `level` n the letter s stands for the base element l^n: Britton
    reduction of a word w then reduces its n-fold substitution image
    s -> s^l, t -> t, without writing that image out."""

    def __init__(self, l: int, m: int, level: int = 0):
        if level < 0:
            raise ValueError("iterations must be >= 0")
        if l < 1 or m < 1:
            raise SemanticError("parameters must be positive")
        self.l, self.m = l, m
        self.s = l**level

    def base_identity(self):
        return 0

    def base_mul(self, u, v):
        return u + v

    def base_letter(self, letter):
        return self.s if letter > 0 else -self.s

    def is_base_identity(self, u):
        return u == 0

    def psi(self, u):
        return u // self.l * self.m if u % self.l == 0 else None

    def psi_inv(self, u):
        return u // self.m * self.l if u % self.m == 0 else None


class WnDatum:
    """Truncated lamplighter: base Z^{n+1} on s_0..s_n, t shifts the basis.

    K = span(s_0..s_{n-1}), L = span(s_1..s_n); s maps to s_0.
    """

    def __init__(self, n: int):
        if n < 1:
            raise SemanticError("truncation level must be >= 1")
        self.n = n

    def base_identity(self):
        return (0,) * (self.n + 1)

    def base_mul(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def base_letter(self, letter):
        e = [0] * (self.n + 1)
        e[0] = 1 if letter > 0 else -1
        return tuple(e)

    def is_base_identity(self, u):
        return not any(u)

    def psi(self, u):
        if u[-1] != 0:
            return None
        return (0,) + u[:-1]

    def psi_inv(self, u):
        if u[0] != 0:
            return None
        return u[1:] + (0,)


@dataclass
class BrittonWord:
    """Alternating pinch-free form: base elements separated by t-powers."""

    pieces: list  # [base, eps, base, eps, ..., base] with eps in {+1, -1}
    datum: object  # BsDatum or WnDatum

    @property
    def stable_letter_count(self) -> int:
        return (len(self.pieces) - 1) // 2

    @property
    def is_trivial(self) -> bool:
        return self.stable_letter_count == 0 and self.datum.is_base_identity(
            self.pieces[0]
        )


def britton_reduce(datum, word) -> BrittonWord:
    """Pinch-free form of a word over s, t; trivial iff the reduced form is
    the empty base element with no stable letters (Britton's lemma).

    `datum` is an HNN datum: a base group with associated subgroups K, L and
    an isomorphism psi: K -> L, under the relation t^-1 k t = psi(k), so
    pinches are t^-1 (k in K) t and t (l in L) t^-1.  Base elements are
    opaque here; the datum supplies `base_identity()`, `base_mul(u, v)`,
    `base_letter(letter)` (the base element of a +-s letter),
    `is_base_identity(u)`, `psi(u)` (None unless u is in K) and `psi_inv(u)`
    (None unless u is in L).
    """
    pieces = [datum.base_identity()]
    for x in free_reduce(word):
        if abs(x) == S:
            pieces[-1] = datum.base_mul(pieces[-1], datum.base_letter(x))
        elif abs(x) == T:
            eps = 1 if x > 0 else -1
            _push_stable(datum, pieces, eps)
        else:
            raise SemanticError("HNN words use the letters s and t only")
    return BrittonWord(pieces, datum)


def _push_stable(datum, pieces, eps):
    if len(pieces) >= 3:
        prev_eps, mid = pieces[-2], pieces[-1]
        if prev_eps == -eps:
            image = datum.psi(mid) if eps == 1 else datum.psi_inv(mid)
            if image is not None:
                # pinch: t^-eps mid t^eps collapses into the base
                pieces.pop()
                pieces.pop()
                pieces[-1] = datum.base_mul(pieces[-1], image)
                return
    pieces.append(eps)
    pieces.append(datum.base_identity())


# -- the shrinking endomorphism and its kernel tower ------------------------


def bs_kernel_chain_member(l: int, m: int, word, n: int) -> bool:
    """True iff the n-fold substitution image dies in BS(l, m)."""
    return britton_reduce(BsDatum(l, m, n), word).is_trivial


# -- Met(l, m): exact triangular matrices ------------------------------------


@dataclass(frozen=True)
class MetElement:
    """The matrix [[a, b], [0, 1]] of Met(l, m), with exact rational a, b."""

    a: Fraction
    b: Fraction

    def __mul__(self, other):
        return MetElement(self.a * other.a, self.a * other.b + self.b)

    @property
    def is_identity(self):
        return self.a == 1 and self.b == 0

    def rows(self):
        return ((self.a, self.b), (0, 1))


def met_eval(l: int, m: int, word) -> MetElement:
    """Exact matrix image of a word over s, t, with s = [[1, 1], [0, 1]] and
    t = [[l/m, 0], [0, 1]]; identity decides triviality."""
    if l < 1 or m < 1 or (l == 1 and m == 1) or gcd(l, m) != 1:
        raise SemanticError("parameters must be coprime positive, not both 1")
    ratio = Fraction(l, m)
    a, b = Fraction(1), Fraction(0)
    for x in free_reduce(word):
        if x == S:
            b += a
        elif x == -S:
            b -= a
        elif x == T:
            a *= ratio
        elif x == -T:
            a /= ratio
        else:
            raise SemanticError("matrix words use the letters s and t only")
    return MetElement(a, b)
