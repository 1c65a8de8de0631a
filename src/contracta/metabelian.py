"""Lamplighter-style wreath products, HNN truncations with Britton reduction,
Baumslag-Solitar groups, and the exact 2x2 matrix groups they converge to.

Words here are over the two letters s, t (with inverses); all arithmetic is
exact (integer exponent vectors, `fractions.Fraction` matrix entries,
which `matrix_image` forms once per word from integer counts).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, log2
from typing import NamedTuple

from .errors import SemanticError
from .record import Record
from .words import free_reduce

S, T = 1, 2
GENS = ("s", "t")
MAX_BASE_BITS = 2**24  # the largest n * log2(l) for which a BsDatum forms l^n


# -- A wr Z ----------------------------------------------------------------


class WreathElement(NamedTuple):
    """Finitely supported map Z -> A plus a shift; A = Z or Z/h."""

    values: tuple  # sorted ((position, value), ...), values nonzero
    shift: int

    @property
    def is_identity(self) -> bool:
        return not self.values and self.shift == 0


def wreath_eval(word, modulus: int = 0) -> WreathElement:
    """Image of a free word in s, t under s -> delta_0, t -> unit shift, with
    A = Z for modulus 0 and A = Z/h for modulus h: each s^+-1 adds +-1 at the
    current shift, and the values are reduced mod h once, at the end.

    Triviality of the result decides the word problem in the wreath product.
    """
    if modulus == 1 or modulus < 0:
        raise SemanticError("base modulus must be 0 (infinite) or >= 2")
    acc, shift = {}, 0
    for x in free_reduce(word):
        if abs(x) == S:
            acc[shift] = acc.get(shift, 0) + (1 if x > 0 else -1)
        elif abs(x) == T:
            shift += 1 if x > 0 else -1
        else:
            raise SemanticError("wreath words use the letters s and t only")
    values = ((pos, v % modulus if modulus else v) for pos, v in sorted(acc.items()))
    return WreathElement(tuple((pos, v) for pos, v in values if v), shift)


# -- HNN data and Britton reduction -----------------------------------------


class BsDatum:
    """BS(l, m) = <s, t | t^-1 s^l t = s^m>; base <s> = Z, K = lZ, L = mZ.

    At `level` n the letter s stands for the base element l^n: Britton
    reduction of a word w then reduces its n-fold substitution image
    s -> s^l, t -> t, without writing that image out, and w lies in level n
    of the kernel chain on BS(l, m) iff the reduced form is trivial.  A level
    with n * log2(l) past MAX_BASE_BITS is refused before l^n is formed."""

    def __init__(self, l: int, m: int, level: int = 0):
        if level < 0:
            raise ValueError("iterations must be >= 0")
        if l < 1 or m < 1:
            raise SemanticError("parameters must be positive")
        if l > 1 and level > MAX_BASE_BITS / log2(l):  # exact for any int level
            raise SemanticError(
                f"level {level} of BS({l}, {m}) needs the base element {l}^{level}, "
                f"past the cap of {MAX_BASE_BITS} bits"
            )
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
        return (0,) + u[:-1] if u[-1] == 0 else None

    def psi_inv(self, u):
        return u[1:] + (0,) if u[0] == 0 else None


class BrittonWord(Record):
    """Alternating pinch-free form: base elements separated by t-powers."""

    __slots__ = ("pieces", "datum")

    def __init__(self, pieces: list, datum):
        self.pieces = pieces  # [base, eps, base, eps, ..., base] with eps in {+1, -1}
        self.datum = datum  # BsDatum or WnDatum

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
            _push_stable(datum, pieces, 1 if x > 0 else -1)
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


# -- Met(l, m): exact triangular matrices ------------------------------------


class MetElement(NamedTuple):
    """The matrix [[a, b], [0, 1]] of Met(l, m), with exact rational a, b."""

    a: Fraction
    b: Fraction

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
    return matrix_image(l, m, word)


def matrix_image(l: int, m: int, word) -> MetElement:
    """`met_eval`'s image for any l, m >= 1: BS(l, m) maps onto it, but it
    is Met(l, m) only for coprime l, m, not both 1.  The image of a word is
    a = (l/m)^e, for its t-exponent sum e, and b = the sum of +-(l/m)^k over
    its s letters, k the t-exponent sum before each; so the loop counts the
    s letters per k in integers, and the two fractions are formed once."""
    e, counts = 0, {}  # t-exponent sum so far; k -> signed count of s letters at k
    for x in free_reduce(word):
        if x == S:
            counts[e] = counts.get(e, 0) + 1
        elif x == -S:
            counts[e] = counts.get(e, 0) - 1
        elif x == T:
            e += 1
        elif x == -T:
            e -= 1
        else:
            raise SemanticError("matrix words use the letters s and t only")
    a = Fraction(l**e, m**e) if e >= 0 else Fraction(m**-e, l**-e)
    if not counts:
        return MetElement(a, Fraction(0))
    lo, hi = min(counts), max(counts)
    # b = l^lo m^-hi * the sum of c l^(k - lo) m^(hi - k)
    num = sum(c * l ** (k - lo) * m ** (hi - k) for k, c in counts.items())
    return MetElement(a, Fraction(num * l ** max(lo, 0) * m ** max(-hi, 0),
                                  l ** max(-lo, 0) * m ** max(hi, 0)))
