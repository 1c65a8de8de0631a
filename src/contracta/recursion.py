"""Wreath recursions: finite self-similarity data and the induced tree action.

A recursion assigns to every generator a tuple of d section words and a root
permutation of the alphabet {0..d-1}.  The group acts on vertices (tuples of
letters) from the right: the root permutation moves the first letter and the
section at the original first letter acts on the rest.  A table built once
holds every letter's root permutation and sections, those of the inverse
generators included, so that one pass over a word gives its permutation and
all of its first-level sections (`split`).
"""

from __future__ import annotations

import re

from . import words
from .errors import ParseError, SemanticError
from .record import Record
from .words import Word, invert

GEN_LINE_RE = re.compile(
    r"gen\s+([A-Za-z][A-Za-z0-9_]*)\s*=\s*perm\(([^)]*)\)\s*sections\(([^)]*)\)\s*$"
)


def perm_inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def perm_identity(d):
    return tuple(range(d))


class WreathRecursion(Record):
    __slots__ = ("degree", "gens", "section_table", "perm_table", "_letters")

    def __init__(self, degree: int, gens: tuple, section_table: tuple, perm_table: tuple):
        self.degree, self.gens = degree, gens
        self.section_table = section_table  # per generator: d section words
        self.perm_table = perm_table  # per generator: image table of the root permutation
        letters, inverses = [], []
        for perm, secs in zip(perm_table, section_table):
            inv = perm_inverse(perm)
            letters.append((perm, secs))
            # (h^-1)_x = (h_{x tau_{h^-1}})^-1
            inverses.append((inv, tuple(invert(secs[inv[x]]) for x in range(degree))))
        # signed letter s -> (root permutation, d section words), indexed by s
        # itself: generator g sits at g, its inverse at -g, counted from the end
        self._letters = (None, *letters, *reversed(inverses))

    def _check_vertex_letter(self, x):
        if not 0 <= x < self.degree:
            raise SemanticError(f"letter {x} out of range for degree {self.degree}")

    def split(self, word, at=None):
        """(root permutation, its d first-level sections) of a word, via
        (gh)_x = g_x h_{x tau_g}; the sections come out freely reduced.  With
        vertex letters `at`, only the images and sections of those letters."""
        letters = self._letters
        perm, sections = [], []
        for x in range(self.degree) if at is None else at:
            out = []
            pos = x
            for s in word:
                images, secs = letters[s]
                for y in secs[pos]:
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
                pos = images[pos]
            perm.append(pos)
            sections.append(tuple(out))
        return tuple(perm), tuple(sections)

    def section(self, word, vertex) -> Word:
        """g_v, one vertex letter at a time."""
        for x in vertex:
            self._check_vertex_letter(x)
            word = self.split(word, (x,))[1][0]
        return word

    def act(self, word, vertex) -> tuple:
        """Image of a vertex under the right action: (xv)g = (x tau_g)(v g_x)."""
        out = []
        for x in vertex:
            self._check_vertex_letter(x)
            (image,), (word,) = self.split(word, (x,))
            out.append(image)
        return tuple(out)


def parse_recursion(text: str) -> WreathRecursion:
    """Parse a group-definition file (see the .rec grammar in the README)."""
    degree = None
    names = []
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet"):
            if degree is not None:
                raise ParseError("duplicate alphabet line", lineno)
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("expected `alphabet <d>`", lineno)
            degree = int(parts[1])
            if degree < 2:
                raise SemanticError(f"alphabet degree must be >= 2, got {degree}")
        elif line.startswith("gen"):
            if degree is None:
                raise ParseError("`alphabet <d>` must come first", lineno)
            m = GEN_LINE_RE.match(line)
            if not m:
                raise ParseError("expected `gen <name> = perm(...) sections(...)`", lineno)
            name, perm_part, sec_part = m.groups()
            if name in names:
                raise SemanticError(f"duplicate generator {name!r}")
            names.append(name)
            raw[name] = (perm_part, sec_part, lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if degree is None:
        raise ParseError("missing `alphabet <d>` line")
    if not names:
        raise ParseError("no generators declared")

    gens = tuple(names)
    sections, perms = [], []
    for name in gens:
        perm_part, sec_part, lineno = raw[name]
        try:
            images = tuple(int(tok) for tok in perm_part.split())
        except ValueError:
            raise ParseError(f"bad permutation for {name!r}", lineno)
        if len(images) != degree or sorted(images) != list(range(degree)):
            raise SemanticError(
                f"generator {name!r}: perm({perm_part.strip()}) is not a "
                f"permutation of 0..{degree - 1}"
            )
        sec_words = [s.strip() for s in sec_part.split(",")]
        if len(sec_words) != degree:
            raise SemanticError(
                f"generator {name!r}: expected {degree} sections, got {len(sec_words)}"
            )
        parsed = []
        for sw in sec_words:
            try:
                parsed.append(words.parse_word(sw, gens))
            except ParseError as e:
                raise SemanticError(f"generator {name!r}: {e}") from None
        sections.append(tuple(parsed))
        perms.append(images)
    return WreathRecursion(degree, gens, tuple(sections), tuple(perms))
