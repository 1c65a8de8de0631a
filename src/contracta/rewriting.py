"""Finite presentations and shortlex Knuth-Bendix completion.

Completion works over the symmetric alphabet (each generator and its formal
inverse), seeded with the cancellation rules g g^-1 -> 1 and the relators
oriented against the empty word.  A completed system gives unique normal
forms, hence the word problem for the presented group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import words
from .errors import ParseError
from .words import Word, free_reduce, shortlex_key


@dataclass(frozen=True)
class Presentation:
    # shortlex ranks generators in list order, inverses right after their
    # generator
    gens: tuple
    relators: tuple

    def __post_init__(self):
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("duplicate generators")
        for r in self.relators:
            if not r or free_reduce(r) != r:
                raise ValueError("relators must be freely reduced and nonempty")


def parse_presentation(text: str) -> Presentation:
    """`pres` header, one `gens ...` line, one `rel <word>` line per relator."""
    gens = None
    relators = []
    seen_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "pres":
            seen_header = True
        elif line.startswith("gens"):
            if gens is not None:
                raise ParseError("duplicate gens line", lineno)
            gens = tuple(line.split()[1:])
            if not gens:
                raise ParseError("empty generator list", lineno)
        elif line.startswith("rel"):
            if gens is None:
                raise ParseError("`gens` must come before `rel`", lineno)
            w = words.parse_word(line[3:], gens)
            if not w:
                raise ParseError("trivial relator", lineno)
            relators.append(w)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if not seen_header:
        raise ParseError("missing `pres` header")
    if gens is None:
        raise ParseError("missing `gens` line")
    return Presentation(gens, tuple(relators))


def format_presentation(p: Presentation) -> str:
    lines = ["pres", "gens " + " ".join(p.gens)]
    lines += ["rel " + words.format_word(r, p.gens) for r in p.relators]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if shortlex_key(self.lhs) <= shortlex_key(self.rhs):
            raise ValueError("rule must decrease shortlex order")


def _bucket(rules):
    """The rewriting index: rhs by lhs, and the distinct lhs lengths."""
    by_lhs = {r.lhs: r.rhs for r in rules}
    return by_lhs, sorted({len(lhs) for lhs in by_lhs})


def _apply_rules(rules, w, index=None) -> Word:
    """Rewriting to an irreducible word (rules only, no free magic), in one
    left-to-right pass: an lhs that ends on the output stack is replaced by
    its rhs, pushed back onto the input.  The lhs set is substring-free, so
    the first lhs to end is also the leftmost one.
    `index` is `_bucket(rules)`, passed by callers that rewrite many words."""
    by_lhs, lengths = _bucket(rules) if index is None else index
    todo = list(reversed(w))
    out = []
    while todo:
        out.append(todo.pop())
        for k in lengths:
            if k > len(out):
                break
            rhs = by_lhs.get(tuple(out[-k:]))
            if rhs is not None:
                del out[-k:]
                todo.extend(reversed(rhs))
                break
    return tuple(out)


@dataclass
class RewriteSystem:
    gens: tuple
    rules: list  # RewriteRule, shortlex-sorted by lhs
    complete: bool
    _index: tuple = field(default=None, repr=False, compare=False)

    @property
    def core_rules(self):
        """Rules other than single-letter aliases like a^-1 -> a."""
        return [r for r in self.rules if len(r.lhs) > 1]

    def rewrite(self, w) -> Word:
        if self._index is None:
            self._index = _bucket(self.rules)
        return _apply_rules(self.rules, w, self._index)


def normal_form(sys: RewriteSystem, w) -> Word:
    if not sys.complete:
        raise ValueError("normal forms require a complete rewrite system")
    return sys.rewrite(w)


def _orient(u, v):
    if u == v:
        return None
    if shortlex_key(u) > shortlex_key(v):
        return RewriteRule(u, v)
    return RewriteRule(v, u)


def complete(
    p: Presentation, max_rules: int = 2_000, max_passes: int = 200
) -> RewriteSystem:
    """Shortlex Knuth-Bendix.  Returns a system with `complete=True` when all
    critical pairs resolve; otherwise `complete=False` with the partial rules."""
    eqs = []
    for g in range(1, len(p.gens) + 1):
        eqs.append(((g, -g), ()))
        eqs.append(((-g, g), ()))
    for r in p.relators:
        eqs.append((r, ()))

    rules = []
    index = _bucket(rules)

    def add_equation(u, v):
        nonlocal index
        u, v = _apply_rules(rules, u, index), _apply_rules(rules, v, index)
        # both sides are irreducible, so neither is an existing lhs
        rule = _orient(u, v)
        if rule is None:
            return
        # interreduce: rules touched by the new lhs go back to the queue
        stale = [
            r
            for r in rules
            if _contains(r.lhs, rule.lhs) or _contains(r.rhs, rule.lhs)
        ]
        for r in stale:
            rules.remove(r)
        rules.append(rule)
        index = _bucket(rules)
        for r in stale:
            pending.append((r.lhs, r.rhs))

    pending = list(eqs)
    for _ in range(max_passes):
        while pending:
            u, v = pending.pop()
            add_equation(u, v)
            if len(rules) > max_rules:
                return _finish(p, rules, complete=False)
        new_pairs = []
        snapshot = sorted(rules, key=lambda r: shortlex_key(r.lhs))
        for r1 in snapshot:
            for r2 in snapshot:
                for u, v in _critical_pairs(r1, r2):
                    if _apply_rules(rules, u, index) != _apply_rules(rules, v, index):
                        new_pairs.append((u, v))
        if not new_pairs:
            return _finish(p, rules, complete=True)
        pending.extend(new_pairs)
    return _finish(p, rules, complete=False)


def _contains(w, sub):
    n = len(sub)
    return any(w[i : i + n] == sub for i in range(len(w) - n + 1))


def _critical_pairs(r1, r2):
    """Overlaps of r1.lhs with r2.lhs: proper suffix/prefix overlaps, plus
    containment of r2.lhs inside r1.lhs."""
    l1, l2 = r1.lhs, r2.lhs
    out = []
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            out.append((r1.rhs + l2[k:], l1[:-k] + r2.rhs))
    if len(l2) < len(l1):
        for i in range(len(l1) - len(l2) + 1):
            if l1[i : i + len(l2)] == l2:
                out.append((r1.rhs, l1[:i] + r2.rhs + l1[i + len(l2) :]))
    return out


def _finish(p, rules, complete):
    rules = sorted(rules, key=lambda r: shortlex_key(r.lhs))
    return RewriteSystem(p.gens, rules, complete)
