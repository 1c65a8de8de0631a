"""Finite presentations and shortlex Knuth-Bendix completion.

Completion works over the symmetric alphabet (each generator and its formal
inverse), seeded with the cancellation rules g g^-1 -> 1 and the relators
oriented against the empty word.  A completed system gives unique normal
forms, hence the word problem for the presented group.
"""

from __future__ import annotations

from . import words
from .errors import ParseError
from .record import Record
from .words import Word, free_reduce, shortlex_key


class Presentation(Record):
    # shortlex ranks generators in list order, inverses right after their
    # generator
    __slots__ = ("gens", "relators")

    def __init__(self, gens: tuple, relators: tuple):
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        for r in relators:
            if not r or free_reduce(r) != r:
                raise ValueError("relators must be freely reduced and nonempty")
        self.gens, self.relators = gens, relators


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


class RewriteRule(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: Word):
        if shortlex_key(lhs) <= shortlex_key(rhs):
            raise ValueError("rule must decrease shortlex order")
        self.lhs, self.rhs = lhs, rhs


def _bucket(rules):
    """The rewriting index: rhs by lhs, and the distinct lhs lengths."""
    by_lhs = {r.lhs: r.rhs for r in rules}
    return by_lhs, sorted({len(lhs) for lhs in by_lhs})


def _apply_rules(index, w) -> Word:
    """Rewriting to an irreducible word (rules only, no free magic) with the
    rules of `index`, their `_bucket`, in one left-to-right pass: an lhs that
    ends on the output stack is replaced by its rhs, pushed back onto the
    input.  The lhs set is substring-free, so the first lhs to end is also
    the leftmost one."""
    by_lhs, lengths = index
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


class RewriteSystem(Record):
    __slots__ = ("gens", "rules", "complete", "_index")

    def __init__(self, gens: tuple, rules: list, complete: bool):
        self.gens, self.complete = gens, complete
        self.rules = rules  # RewriteRule, shortlex-sorted by lhs
        self._index = _bucket(rules)

    def rewrite(self, w) -> Word:
        return _apply_rules(self._index, w)


def normal_form(sys: RewriteSystem, w) -> Word:
    if not sys.complete:
        raise ValueError("normal forms require a complete rewrite system")
    return sys.rewrite(w)


MAX_PASSES = 200  # critical-pair passes before `complete` gives up


def _orient(u, v):
    if u == v:
        return None
    if shortlex_key(u) > shortlex_key(v):
        return RewriteRule(u, v)
    return RewriteRule(v, u)


def complete(p: Presentation, max_rules: int = 2_000) -> RewriteSystem:
    """Shortlex Knuth-Bendix.  Returns a system with `complete=True` when all
    critical pairs resolve; otherwise `complete=False` with the partial rules."""
    if max_rules < 1:
        raise ValueError("max_rules must be positive")
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
        u, v = _apply_rules(index, u), _apply_rules(index, v)
        # both sides are irreducible, so neither is an existing lhs
        rule = _orient(u, v)
        if rule is None:
            return
        # interreduce: rules touched by the new lhs go back to the queue;
        # one pass splits them off, with no comparison of rules
        kept, stale = [], []
        for r in rules:
            touched = _contains(r.lhs, rule.lhs) or _contains(r.rhs, rule.lhs)
            (stale if touched else kept).append(r)
        rules[:] = kept
        rules.append(rule)
        index = _bucket(rules)
        for r in stale:
            pending.append((r.lhs, r.rhs))

    pending = list(eqs)
    for _ in range(MAX_PASSES):
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
                    if _apply_rules(index, u) != _apply_rules(index, v):
                        new_pairs.append((u, v))
        if not new_pairs:
            return _finish(p, rules, complete=True)
        pending.extend(new_pairs)
    return _finish(p, rules, complete=False)


def _contains(w, sub):
    n = len(sub)
    return any(w[i : i + n] == sub for i in range(len(w) - n + 1))


def _critical_pairs(r1, r2):
    """Proper suffix/prefix overlaps of r1.lhs with r2.lhs; no lhs contains
    another, as `add_equation` keeps the rules interreduced."""
    l1, l2 = r1.lhs, r2.lhs
    out = []
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            out.append((r1.rhs + l2[k:], l1[:-k] + r2.rhs))
    return out


def _finish(p, rules, complete):
    rules = sorted(rules, key=lambda r: shortlex_key(r.lhs))
    return RewriteSystem(p.gens, rules, complete)
