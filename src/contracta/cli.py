"""Command-line front end.  Every subcommand prints deterministic text, or a
single JSON document with --json (an error too: its message under "error");
exit codes: 0 for success / "true", 1 for a mathematically negative predicate
answer, 2 for errors and exhausted budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, contraction, covers, gomega, grig, growth, marked, metabelian
from . import cosets, rewriting, words
from .contraction import DEFAULT_BUDGET, Budget
from .cosets import FreeProductSignature, enumerate_cosets, kernel_rank_free_product
from .errors import ContractaError
from .recursion import parse_recursion

SCHEMA_VERSION = 1


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _group(args):
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            rec = parse_recursion(fh.read())
        return catalog.recursion_group(rec, args.file, _budget(args))
    if not args.group:
        raise ContractaError("need --group NAME or --file PATH")
    return catalog.load(args.group, _budget(args))


def _budget(args) -> Budget:
    states = getattr(args, "max_states", None)  # None unless given
    return Budget(
        max_states=DEFAULT_BUDGET.max_states if states is None else states,
        max_depth=getattr(args, "max_depth", DEFAULT_BUDGET.max_depth),
        max_word_length=getattr(args, "max_word_length", DEFAULT_BUDGET.max_word_length),
    )


def _vertex(text):
    return tuple(int(c) for c in text.strip())


def _vertex_str(v):
    return "".join(str(x) for x in v)


def _require_recursion(group):
    if group.recursion is None:
        raise ContractaError(f"{group.name} does not carry a wreath recursion")
    return group.recursion


# -- subcommand handlers -----------------------------------------------------


def _check_states_flag(args, g):
    """An explicit --max-states needs a word problem that walks section
    states: a recursion or `gomega` group's.  `wp` and `eq` check this after
    deciding, so that on other groups a --max-word-length error comes first."""
    if args.max_states is not None and g.recursion is None and not g.name.startswith("gomega:"):
        raise ContractaError(f"--max-states counts section states, and {g.name} has none")


def cmd_wp(args):
    g = _group(args)
    trivial = g.is_trivial(words.parse_word(args.word, g.gens))
    _check_states_flag(args, g)
    _emit(args, {"word": args.word, "trivial": trivial},
          "trivial" if trivial else "nontrivial")
    return 0 if trivial else 1


def cmd_eq(args):
    g = _group(args)
    equal = g.equal(words.parse_word(args.word, g.gens), words.parse_word(args.other, g.gens))
    _check_states_flag(args, g)
    _emit(args, {"equal": equal}, "equal" if equal else "different")
    return 0 if equal else 1


def cmd_act(args):
    g = _group(args)
    rec = _require_recursion(g)
    img = rec.act(words.parse_word(args.word, g.gens), _vertex(args.vertex))
    _emit(args, {"image": _vertex_str(img)}, _vertex_str(img))
    return 0


def cmd_section(args):
    g = _group(args)
    rec = _require_recursion(g)
    sec = rec.section(words.parse_word(args.word, g.gens), _vertex(args.vertex))
    out = words.format_word(sec, g.gens)
    _emit(args, {"section": out}, out)
    return 0


def cmd_nucleus(args):
    g = _group(args)
    rec = _require_recursion(g)
    nuc = contraction.nucleus(rec, _budget(args))
    elements = [words.format_word(e, rec.gens) for e in nuc.elements]
    text = f"nucleus size {len(nuc)}\n" + "\n".join(elements)
    _emit(args, {"size": len(nuc), "elements": elements}, text)
    return 0


def _cover(args):
    """The universal cover on the group's nucleus, and the budget it was built in."""
    rec = _require_recursion(_group(args))
    budget = _budget(args)
    nuc = contraction.nucleus(rec, budget)
    return covers.universal_cover(nuc, prune=args.prune), budget


def cmd_cover(args):
    cov, _ = _cover(args)
    gens = cov.presentation.gens
    rels = [words.format_word(r, gens) for r in cov.presentation.relators]
    lines = ["gens " + " ".join(gens)] + [f"rel {r}" for r in rels]
    base_gens = cov.nucleus.rec.gens
    for entry in cov.pruning:
        lines.append(f"# dropped {words.format_word(entry.element, base_gens)}: {entry.reason}")
    _emit(args, {"gens": list(gens), "relators": rels}, "\n".join(lines))
    return 0


def cmd_standard_cover(args):
    if args.radius < 0:  # before the nucleus, which can run for minutes
        raise ValueError("radius must be >= 0")
    cov, budget = _cover(args)
    result = covers.standard_cover(cov, budget=budget, search_radius=args.radius)
    gens = cov.presentation.gens
    extra = [words.format_word(w, gens) for w in result.extra_relators]
    if result.already_self_replicating:
        text = "universal cover already self-replicating"
    else:
        text = "extra relators:\n" + "\n".join(extra)
    _emit(
        args,
        {"extra_relators": extra, "already_self_replicating": result.already_self_replicating},
        text,
    )
    return 0


def cmd_kernel_member(args):
    g = catalog.chain(args.group).member(args.level)
    member = g.is_trivial(words.parse_word(args.word, g.gens))
    _emit(args, {"member": member, "level": args.level},
          "member" if member else "not a member")
    return 0 if member else 1


def cmd_chain_profile(args):
    # level --max-level first, so that a word in no kernel costs one ask;
    # the kernels are nested, so the least level is the first member from 0 up
    chain, least = catalog.chain(args.group), None
    if args.max_level >= 0:
        top = chain.member(args.max_level)
        word = words.parse_word(args.word, top.gens)
        if top.is_trivial(word):
            least = next(n for n in range(args.max_level + 1) if chain.member(n).is_trivial(word))
    _emit(args, {"least_level": least},
          "none" if least is None else str(least))
    return 0 if least is not None else 1


def _subgroup_words(spec: str, gens):
    presets = {
        "xi0": grig.XI0_GENS,
        "b0": grig.B0_GENS,
        "k0": grig.K0_GENS,
    }
    if spec in presets:
        return list(presets[spec])
    if spec.startswith("h") and spec[1:].isdigit():
        return grig.h_n_generators(int(spec[1:]))
    out = []
    for item in spec.split(","):
        item = item.strip()
        if item in grig.WORD_ALIASES and set(gens) >= {"a", "b", "c", "d"}:
            out.append(grig.WORD_ALIASES[item])
        else:
            out.append(words.parse_word(item, gens))
    return out


def cmd_tc(args):
    if args.gn is not None and args.pres:
        raise ContractaError("tc takes --pres FILE or --gn N, not both")
    if args.gn is not None:
        pres = grig.g_n_presentation(args.gn)
    elif args.pres:
        with open(args.pres, encoding="utf-8") as fh:
            pres = rewriting.parse_presentation(fh.read())
    else:
        raise ContractaError("tc needs --pres FILE or --gn N")
    subgroup = _subgroup_words(args.subgroup, pres.gens)
    table = enumerate_cosets(pres, subgroup, max_cosets=args.max_cosets)
    text = f"index {table.index}"
    if args.dump:
        text += "\n" + table.export_text()
    _emit(args, {"index": table.index}, text)
    return 0


def cmd_kb(args):
    with open(args.pres, encoding="utf-8") as fh:
        pres = rewriting.parse_presentation(fh.read())
    sys_ = rewriting.complete(pres, max_rules=args.max_rules)
    rules = [
        f"{words.format_word(r.lhs, sys_.gens)} -> {words.format_word(r.rhs, sys_.gens)}"
        for r in sys_.rules
    ]
    state = "complete" if sys_.complete else "incomplete"
    _emit(args, {"complete": sys_.complete, "rules": rules},
          "\n".join([state] + rules))
    return 0 if sys_.complete else 2


def cmd_rank(args):
    orders = tuple(int(x) for x in args.orders.split(",") if x)
    sig = FreeProductSignature(orders, args.free_rank)
    rank = kernel_rank_free_product(sig, args.index)
    _emit(args, {"rank": rank}, str(rank))
    return 0


def cmd_lysenok(args):
    w = grig.lysenok_relator(args.kind, args.n)
    out = words.format_word(w, grig.GENS)
    _emit(args, {"relator": out, "length": len(w)}, out)
    return 0


def cmd_gn_pres(args):
    pres = grig.g_n_presentation(args.n)
    text = rewriting.format_presentation(pres)
    _emit(args, {"presentation": text}, text)
    return 0


def cmd_hn_gens(args):
    gens = grig.h_n_generators(args.n)
    out = [words.format_word(g, grig.GENS) for g in gens]
    _emit(args, {"generators": out}, "\n".join(out))
    return 0


def cmd_gomega_wp(args):
    omega = gomega.OmegaSequence.parse(args.omega)
    g = catalog.load(f"gomega:{omega}", _budget(args))
    trivial = g.is_trivial(words.parse_word(args.word, g.gens))
    _emit(args, {"omega": str(omega), "trivial": trivial},
          "trivial" if trivial else "nontrivial")
    return 0 if trivial else 1


def cmd_dist(args):
    v = marked.valuation(catalog.marked(args.group_a), catalog.marked(args.group_b), args.radius)
    _emit(
        args,
        {"v": v.value, "at_least": v.at_least, "d": v.distance, "radius": v.radius},
        str(v),
    )
    return 0


def cmd_converge(args):
    if args.n_max < 0:
        raise ValueError("n_max must be >= 0")
    chain = catalog.chain(args.chain)
    groups = [(n, chain.member(n)) for n in range(args.n_max + 1)]
    report = marked.converge_report(groups, chain.limit, args.radius)
    _emit(args, report.to_json_dict(), report.to_text())
    return 0


def cmd_growth(args):
    g = _group(args)
    table = growth.ball_sizes(
        g.equal, len(g.gens), args.n_max, name=g.name, invariant=g.invariant
    )
    text = table.to_csv()
    payload = {"gamma": table.gamma}
    if args.probe:
        probe = growth.growth_probe(table)
        text += (
            f"# polynomial degree indicator {probe.polynomial_degree:.3f}\n"
            f"# exponential rate indicator {probe.exponential_rate:.3f}\n"
            f"# {probe.note}\n"
        )
        payload["probe"] = {
            "polynomial_degree": probe.polynomial_degree,
            "exponential_rate": probe.exponential_rate,
        }
    _emit(args, payload, text)
    return 0


def _st_word(text):
    return words.parse_word(text, metabelian.GENS)


def cmd_bs(args):
    l, m = catalog.parse_lm(args.params)
    w = _st_word(args.word)
    reduced = metabelian.britton_reduce(metabelian.BsDatum(l, m, args.phi), w)
    trivial = reduced.is_trivial
    text = (
        "trivial"
        if trivial
        else f"nontrivial (pinch-free form with {reduced.stable_letter_count} stable letters)"
    )
    _emit(args, {"trivial": trivial, "stable_letters": reduced.stable_letter_count}, text)
    return 0 if trivial else 1


def cmd_met(args):
    l, m = catalog.parse_lm(args.params)
    mat = metabelian.met_eval(l, m, _st_word(args.word))
    rows = [[str(x) for x in row] for row in mat.rows()]
    text = "\n".join(" ".join(row) for row in rows)
    _emit(args, {"matrix": rows, "identity": mat.is_identity}, text)
    return 0 if mat.is_identity else 1


def cmd_wreath(args):
    modulus = catalog._wreath_modulus(args.base)
    elt = metabelian.wreath_eval(_st_word(args.word), modulus)
    text = f"support {dict(elt.values)} shift {elt.shift}"
    _emit(
        args,
        {"values": [list(v) for v in elt.values], "shift": elt.shift,
         "identity": elt.is_identity},
        text,
    )
    return 0 if elt.is_identity else 1


# -- parser ------------------------------------------------------------------


def _add_group_options(p):
    p.add_argument("--group", "-g", help="catalog name")
    p.add_argument("--file", help="group definition file (.rec)")


def _add_budget_options(p, depth=False):  # only the nucleus's closures count depth
    p.add_argument("--max-states", type=int)  # the default is DEFAULT_BUDGET's
    if depth:
        p.add_argument("--max-depth", type=int, default=DEFAULT_BUDGET.max_depth)
    p.add_argument("--max-word-length", type=int, default=DEFAULT_BUDGET.max_word_length)


def build_parser(command=None):
    """The full parser, or, when `command` names a subcommand, one that
    registers only that subparser; its usage still lists every subcommand."""
    top = argparse.ArgumentParser(
        prog="contracta",
        description="word problems, nuclei, covers, coset enumeration, and "
        "marked-group convergence for self-similar groups",
    )
    top.add_argument("--json", action="store_true", help="emit one JSON document")
    specs = []

    def add(name, handler, configure):
        specs.append((name, handler, configure))

    def word_opt(p, name="--word"):
        p.add_argument(name, required=True, help="space-separated tokens, or 1")

    add("wp", cmd_wp, lambda p: (_add_group_options(p), word_opt(p), _add_budget_options(p)))
    add("eq", cmd_eq, lambda p: (_add_group_options(p), word_opt(p),
                                 p.add_argument("--other", required=True),
                                 _add_budget_options(p)))
    add("act", cmd_act, lambda p: (_add_group_options(p), word_opt(p),
                                   p.add_argument("--vertex", required=True)))
    add("section", cmd_section, lambda p: (_add_group_options(p), word_opt(p),
                                           p.add_argument("--vertex", required=True)))
    add("nucleus", cmd_nucleus, lambda p: (_add_group_options(p), _add_budget_options(p, True)))
    add("cover", cmd_cover, lambda p: (_add_group_options(p),
                                       p.add_argument("--prune", action="store_true"),
                                       _add_budget_options(p, True)))
    add("standard-cover", cmd_standard_cover,
        lambda p: (_add_group_options(p), p.add_argument("--prune", action="store_true"),
                   p.add_argument("--radius", type=int, default=6), _add_budget_options(p, True)))
    add("kernel-member", cmd_kernel_member,
        lambda p: (p.add_argument("--group", "-g", required=True), word_opt(p),
                   p.add_argument("--level", type=int, required=True)))
    add("chain-profile", cmd_chain_profile,
        lambda p: (p.add_argument("--group", "-g", required=True), word_opt(p),
                   p.add_argument("--max-level", type=int, default=8)))
    add("tc", cmd_tc, lambda p: (p.add_argument("--pres"),
                                 p.add_argument("--gn", type=int),
                                 p.add_argument("--subgroup", required=True,
                                                help="comma-separated words, aliases, or a preset"),
                                 p.add_argument("--max-cosets", type=int,
                                                default=cosets.DEFAULT_MAX_COSETS),
                                 p.add_argument("--dump", action="store_true")))
    add("kb", cmd_kb, lambda p: (p.add_argument("--pres", required=True),
                                 p.add_argument("--max-rules", type=int, default=2_000)))
    add("rank", cmd_rank, lambda p: (p.add_argument("--orders", required=True,
                                                    help="finite factor orders, e.g. 2,4"),
                                     p.add_argument("--free-rank", type=int, default=0),
                                     p.add_argument("--index", type=int, required=True)))
    add("lysenok", cmd_lysenok, lambda p: (p.add_argument("--kind", choices=("u", "v"),
                                                          required=True),
                                           p.add_argument("--n", type=int, required=True)))
    add("gn-pres", cmd_gn_pres, lambda p: p.add_argument("--n", type=int, required=True))
    add("hn-gens", cmd_hn_gens, lambda p: p.add_argument("--n", type=int, required=True))
    add("gomega-wp", cmd_gomega_wp, lambda p: (p.add_argument("--omega", required=True),
                                               word_opt(p), _add_budget_options(p)))
    add("dist", cmd_dist, lambda p: (p.add_argument("--group-a", required=True),
                                     p.add_argument("--group-b", required=True),
                                     p.add_argument("--radius", type=int, required=True)))
    add("converge", cmd_converge, lambda p: (p.add_argument("--chain", required=True),
                                             p.add_argument("--radius", type=int, required=True),
                                             p.add_argument("--n-max", type=int, required=True)))
    add("growth", cmd_growth, lambda p: (_add_group_options(p),
                                         p.add_argument("--n-max", type=int, required=True),
                                         p.add_argument("--probe", action="store_true")))
    add("bs", cmd_bs, lambda p: (p.add_argument("--params", required=True, help="l:m"),
                                 word_opt(p), p.add_argument("--phi", type=int, default=0)))
    add("met", cmd_met, lambda p: (p.add_argument("--params", required=True, help="l:m"),
                                   word_opt(p)))
    add("wreath", cmd_wreath, lambda p: (p.add_argument("--base", required=True,
                                                        help="z or z<h>"),
                                         word_opt(p)))
    chosen = [spec for spec in specs if spec[0] == command]
    # one subparser keeps the full usage line that top-level errors print;
    # the full parser sets no metavar, as its "required" error names `command`
    metavar = "{" + ",".join(spec[0] for spec in specs) + "}" if chosen else None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, handler, configure in chosen or specs:
        p = sub.add_parser(name)
        configure(p)
        p.set_defaults(handler=handler)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand, if every token before it is exactly --json; any other
    # token first (-h, an abbreviation) gets the full parser
    command = next((token for token in argv if token != "--json"), None)
    args = build_parser(command).parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except BrokenPipeError:
            raise
        except (ContractaError, ValueError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            if args.json:
                _emit(args, {"error": str(e)}, "")
            code = 2
        sys.stdout.flush()  # a closed pipe fails here, not at the interpreter's exit
    except BrokenPipeError as e:
        # the reader has gone: write nothing more to stdout, and point it at
        # os.devnull for the interpreter's last flush (Python's `signal` docs)
        print(f"error: {e}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
