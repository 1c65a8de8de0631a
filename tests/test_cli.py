import json
import os
import sys
import time

import pytest

from conftest import random_word
from contracta import catalog, cli, grig, growth, marked, metabelian
from contracta.gomega import OmegaSequence
from contracta.words import format_word, parse_word
from test_gomega import reference_kernel_member


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestWordProblem:
    def test_trivial_word_exits_zero(self, capsys):
        code, out = run(capsys, "wp", "--group", "grigorchuk", "--word", "")
        assert code == 0 and out.strip() == "trivial"

    def test_nontrivial_word_exits_one(self, capsys):
        code, out = run(capsys, "wp", "--group", "grigorchuk", "--word", "a b")
        assert code == 1 and out.strip() == "nontrivial"

    def test_relator(self, capsys):
        code, _ = run(capsys, "wp", "--group", "grigorchuk", "--word", "b c d")
        assert code == 0

    def test_eq(self, capsys):
        code, _ = run(capsys, "eq", "--group", "grigorchuk", "--word", "b", "--other", "d c")
        assert code == 0

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "flip.rec"
        path.write_text("alphabet 2\ngen a = perm(1 0) sections(1, 1)\n")
        code, out = run(capsys, "wp", "--file", str(path), "--word", "a a")
        assert code == 0


class TestGroupSources:
    """`--group` and `--file` build the same group, with the same budget."""

    BASILICA = os.path.join(catalog.catalog_dir(), "basilica.rec")

    def test_file_and_catalog_growth_agree(self, capsys):
        # both get the invariant composed from per-letter level permutations
        _, by_file = run(capsys, "--json", "growth", "--file", self.BASILICA, "--n-max", "6")
        _, by_name = run(capsys, "--json", "growth", "--group", "basilica", "--n-max", "6")
        assert json.loads(by_file)["gamma"] == json.loads(by_name)["gamma"]

    @pytest.mark.parametrize("flag", ["--max-states=2", "--max-word-length=2"])
    def test_budget_flags_reach_both_sources(self, capsys, flag):
        word = "a b a^-1 b^-1"
        for source in (["--group", "basilica"], ["--file", self.BASILICA]):
            assert run(capsys, "wp", *source, "--word", word)[0] == 1
            assert run(capsys, "wp", *source, flag, "--word", word)[0] == 2

    def test_a_name_with_no_definition_file_is_refused(self, capsys, tmp_path, monkeypatch):
        # an empty catalog directory; the uncached loader, so that no earlier
        # load of the name answers
        monkeypatch.setenv("CONTRACTA_CATALOG", str(tmp_path))
        monkeypatch.setattr(catalog, "_recursion_entry", catalog._recursion_entry.__wrapped__)
        assert cli.main(["wp", "--group", "basilica", "--word", "a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no catalog definition 'basilica' (looked in ")

    def test_nucleus_depth_flag_reaches_the_closure(self, capsys, tmp_path):
        path = tmp_path / "g.rec"
        path.write_text("alphabet 2\ngen g = perm(1 0) sections(g g, g)\n")
        assert cli.main(["nucleus", "--file", str(path), "--max-depth", "1"]) == 2
        assert capsys.readouterr().err == "error: section closure deeper than 1\n"


class TestStructure:
    def test_nucleus_listing(self, capsys):
        code, out = run(capsys, "nucleus", "--group", "grigorchuk")
        assert code == 0
        assert "nucleus size 5" in out
        assert out.strip().splitlines()[1:] == ["1", "a", "b", "c", "d"]

    def test_cover(self, capsys):
        # the whole text, the pruning records included
        for argv, want in [
            (("basilica", "--prune"), [
                "gens a b",
                "# dropped 1: identity",
                "# dropped a^-1: inverse of a",
                "# dropped b^-1: inverse of b",
                "# dropped a^-1 b: product a^-1 . b",
                "# dropped b^-1 a: inverse of a pruned element",
            ]),
            (("basilica",), [
                "gens a b s0",
                "rel a s0 b^-1",
                "# dropped 1: identity",
                "# dropped a^-1: inverse of a",
                "# dropped b^-1: inverse of b",
                "# dropped b^-1 a: inverse of s0",
            ]),
            (("hanoi3", "--prune"), [
                "gens a b c",
                "rel a a",
                "rel b b",
                "rel c c",
                "# dropped 1: identity",
            ]),
        ]:
            code, out = run(capsys, "cover", "--group", *argv)
            assert code == 0
            assert out == "\n".join(want) + "\n", argv

    def test_standard_cover(self, capsys):
        code, out = run(capsys, "standard-cover", "--group", "gupta_sidki")
        assert code == 0
        assert "already self-replicating" in out

    def test_standard_cover_with_extra_relators(self, capsys, tmp_path):
        path = tmp_path / "extra.rec"
        path.write_text(
            "alphabet 3\n"
            "gen x = perm(0 2 1) sections(x^-1, y, y)\n"
            "gen y = perm(1 2 0) sections(x^-1, 1, x)\n"
        )
        argv = ["standard-cover", "--file", str(path), "--prune", "--radius", "4",
                "--max-states", "300", "--max-depth", "32", "--max-word-length", "96"]
        extra = ["x x x x x x", "x^-1 x^-1 x^-1 x^-1 x^-1 x^-1"]
        assert run(capsys, *argv) == (0, "\n".join(["extra relators:", *extra]) + "\n")
        code, out = run(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out) == {
            "already_self_replicating": False, "command": "standard-cover",
            "extra_relators": extra, "schema_version": 1,
        }

    def test_act_and_section(self, capsys):
        code, out = run(capsys, "act", "--group", "grigorchuk", "--word", "b", "--vertex", "01")
        assert code == 0 and out.strip() == "00"
        code, out = run(capsys, "section", "--group", "grigorchuk", "--word", "b", "--vertex", "0")
        assert code == 0 and out.strip() == "a"


class TestKernelCommands:
    def test_kernel_member(self, capsys):
        code, _ = run(capsys, "kernel-member", "--group", "grigorchuk",
                      "--word", "a d a d a d a d", "--level", "1")
        assert code == 0
        code, _ = run(capsys, "kernel-member", "--group", "grigorchuk",
                      "--word", "a d a d a d a d", "--level", "0")
        assert code == 1

    def test_chain_profile(self, capsys):
        code, out = run(capsys, "chain-profile", "--group", "grigorchuk",
                        "--word", "a d a d a d a d", "--max-level", "4")
        assert code == 0 and out.strip() == "1"
        code, out = run(capsys, "chain-profile", "--group", "grigorchuk",
                        "--word", "a b", "--max-level", "4")
        assert code == 1 and out.strip() == "none"


    def test_gomega_and_bs_chains_agree_with_independent_oracles(self, capsys, rng):
        # gomega::012 against the section recursion of test_gomega; bs:2:3
        # against Britton reduction at level 0 of the word with each s
        # written out as s^(2^n)
        omega, c2v = OmegaSequence.parse(":012"), catalog.cover_for("grigorchuk")[1]

        def bs_member(u, n):
            image = tuple(x for y in u for x in ((y,) * 2**n if abs(y) == 1 else (y,)))
            return metabelian.britton_reduce(metabelian.BsDatum(2, 3), image).is_trivial

        families = [
            ("gomega::012", grig.GENS, lambda u, n: reference_kernel_member(omega, u, n, c2v),
             ["a d a d a d a d", "a c a c a c a c a c a c a c a c", "a b", "", "b c d",
              "a^-1 b c d a"], 4),
            ("bs:2:3", metabelian.GENS, bs_member,
             ["s t s t^-1 s^-1 t s^-1 t^-1", "t^-1 s t s t^-1 s^-1 t s^-1", "s",
              "t^-1 s^2 t s^-3", "", "t s t^-1 s t s^-1 t^-1 s^-1",
              "t^-2 s t^2 s t^-2 s^-1 t^2 s^-1"], 2),
        ]
        for group, gens, oracle, texts, rank in families:
            texts = texts + [format_word(random_word(rng, rank, 8), gens) for _ in range(20)]
            least_levels = set()
            for text in texts:
                u = parse_word(text, gens)
                expected = [oracle(u, n) for n in range(4)]
                got = [run(capsys, "kernel-member", "--group", group, "--word", text,
                           "--level", str(n)) for n in range(4)]
                assert got == [(0, "member\n") if e else (1, "not a member\n")
                               for e in expected], (group, text)
                least = next((n for n in range(4) if expected[n]), None)
                least_levels.add(least)
                assert run(capsys, "chain-profile", "--group", group, "--word", text,
                           "--max-level", "3") == (
                    (1, "none\n") if least is None else (0, f"{least}\n")), (group, text)
            assert {None, 0, 1, 2} <= least_levels, group

    @pytest.mark.parametrize("base", ["foo", "met:2:3", "grigorchuk@1"])
    @pytest.mark.parametrize("command, level", [("kernel-member", "--level"),
                                                ("chain-profile", "--max-level")])
    def test_a_base_with_no_chain_is_an_error(self, capsys, base, command, level):
        assert cli.main([command, "--group", base, "--word", "a", level, "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: no chain family for {base!r}\n"

    def test_a_word_in_no_kernel_is_none_at_a_deep_max_level(self, capsys):
        # d = (1, d) at gomega::0 is in no kernel; its least level is found
        # once, whatever the level asked
        start = time.perf_counter()
        argv = ["chain-profile", "--group", "gomega::0", "--word", "d", "--max-level", "100000"]
        assert run(capsys, *argv) == (1, "none\n")
        assert time.perf_counter() - start < 1.0


class TestPresentationCommands:
    def test_tc_with_preset(self, capsys):
        code, out = run(capsys, "tc", "--gn", "0", "--subgroup", "k0")
        assert code == 0 and out.strip() == "index 16"

    def test_tc_with_alias_words(self, capsys, tmp_path):
        pres = tmp_path / "gn0.pres"
        code, out = run(capsys, "gn-pres", "--n", "0")
        pres.write_text(out)
        code, out = run(capsys, "tc", "--pres", str(pres), "--subgroup", "t,v,w")
        assert code == 0 and out.strip() == "index 16"

    def test_tc_dump(self, capsys):
        code, out = run(capsys, "tc", "--gn", "0", "--subgroup", "xi0", "--dump")
        assert code == 0
        assert "coset 0:" in out

    @pytest.mark.parametrize("exists", [True, False])
    def test_tc_rejects_pres_and_gn_together(self, capsys, tmp_path, exists):
        # the conflict is named before the file is read, so also when it is missing
        pres = tmp_path / "gn0.pres"
        if exists:
            pres.write_text(run(capsys, "gn-pres", "--n", "0")[1])
        argv = ["tc", "--pres", str(pres), "--gn", "0", "--subgroup", "k0"]
        message = "tc takes --pres FILE or --gn N, not both"
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")
        assert cli.main(["--json", *argv]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == message

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_tc_rejects_a_non_positive_budget(self, capsys, budget):
        argv = ["tc", "--gn", "0", "--subgroup", "xi0", "--max-cosets", budget]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: max_cosets must be positive\n"
        assert cli.main(["--json", *argv]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "max_cosets must be positive"

    def test_tc_budget_flag_reaches_the_enumerator(self, capsys):
        # G_3/H_3 has index 2^18, far past this budget
        argv = ["tc", "--gn", "3", "--subgroup", "h3", "--max-cosets", "4096"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: coset budget 4096 exhausted\n"

    def test_kb(self, capsys, tmp_path):
        pres = tmp_path / "v.pres"
        pres.write_text("pres\ngens a b c d\nrel a a\nrel b b\nrel c c\nrel d d\nrel b c d\n")
        code, out = run(capsys, "kb", "--pres", str(pres))
        assert code == 0
        assert out.startswith("complete")
        assert "b c -> d" in out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_kb_rejects_a_non_positive_budget(self, capsys, tmp_path, budget):
        pres = tmp_path / "v.pres"
        pres.write_text("pres\ngens a b\nrel a b a b a b\n")
        argv = ["kb", "--pres", str(pres), "--max-rules", budget]
        assert cli.main(argv) == 2
        assert capsys.readouterr()[:] == ("", "error: max_rules must be positive\n")
        assert cli.main(["--json", *argv]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "max_rules must be positive"

    def test_rank(self, capsys):
        code, out = run(capsys, "rank", "--orders", "2,4", "--index", "8")
        assert code == 0 and out.strip() == "3"

    def test_lysenok_and_hn(self, capsys):
        code, out = run(capsys, "lysenok", "--kind", "u", "--n", "1")
        assert code == 0 and out.strip() == "a c a c a c a c a c a c a c a c"
        code, out = run(capsys, "hn-gens", "--n", "1")
        assert code == 0 and len(out.strip().splitlines()) == 6
        code, out = run(capsys, "hn-gens", "--n", "40")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv, message", [
        (["lysenok", "--kind", "v", "--n", "-1"], "n must be >= 0"),
        (["gn-pres", "--n", "-1"], "n must be >= 0"),
        (["hn-gens", "--n", "-1"], "n must be >= 0"),
        (["dist", "--group-a", "grigorchuk", "--group-b", "grigorchuk", "--radius", "-1"],
         "radius must be >= 0"),
        (["tc", "--gn", "0", "--subgroup", "t,zz"], "unknown generator 'zz' in word"),
        (["growth", "--group", "hanoi3", "--n-max", "-1"], "n_max must be >= 0"),
        (["converge", "--chain", "grigorchuk", "--radius", "4", "--n-max", "-1"],
         "n_max must be >= 0"),
    ])
    def test_bad_arguments_exit_two_in_text_and_json(self, capsys, argv, message):
        # a negative n, radius or n_max, and a --subgroup word that is neither a
        # preset nor an alias nor a word in the generators
        assert cli.main(argv) == 2
        assert capsys.readouterr()[:] == ("", f"error: {message}\n")
        assert cli.main(["--json", *argv]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {message}\n"
        assert json.loads(out.out) == {"command": argv[0], "error": message, "schema_version": 1}


class TestFamilies:
    def test_gomega_wp(self, capsys):
        code, _ = run(capsys, "gomega-wp", "--omega", ":012",
                      "--word", "a d a d a d a d")
        assert code == 0

    def test_gomega_wp_budget(self, capsys):
        code = cli.main(["gomega-wp", "--omega", ":012", "--word", "a d a d a d a d",
                         "--max-states", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: section states exceed 1\n"

    def test_budget_flags_reach_gomega_groups(self, capsys):
        word = "a d a d a d a d"
        assert run(capsys, "wp", "--group", "gomega::012", "--word", word)[0] == 0
        assert cli.main(["wp", "--group", "gomega::012", "--max-states", "1",
                         "--word", word]) == 2
        assert capsys.readouterr().err == "error: section states exceed 1\n"

    @pytest.mark.parametrize("command", [["gomega-wp", "--omega", ":012"],
                                         ["wp", "--group", "gomega::012"]])
    def test_word_length_flag_reaches_gomega_groups(self, capsys, command):
        # an odd number of a's moves the root, but the length is checked first
        for word, code in (("a d a d a d a d", 0), ("a d a d a d a d a", 1)):
            n = len(word.split())
            assert cli.main([*command, "--max-word-length", str(n), "--word", word]) == code
            assert cli.main([*command, "--max-word-length", str(n - 1), "--word", word]) == 2
            assert capsys.readouterr().err.endswith(
                f"error: section word of length {n} exceeds cap {n - 1}\n"
            )

    @pytest.mark.parametrize("group, trivial", [("bs:2:3", True), ("met:2:3", True),
                                                ("wreath:z", False), ("w_n:1", False)])
    def test_word_length_flag_reaches_metabelian_groups(self, capsys, group, trivial):
        # t^-1 s^2 t s^-3 has 7 letters, as has u v^-1 in the eq case
        expect = 0 if trivial else 1
        for args in (["wp", "--word", "t^-1 s^2 t s^-3"],
                     ["eq", "--word", "t^-1 s^2 t", "--other", "s^3"]):
            command = [args[0], "--group", group, *args[1:]]
            assert cli.main(command) == expect
            assert cli.main([*command, "--max-word-length", "7"]) == expect
            capsys.readouterr()
            assert cli.main([*command, "--max-states", "1", "--max-word-length", "6"]) == 2
            assert capsys.readouterr().err == (
                "error: section word of length 7 exceeds cap 6\n"
            )

    @pytest.mark.parametrize("group", ["bs:2:3", "met:2:3", "wreath:z", "w_n:1"])
    def test_max_states_flag_is_an_error_on_metabelian_groups(self, capsys, group):
        # these word problems walk no section states, so the flag would be ignored
        message = f"--max-states counts section states, and {group} has none"
        for args in (["wp", "--word", "s"], ["eq", "--word", "s", "--other", "s"]):
            command = [args[0], "--group", group, *args[1:]]
            assert cli.main(command) in (0, 1)
            capsys.readouterr()
            for states in ("3", "10000"):
                assert cli.main([*command, "--max-states", states]) == 2
                out = capsys.readouterr()
                assert (out.out, out.err) == ("", f"error: {message}\n")
                assert cli.main(["--json", *command, "--max-states", states]) == 2
                assert json.loads(capsys.readouterr().out)["error"] == message
            assert cli.main([*command, "--max-states", "0"]) == 2
            assert capsys.readouterr().err == "error: budget limits must be positive\n"

    def test_dist(self, capsys):
        code, out = run(capsys, "dist", "--group-a", "grigorchuk@0",
                        "--group-b", "grigorchuk", "--radius", "8")
        assert code == 0 and "v = 7" in out

    def test_converge_json(self, capsys):
        code, out = run(capsys, "--json", "converge", "--chain", "bs:2:3",
                        "--radius", "4", "--n-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["non_decreasing"] is True
        assert len(doc["rows"]) == 3

    @pytest.mark.parametrize(
        "base, radius", [("grigorchuk", 8), ("gomega::012", 8), ("bs:2:3", 5), ("hanoi3", 4)]
    )
    def test_dist_to_the_limit_is_the_converge_row(self, capsys, base, radius):
        code, out = run(capsys, "--json", "converge", "--chain", base,
                        "--radius", str(radius), "--n-max", "2")
        assert code == 0
        report = json.loads(out)
        assert report["limit"] == ("met:2:3" if base == "bs:2:3" else base)
        for row in report["rows"]:
            code, out = run(capsys, "--json", "dist", "--group-a", f"{base}@{row['n']}",
                            "--group-b", report["limit"], "--radius", str(radius))
            assert code == 0
            doc = json.loads(out)
            assert {key: doc[key] for key in row if key != "n"} == {
                key: row[key] for key in row if key != "n"
            }

    def test_scan_stops_at_the_ball_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(marked, "DEFAULT_BALL_CAP", 1_000)
        code = cli.main(["dist", "--group-a", "met:2:3", "--group-b", "met:2:3",
                         "--radius", "30"])
        assert code == 2
        assert "ball cap of 1000 words" in capsys.readouterr().err

    def test_unknown_chain_base(self, capsys):
        for argv in (["dist", "--group-a", "met:2:3@1", "--group-b", "met:2:3", "--radius", "2"],
                     ["converge", "--chain", "met:2:3", "--radius", "2", "--n-max", "1"]):
            assert cli.main(argv) == 2
            assert "no chain family for 'met:2:3'" in capsys.readouterr().err

    @pytest.mark.parametrize("base, limit", [
        *((name, name) for name in catalog.RECURSION_NAMES),
        ("gomega::012", "gomega::012"),
        ("bs:2:3", "met:2:3"),
    ])
    @pytest.mark.parametrize("radius", ["3", "8"])
    def test_a_negative_chain_level_is_an_error_at_every_radius(self, capsys, base, limit,
                                                               radius):
        # the level is checked before any level is built, so it does not
        # wait for a scan to ask the member about a word
        argv = ["dist", "--group-a", f"{base}@-1", "--group-b", limit, "--radius", radius]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: level must be >= 0\n")

    @pytest.mark.parametrize("argv, code, out", [
        (["dist", "--group-a", "gomega::012@3000", "--group-b", "gomega::012", "--radius", "8"],
         0, "v = >= 8, d = 0\n"),
        (["dist", "--group-a", "bs:2:3@3000", "--group-b", "met:2:3", "--radius", "4"],
         0, "v = >= 4, d = 0\n"),
        (["kernel-member", "--group", "grigorchuk", "--word", "1", "--level", "3000"],
         0, "member\n"),
        (["bs", "--params", "2:3", "--word", "t^-1 s t s t^-1 s^-1 t s^-1", "--phi", "3000"],
         0, "trivial\n"),
    ])
    def test_deep_chain_levels_answer(self, capsys, argv, code, out):
        assert run(capsys, *argv) == (code, out)

    def test_a_word_in_no_kernel_answers_at_any_level(self, capsys):
        # d = (1, d) at gomega::0 fixes the root and never empties: it is
        # trivial in the limit and in no member
        argv = ["dist", "--group-a", "gomega::0@3000", "--group-b", "gomega::0", "--radius", "4"]
        assert run(capsys, *argv) == (0, "v = 0, d = 1\n")
        assert cli.main(["--json", *argv]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["v"], got["d"], got["at_least"]) == (0, 1.0, False)

    @pytest.mark.parametrize("argv", [
        ["dist", "--group-a", "bs:2:3@100000000", "--group-b", "met:2:3", "--radius", "4"],
        ["bs", "--params", "2:3", "--word", "s", "--phi", "100000000"],
    ])
    def test_a_bs_level_past_the_bit_cap_is_an_error(self, capsys, argv):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: level 100000000 of BS(2, 3) needs the base element 2^100000000, "
            "past the cap of 16777216 bits\n"
        )

    def test_negative_phi_is_an_error(self, capsys):
        assert cli.main(["bs", "--params", "2:3", "--word", "s", "--phi", "-1"]) == 2
        assert capsys.readouterr().err == "error: iterations must be >= 0\n"

    @pytest.mark.parametrize("argv, message", [
        (["wp", "--group", "w_n:x", "--word", "s"], "expected w_n:<n> with an integer n, got 'w_n:x'"),
        (["dist", "--group-a", "grigorchuk@x", "--group-b", "grigorchuk", "--radius", "2"],
         "expected <name>@<n> with an integer n, got 'grigorchuk@x'"),
    ])
    def test_non_integer_specs_are_named(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("params", ["2", "2:3:4", "2:x"])
    def test_params_share_the_catalog_parser(self, capsys, params):
        expected = f"expected <l>:<m> with integers l and m, got {params!r}"
        for argv in (["bs", "--params", params, "--word", "s"],
                     ["met", "--params", params, "--word", "s"],
                     ["dist", "--group-a", f"bs:{params}@1", "--group-b", "met:2:3",
                      "--radius", "2"]):
            assert cli.main(argv) == 2
            assert expected in capsys.readouterr().err

    def test_bs_met_wreath(self, capsys):
        witness = "t^-1 s t s t^-1 s^-1 t s^-1"
        code, _ = run(capsys, "bs", "--params", "2:3", "--word", witness)
        assert code == 1
        code, _ = run(capsys, "bs", "--params", "2:3", "--word", witness, "--phi", "1")
        assert code == 0
        code, out = run(capsys, "met", "--params", "2:3", "--word", witness)
        assert code == 0
        code, out = run(capsys, "wreath", "--base", "z", "--word", "s t s t^-1")
        assert code == 1 and "shift 0" in out

    def test_growth_csv(self, capsys):
        code, out = run(capsys, "growth", "--group", "gupta_sidki", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,gamma"
        assert [int(l.split(",")[1]) for l in lines[1:]] == [1, 5, 13, 29]

    @pytest.mark.parametrize("spec", ["bs:2:4", "bs:1:1", "bs:2:3", "met:2:3"])
    def test_growth_agrees_with_no_invariant(self, capsys, spec):
        # the bs invariant is a homomorphic image for every l, m >= 1, also
        # where met:<l>:<m> is not defined (gcd(l, m) != 1, or l = m = 1)
        g = catalog.load(spec)
        want = growth.ball_sizes(g.equal, 2, 5).gamma
        code, out = run(capsys, "--json", "growth", "--group", spec, "--n-max", "5")
        assert code == 0 and json.loads(out)["gamma"] == want
        assert {"bs:2:4": [1, 5, 17, 53, 153, 425], "bs:1:1": [1, 5, 13, 25, 41, 61],
                "bs:2:3": [1, 5, 17, 53, 147, 389]}.get(spec, want) == want

    def test_gomega_growth_is_grigorchuk_growth(self, capsys):
        code, out = run(capsys, "--json", "growth", "--group", "gomega::012", "--n-max", "8")
        assert code == 0 and json.loads(out)["gamma"] == [1, 5, 11, 23, 40, 68, 108, 176, 271]

    def test_growth_prints_the_same_bytes_on_every_run(self, capsys):
        argv = ("growth", "--group", "grigorchuk", "--n-max", "5", "--probe")
        assert run(capsys, *argv) == run(capsys, *argv)


def subcommand_names(parser=None):
    parser = parser or cli.build_parser()
    return list(next(a for a in parser._actions if a.dest == "command").choices)


DIST = ["dist", "--group-a", "gomega::012@2", "--group-b", "gomega::012", "--radius", "8"]


class TestParser:
    """`main` builds only the chosen subcommand's parser, and prints the
    bytes that the full parser prints."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exit_:
            parse(argv)
        out = capsys.readouterr()
        return out.out, out.err, exit_.value.code

    @pytest.mark.parametrize("argv", [
        *([name, "--help"] for name in subcommand_names()),
        ["-h"], ["--help"], ["-h", "dist"], [], ["nope"], ["nope", "--json"],
        ["--json", *DIST, "--bogus"],  # unrecognized: the top-level usage
        [*DIST, "--json"],
        ["--json", "--json", "dist", "--radius", "x"],
        ["--js", *DIST[:-2]],
        ["--json", *DIST[:-2]],  # a missing required flag
        ["wp", "--group", "grigorchuk"], ["tc"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_same_bytes_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = self.outcome(capsys, cli.build_parser().parse_args, argv)
        assert self.outcome(capsys, cli.main, argv) == full
        assert full[2] in (0, 2)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr("sys.argv", ["contracta", "dist", "--help"])
        full = self.outcome(capsys, cli.build_parser().parse_args, ["dist", "--help"])
        assert self.outcome(capsys, lambda _: cli.main(), None) == full

    @pytest.mark.parametrize("argv", [DIST, ["--json", *DIST], ["--js", *DIST]])
    def test_same_namespace_as_the_full_parser(self, argv):
        chosen = next(token for token in argv if token != "--json")
        assert cli.build_parser(chosen).parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_only_the_chosen_subparser_is_built(self):
        assert subcommand_names(cli.build_parser("dist")) == ["dist"]
        assert subcommand_names(cli.build_parser("--js")) == subcommand_names()


class TestJsonDeterminism:
    def test_same_invocation_same_bytes(self, capsys):
        _, first = run(capsys, "--json", "nucleus", "--group", "grigorchuk")
        _, second = run(capsys, "--json", "nucleus", "--group", "grigorchuk")
        assert first == second

    def test_byte_identical_across_processes(self):
        import subprocess
        import sys

        argv = [sys.executable, "-m", "contracta.cli", "--json",
                "converge", "--chain", "bs:2:3", "--radius", "3", "--n-max", "1"]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_every_subcommand_emits_valid_json(self, capsys, tmp_path):
        pres = tmp_path / "gn0.pres"
        _, out = run(capsys, "gn-pres", "--n", "0")
        pres.write_text(out)
        invocations = [
            ["wp", "--group", "grigorchuk", "--word", "a a"],
            ["eq", "--group", "grigorchuk", "--word", "b", "--other", "d c"],
            ["act", "--group", "grigorchuk", "--word", "a", "--vertex", "0"],
            ["section", "--group", "grigorchuk", "--word", "b", "--vertex", "1"],
            ["nucleus", "--group", "hanoi3"],
            ["cover", "--group", "gupta_sidki"],
            ["standard-cover", "--group", "img_z2_plus_i"],
            ["kernel-member", "--group", "grigorchuk", "--word", "a a", "--level", "2"],
            ["chain-profile", "--group", "grigorchuk", "--word", "a a", "--max-level", "2"],
            ["tc", "--pres", str(pres), "--subgroup", "b0"],
            ["kb", "--pres", str(pres)],
            ["rank", "--orders", "3,3", "--index", "9"],
            ["lysenok", "--kind", "v", "--n", "1"],
            ["gn-pres", "--n", "1"],
            ["hn-gens", "--n", "0"],
            ["gomega-wp", "--omega", ":01", "--word", "b b"],
            ["dist", "--group-a", "bs:2:3@0", "--group-b", "met:2:3", "--radius", "4"],
            ["converge", "--chain", "bs:2:3", "--radius", "3", "--n-max", "1"],
            ["growth", "--group", "basilica", "--n-max", "3", "--probe"],
            ["bs", "--params", "2:3", "--word", "t^-1 s^2 t s^-3"],
            ["met", "--params", "2:3", "--word", "s s^-1"],
            ["wreath", "--base", "z", "--word", "s s^-1"],
        ]
        for argv in invocations:
            code, out = run(capsys, "--json", *argv)
            assert code in (0, 1), argv
            doc = json.loads(out)
            assert doc["schema_version"] == 1
            assert doc["command"] == argv[0]

    def test_error_exit_code(self, capsys):
        code = cli.main(["wp", "--group", "nonexistent", "--word", "a"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["wp", "--group", "nonexistent", "--word", "a"],  # ContractaError
            ["kernel-member", "--group", "grigorchuk", "--word", "a", "--level", "-1"],
            ["wp", "--file", "no/such/file.rec", "--word", "a"],  # OSError
        ],
        ids=["contracta_error", "value_error", "os_error"],
    )
    def test_error_is_a_json_document_under_json(self, capsys, argv):
        code = cli.main(["--json", *argv])
        out = capsys.readouterr()
        assert code == 2
        message = out.err.removeprefix("error: ").rstrip("\n")
        assert out.err.startswith("error: ") and message
        assert json.loads(out.out) == {
            "schema_version": 1,
            "command": argv[0],
            "error": message,
        }
        # without --json, stdout stays empty
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""


def test_startup_generates_no_code():
    # `dataclasses` pulls in inspect, ast, dis and tokenize, and writes code
    # for each class at import: a third of a CLI process's set-up.  -S keeps
    # site hooks out; what importlib.resources loads by itself (inspect, on
    # some Python versions) is not the package's doing
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import importlib.resources\n"
        "shown = {'dataclasses', 'inspect'}; stdlib = shown & set(sys.modules)\n"
        "import contracta.cli; from contracta import catalog; catalog.load('grigorchuk')\n"
        "print(sorted((shown & set(sys.modules)) - stdlib))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestClosedStdout:
    """A reader that has gone (`| head`, `| true`) ends the command with exit
    code 2 and one error line, whatever it was answering, and nothing more is
    written to stdout.  The pipe's read end is closed before the command
    starts, so every write fails, however soon it comes."""

    BROKEN = "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv,err", [
        (["--json", "nucleus", "--group", "grigorchuk"], BROKEN),
        (["nucleus", "--group", "grigorchuk"], BROKEN),
        (["wp", "--group", "grigorchuk", "--word", "a b"], BROKEN),  # a "no", exit 1 when read
        # an error whose error document cannot be written either
        (["--json", "wp", "--group", "nosuch", "--word", "a"],
         "error: unknown catalog name 'nosuch'\n" + BROKEN),
    ])
    def test_a_closed_pipe_exits_two_without_a_traceback(self, capsys, monkeypatch, argv, err):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert cli.main(argv) == 2
            stdout.write("the interpreter's last flush")
        # closing flushed that line, which reached os.devnull, not the pipe
        assert capsys.readouterr().err == err
