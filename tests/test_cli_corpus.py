"""Every command of the README's command list, of the CI smoke step and of
EXTRA, in text and under --json, prints the argv, exit code, stdout and
stderr that `cli_corpus.json` records.

Regenerate the corpus after an intended output change, and list the diff
in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_corpus.py

`--help` is left out: argparse wraps it to the terminal and words it by
Python version.  The commands run in-process, in a directory that holds the
input files the README and the CI step write, with COLUMNS fixed for the
usage line of an argparse error.
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "cli_corpus.json")
README = os.path.join(ROOT, "README.md")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
COLUMNS = "80"

# the files that `contracta gn-pres --n 0 > gn0.pres` and the CI step's
# printf lines write
FILES = {
    "gn0.pres": "pres\ngens a b c d\nrel a a\nrel b b\nrel c c\nrel d d\nrel b c d\n"
                "rel a d a d a d a d\n",
    "triangle.pres": "pres\ngens x y\nrel x^-1 x^-1\nrel y y y\nrel x y x y x y x y x y\n",
    "long.rec": "alphabet 3\ngen x = perm(2 0 1) sections(x^-1, x, 1)\n"
                "gen y = perm(1 2 0) sections(1, y^-1, y)\n",
    "powers.rec": "alphabet 3\ngen x = perm(2 1 0) sections(1, x^-1, x)\n",
}

# one omega of each shape of the benchmark's converge workload: a preperiod
# of 0-2 symbols, and a period of the three symbols plus 0-2 more
OMEGAS = (":012", ":1202", ":20100", "2:102", "0:2101", "1:02122", "01:210", "22:0121",
          "10:12001")

# growth balls of the catalog recursions and of the other families, at
# radii that each take a few tens of milliseconds
GROWTH = (("hanoi3", 8), ("basilica", 6), ("img_z2_plus_i", 7), ("gupta_sidki", 6),
          ("fabrykowski_gupta", 6), ("gomega:1:02", 8), ("bs:1:1", 6), ("met:2:3", 5),
          ("wreath:z", 5), ("w_n:1", 4))

# the error and budget corners: each --max-states and --max-word-length
# error of the word problems, the argument errors, and standard-cover with
# too small a radius for a witness, and with a negative one
CORNERS = [
    *([command, "--group", "grigorchuk", "--word", "a b a c a d a b a c a d", *other,
       "--max-states", "2"] for command, other in (("wp", ()), ("eq", ("--other", "1")))),
    ["wp", "--group", "grigorchuk", "--word", "a b a b", "--max-word-length", "3"],
    ["eq", "--group", "grigorchuk", "--word", "a b a c", "--other", "c a b a",
     "--max-word-length", "3"],
    ["gomega-wp", "--omega", ":012", "--word", "a b a c a d a b a c a d", "--max-states", "2"],
    ["gomega-wp", "--omega", ":012", "--word", "a b a b", "--max-word-length", "3"],
    ["kernel-member", "--group", "grigorchuk", "--word", "a d a d a d a d", "--level", "-1"],
    ["dist", "--group-a", "gomega::012@-1", "--group-b", "gomega::012", "--radius", "4"],
    *([command, "--n", "-1"] for command in ("gn-pres", "hn-gens")),
    ["lysenok", "--kind", "u", "--n", "-1"],
    ["growth", "--group", "grigorchuk", "--n-max", "-1"],
    ["converge", "--chain", "grigorchuk", "--radius", "4", "--n-max", "-1"],
    ["kb", "--pres", "gn0.pres", "--max-rules", "0"],
    ["converge", "--chain", "met:2:3", "--radius", "2", "--n-max", "1"],
    ["dist", "--group-a", "met:2:3@1", "--group-b", "met:2:3", "--radius", "2"],
    *(["standard-cover", "--group", "grigorchuk", "--radius", r] for r in ("0", "1")),
    ["standard-cover", "--group", "hanoi3", "--radius", "-3"],
]

# the shapes of the benchmark's converge workload: its dist ops at radius 8,
# its three reports at their radii, and the Met(2, 3) matrices and tower;
# then the growth balls and the corners
EXTRA = [
    *(["dist", "--group-a", f"gomega:{om}@{n}", "--group-b", f"gomega:{om}", "--radius", "8"]
      for om in OMEGAS for n in range(4)),
    ["converge", "--chain", "grigorchuk", "--radius", "10", "--n-max", "4"],
    ["converge", "--chain", "gomega::012", "--radius", "10", "--n-max", "4"],
    ["converge", "--chain", "bs:2:3", "--radius", "6", "--n-max", "4"],
    *(["met", "--params", "2:3", "--word", word]
      for word in ("s t", "t s t^-1 s^-1", "t^-2 s t^3 s^-1 t^-1")),
    ["dist", "--group-a", "bs:2:3@2", "--group-b", "met:2:3", "--radius", "6"],
    *(["growth", "--group", name, "--n-max", str(n)] for name, n in GROWTH),
    *CORNERS,
]


def readme_commands():
    """The README's command list: each `contracta` line of its first sh
    block after "## Command line", without comments or redirection."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    out = []
    for line in block.splitlines():
        tokens = shlex.split(line, comments=True)
        if tokens[:1] == ["contracta"]:
            out.append(tokens[1 : tokens.index(">")] if ">" in tokens else tokens[1:])
    return out


def workflow_commands():
    """Each `contracta` invocation of the CI workflow, up to the shell's
    next pipe, redirection, list operator or closing parenthesis."""
    with open(WORKFLOW, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    out = []
    for line in lines:
        if line.startswith("#"):
            continue
        for match in re.finditer(r"(?<![\w.-])contracta (?=\S)", line):
            lexer = shlex.shlex(line[match.end() :].replace(" 2>&1", ""), posix=True,
                                punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set(lexer.punctuation_chars):
                    break
                argv.append(token)
            out.append(argv)
    return out


def corpus_argvs():
    """Every command in text and under --json, in order of first mention,
    with `--help` left out."""
    out = []
    for argv in readme_commands() + workflow_commands() + EXTRA:
        if "--help" in argv:
            continue
        text = [token for token in argv if token != "--json"]
        for variant in (text, ["--json", *text]):
            if variant not in out:
                out.append(variant)
    return out


def run(argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` call."""
    from contracta import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def corpus_directory():
    """A temporary working directory holding FILES, with COLUMNS fixed and
    the catalog at its default place."""
    saved = {key: os.environ.get(key) for key in ("COLUMNS", "CONTRACTA_CATALOG")}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.environ["COLUMNS"] = COLUMNS
        os.environ.pop("CONTRACTA_CATALOG", None)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def build():
    with corpus_directory():
        return [dict(zip(("argv", "code", "stdout", "stderr"), (argv, *run(argv))))
                for argv in corpus_argvs()]


def load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_corpus_lists_every_readme_and_ci_command():
    assert [case["argv"] for case in load()] == corpus_argvs()


def test_every_command_prints_the_recorded_bytes():
    cases = load()
    with corpus_directory():
        for case in cases:
            assert run(case["argv"]) == (case["code"], case["stdout"], case["stderr"]), \
                case["argv"]


if __name__ == "__main__":
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {CORPUS}", file=sys.stderr)
