"""Every public name of the package has a reader.

A public top-level function or class of a module in `src/contracta`, or a
public method of such a class, must be named, as a whole word, somewhere
outside its own definition: in `src/`, in `perfbench/*.py` or in README.md.
A name that only tests call is library surface that nothing uses.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "contracta")

# public names exempt from the check; none are
ALLOWED = set()

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """Public top-level functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFINITIONS) and not sub.name.startswith("_"):
                        yield sub


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unread_names(src_dir, other_texts):
    """(file, name) of each public definition whose name appears nowhere
    outside the lines of its own definition, decorators included."""
    sources = {path: read(path) for path in sorted(glob.glob(os.path.join(src_dir, "*.py")))}
    unread = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in public_definitions(ast.parse(text)):
            if node.name in ALLOWED:
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            outside = lines[:first] + lines[node.end_lineno :]
            texts = ["\n".join(outside)] + [t for p, t in sources.items() if p != path]
            if not any(word.search(t) for t in texts + other_texts):
                unread.append((os.path.basename(path), node.name))
    return unread


def test_every_public_name_has_a_reader():
    others = [read(p) for p in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))]
    others.append(read(os.path.join(ROOT, "README.md")))
    assert unread_names(SRC, others) == []


def test_a_name_only_its_own_definition_uses_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Used:\n"
        "    def helper(self):\n"
        "        return self.helper_twin()\n"
        "\n"
        "    @property\n"
        "    def lonely(self):\n"
        "        return Used.lonely\n"
        "\n"
        "    def _private(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return orphan\n"
    )
    readme = "Used is used, and so is helper."
    assert unread_names(str(tmp_path), [readme]) == [("mod.py", "lonely"), ("mod.py", "orphan")]
