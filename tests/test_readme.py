"""The README's library example runs as printed, and its comments hold."""

import ast
import os
import re

from contracta.words import format_word

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    code = library_example()
    *body, last = ast.parse(code).body
    namespace = {}
    exec(compile(ast.Module(body, []), "README.md", "exec"), namespace)
    result = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)

    comments = {
        line.split("=")[0].strip() if "=" in line else "last": line.split("#")[1].strip()
        for line in code.splitlines()
        if "#" in line
    }
    assert comments == {
        "nuc": "5 elements", "cover": "<a,b,c,d | a2,b2,c2,d2,bcd>", "last": "-> 1"
    }
    assert len(namespace["nuc"]) == 5
    cover = namespace["cover"]
    assert cover.presentation.gens == ("a", "b", "c", "d")
    relators = sorted(format_word(r, cover.presentation.gens) for r in cover.presentation.relators)
    assert relators == ["a a", "b b", "b c d", "c c", "d d"]
    assert result == 1
