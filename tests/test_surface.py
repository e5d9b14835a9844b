"""Package-surface guard: every function, class and method that `src/bsw`
defines is used by the package, the benchmark harness, the tools or the
code of the README, so code that only the tests need lives in
`tests/_oracles.py`."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CODE = re.compile(r"```.*?```|`[^`]+`", re.S)  # fenced blocks, then backtick spans


def _trees(pattern, skip=()):
    for path in sorted(glob.glob(pattern)):
        if os.path.basename(path) in skip:
            continue
        with open(path, encoding="utf-8") as fh:
            yield ast.parse(fh.read(), filename=path)


def _referenced(tree, with_strings: bool) -> set:
    """Names, attributes and imported names in tree; with_strings, also the
    words of its string constants (perfbench's tracer names layers so)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.update(alias.name.split("."))
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(WORD.findall(node.value))
    return out


def unreferenced_definitions(root: str = ROOT) -> list[str]:
    """Non-dunder definitions of src/bsw/*.py that nothing outside tests/ names.

    A re-export in src/bsw/__init__.py is not a use: public API that no
    package, tools or perfbench code calls counts only if the README names
    it in code, a fenced block or a backtick span; a word of its prose is no use.
    """
    used = set()
    for pattern, with_strings in (("src/bsw/*.py", False), ("tools/*.py", False),
                                  ("perfbench/*.py", True)):
        for tree in _trees(os.path.join(root, pattern), skip=("__init__.py",)):
            used |= _referenced(tree, with_strings)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        used.update(WORD.findall(" ".join(CODE.findall(fh.read()))))
    defined = set()
    for tree in _trees(os.path.join(root, "src/bsw/*.py")):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    return sorted(defined - used)


def test_no_test_only_code_in_package():
    assert unreferenced_definitions() == []
