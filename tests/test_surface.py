"""Package-surface guard: every function, class and method that `src/bsw`
defines is used by the package, the benchmark harness, the tools or the
code of the README, so code that only the tests need lives in
`tests/_oracles.py`.  The README's Python blocks run as written, and its
report example is a real run's."""

import ast
import contextlib
import glob
import io
import json
import os
import re
import tokenize

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


def test_readme_python_blocks_print_what_their_comments_say():
    """The README's ```python blocks run in order in one namespace, and each
    `print` writes its line's comment up to the first ": "."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        comments = {tok.start[0]: tok.string[1:].strip()
                    for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        printed = 0
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                    and getattr(stmt.value.func, "id", None) == "print"):
                printed += 1
                want = comments[stmt.end_lineno].split(": ", 1)[0]
                assert out.getvalue().rstrip("\n") == want, block.splitlines()[stmt.lineno - 1]
        assert printed


def test_package_invariants_never_rest_on_assert():
    # `python -O` strips assert statements, so an invariant raises a typed error
    for path in sorted(glob.glob(os.path.join(ROOT, "src/bsw/*.py"))):
        tree = next(_trees(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], os.path.basename(path)


def test_records_set_their_fields_only_through_record_init():
    """`Record.__init__` is the one place that sets a record's fields: no
    subclass sets one of its `_fields` with object.__setattr__, and each
    `__init__` a subclass writes hands its values on to super().__init__."""
    records = [node for tree in _trees(os.path.join(ROOT, "src/bsw/*.py"))
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "Record" for base in node.bases)]
    assert len(records) >= 12
    for node in records:
        fields = next(ast.literal_eval(stmt.value) for stmt in node.body
                      if isinstance(stmt, ast.Assign)
                      and [getattr(t, "id", None) for t in stmt.targets] == ["_fields"])
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__setattr__"
                    and getattr(call.func.value, "id", None) == "object"):
                assert not (len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
                            and call.args[1].value in fields), (node.name, call.lineno)
        for init in node.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                assert any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                           and call.func.attr == "__init__"
                           and isinstance(call.func.value, ast.Call)
                           and getattr(call.func.value.func, "id", None) == "super"
                           for call in ast.walk(init)), node.name


def test_readme_session_block_shows_every_command_kind():
    from bsw.session import _COMMANDS
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (block,) = re.findall(r"```text\n(.*?)```", fh.read(), re.S)
    keywords = {" ".join(m.group().split()) for line in block.splitlines()
                if (m := re.match(r"germ\s+\S+|[^\s;]+", line))}
    assert sorted(set(_COMMANDS) - keywords) == []


def test_readme_session_block_names_every_flag_of_each_kind():
    """The README's `text` lines of each kind name, as --flag or flag=,
    every required and optional flag of its `_COMMANDS` row."""
    from bsw.session import _COMMANDS
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (block,) = re.findall(r"```text\n(.*?)```", fh.read(), re.S)
    named: dict = {}
    for line in block.splitlines():
        stmt = line.split("#", 1)[0]
        if m := re.match(r"germ\s+\S+|[^\s;]+", stmt):
            flags = re.findall(r"--([\w-]+)|([\w-]+)=", stmt)
            named.setdefault(" ".join(m.group().split()), set()).update(a or b for a, b in flags)
    missing = {kind: sorted(set(row[2] + row[3]) - named.get(kind, set()))
               for kind, row in _COMMANDS.items()}
    assert {kind: flags for kind, flags in missing.items() if flags} == {}


def test_readme_report_example_is_from_the_acceptance_run(tmp_path):
    """The README's ```json report has the header of `bsw run
    sessions/acceptance.bsw`, timestamp aside, and one of its blocks."""
    from bsw.session import parse_session, run_session
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (example,) = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", fh.read(), re.S)]
    with open(os.path.join(ROOT, "sessions", "acceptance.bsw"), encoding="utf-8") as fh:
        report = run_session(parse_session(fh.read()), csv_dir=str(tmp_path))
    (block,) = example.pop("blocks")
    assert block in report["blocks"]
    for header in (example, report):
        del header["timestamp"]
    assert example == {key: value for key, value in report.items() if key != "blocks"}
