"""The docstrings of `src/measengine` state contracts, and stay short enough to read.

A docstring names the tier-1 test that pins an equivalence instead of arguing
it, so each cited test must exist.  Docstring lines are counted with `ast`,
as ROADMAP counts them: every line of every module, class and function
docstring.  The count may only go down.
"""

import ast
import re
from pathlib import Path

import measengine

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "measengine"
TESTS = ROOT / "tests"

# The ratchet: lower it when docstrings shrink; it never rises.
DOCSTRING_LINES = 338

CITED = re.compile(r"\btest_\w+\b(?!\.py)")


def _docstrings(tree: ast.Module) -> list[ast.Expr]:
    nodes = [tree, *(node for node in ast.walk(tree)
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    return [node.body[0] for node in nodes if ast.get_docstring(node, clean=False) is not None]


def _src_docstrings() -> list[ast.Expr]:
    return [doc for path in sorted(SRC.glob("*.py")) for doc in _docstrings(ast.parse(
        path.read_text(encoding="utf-8")))]


def test_src_docstring_lines_do_not_grow():
    lines = sum(doc.end_lineno - doc.lineno + 1 for doc in _src_docstrings())
    assert lines <= DOCSTRING_LINES


def test_every_public_name_has_its_own_docstring():
    # A dataclass without one gets its generated signature as `__doc__`, and a str Enum
    # inherits `str`'s, so each definition is read from its source.
    missing = []
    for name in measengine.__all__:
        module = getattr(measengine, name).__module__
        tree = ast.parse((SRC / f"{module.rsplit('.', 1)[1]}.py").read_text(encoding="utf-8"))
        [node] = [node for node in tree.body if getattr(node, "name", None) == name]
        if not ast.get_docstring(node):
            missing.append(name)
    assert missing == []


def test_every_test_a_docstring_cites_exists():
    cited = {name for doc in _src_docstrings() for name in CITED.findall(doc.value.value)}
    defined = {node.name for path in TESTS.glob("test_*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert cited, "no docstring cites a test: the check would pass vacuously"
    assert sorted(cited - defined) == []
