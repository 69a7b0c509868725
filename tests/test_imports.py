"""Every name a library module imports is referenced in that module, every
module-level private name is referenced somewhere in the package, and only
`errors.py` raises a size-budget error, so the package keeps one budget."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cutwords"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_unused_imports():
    src = "from __future__ import annotations\nimport os, scipy.fft\nfrom a import b, c as d\nd(scipy)\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_privates(sources: dict) -> list:
    """(module, name) of each module-level `_`-prefixed function, class or
    constant that no module of `sources` (name -> text) references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted((m, n) for m, n in defined if n not in used)


def test_guard_sees_unreferenced_privates():
    sources = {
        "a.py": "_USED = 1\n_UNUSED = 2\ndef _f():\n    return _USED\nclass _K:\n    pass\n"
                "def _g():\n    pass\n_f()\n",
        "b.py": "from . import a\nfrom .a import _K\na._g()\n__all__ = []\n",
    }
    assert unreferenced_privates(sources) == [("a.py", "_UNUSED")]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def budget_errors_raised(source: str) -> list:
    """Lines that call or raise `SizeBudgetError` directly."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise):
            target = node.exc
        else:
            continue
        if getattr(target, "id", getattr(target, "attr", None)) == "SizeBudgetError":
            lines.add(node.lineno)
    return sorted(lines)


def test_guard_sees_budget_errors():
    src = ("from .errors import SizeBudgetError, check_budget\nfrom . import errors\n"
           "check_budget('x', 8)\nraise SizeBudgetError('over')\nraise errors.SizeBudgetError\n"
           "try:\n    pass\nexcept SizeBudgetError:\n    pass\n")
    assert budget_errors_raised(src) == [4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_size_budget_error_only_in_errors(path):
    # a new size limit goes through errors.check_budget, not beside it
    assert budget_errors_raised(path.read_text()) == []
