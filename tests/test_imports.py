"""Every name a library module imports is referenced in that module, every
module-level private name is referenced somewhere in the package, only
`errors.py` raises a size-budget error, so the package keeps one budget, and
a library module imports at module level no third-party module beyond an
allow-list, so `import cutwords` stays cheap, and only `laws.py` names a
random-number constructor, so every seeded draw is keyed by `laws.stream`."""

import ast
import os
import pathlib
import subprocess
import sys

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


RNG_CONSTRUCTORS = {"Philox", "default_rng"}


def rng_constructors_named(source: str) -> list:
    """(line, name) of each name, attribute or imported name in
    RNG_CONSTRUCTORS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", getattr(node, "attr", None))]
        found += [(node.lineno, name) for name in names if name in RNG_CONSTRUCTORS]
    return sorted(found)


def test_guard_sees_rng_constructors():
    src = ("import numpy as np\nfrom numpy.random import Philox as P\n"
           "g = np.random.Generator(np.random.Philox(1))\nr = np.random.default_rng(0)\n"
           "h = default_rng\nx = np.random.Generator\n")
    assert rng_constructors_named(src) == [(2, "Philox"), (3, "Philox"), (4, "default_rng"),
                                           (5, "default_rng")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "laws.py"],
                         ids=lambda p: p.name)
def test_only_laws_constructs_streams(path):
    # a new seeded draw takes its stream from laws.stream, under a new key
    assert rng_constructors_named(path.read_text()) == []


# Third-party modules a library module may import at module level.  Each one
# is paid for by every `import cutwords`, and so by every CLI command:
# scipy.special alone added about 0.3 s and 25 MB.
ALLOWED_THIRD_PARTY = ("numpy",)


def heavy_imports(source: str) -> list:
    """(line, module) of each import that runs when the module is imported
    (any outside a function body), names a module outside the standard
    library and the package, and is not under ALLOWED_THIRD_PARTY;
    `from a import b` names a.b."""
    found, stack = [], [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names = [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
        else:
            names = []
        found += [(line, name) for line, name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {SRC.name}
                  and not any(name == m or name.startswith(m + ".") for m in ALLOWED_THIRD_PARTY)]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += ast.iter_child_nodes(node)
    return sorted(found)


def test_guard_sees_heavy_imports():
    src = ("from __future__ import annotations\nimport os, numpy as np\n"
           "from scipy.special import zeta\nimport scipy.fft\nfrom . import errors\n"
           "from cutwords import laws\nfrom scipy import optimize\nimport scipy.optimize\n"
           "class K:\n    import pandas\ntry:\n    import numba\nexcept ImportError:\n    pass\n"
           "def f():\n    from scipy.optimize import brentq\n")
    assert heavy_imports(src) == [(3, "scipy.special.zeta"), (4, "scipy.fft"), (7, "scipy.optimize"),
                                  (8, "scipy.optimize"), (10, "pandas"), (12, "numba")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_heavy_imports(path):
    assert heavy_imports(path.read_text()) == []


def scipy_loaded_by_import() -> list:
    """The scipy modules that `import cutwords` loads, in a fresh interpreter."""
    code = ("import sys, cutwords\n"
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.split()


def test_import_leaves_out_scipy():
    # the static guard's counterpart at run time
    assert scipy_loaded_by_import() == []


def test_import_leaves_out_scipy_optimize():
    assert "scipy.optimize" not in scipy_loaded_by_import()


def test_import_leaves_out_scipy_fft():
    assert "scipy.fft" not in scipy_loaded_by_import()
