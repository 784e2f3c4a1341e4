"""Modules of the package use each other's public names only: a private
(underscore) name imported across modules is an implementation detail the
importing module comes to depend on.  And they import nothing but the
standard library, numpy and each other, the package's whole run-time
dependency list."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normality_lab"


def _is_private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder


def _private_imports(path: Path) -> list:
    """(line, imported name) of every private name `path` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names if _is_private(name)]
    return found


def test_no_private_name_is_imported_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: hits for path in modules
                 if (hits := _private_imports(path))}
    assert offenders == {}


def test_the_scan_sees_private_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "from .sampling import _log2, digits\n"
                      "import pkg._impl\n")
    assert _private_imports(module) == [(2, "_log2"), (3, "_impl")]


def _foreign_imports(path: Path) -> list:
    """(line, top-level module) of every import in `path` (nested ones
    included) from outside the standard library, numpy and the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "normality_lab"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            tops = [] if node.level else [node.module.split(".")[0]]
        elif isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        else:
            continue
        found += [(node.lineno, top) for top in tops if top not in allowed]
    return sorted(found)


def test_only_the_standard_library_and_numpy_are_imported():
    offenders = {path.name: hits for path in sorted(SRC.glob("*.py"))
                 if (hits := _foreign_imports(path))}
    assert offenders == {}


def test_the_scan_sees_foreign_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path, numpy as np\n"
                      "from . import ifs\n"
                      "def f():\n"
                      "    import sympy\n"
                      "from mpmath import mpf\n")
    assert _foreign_imports(module) == [(5, "sympy"), (6, "mpmath")]
