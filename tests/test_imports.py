"""Modules of the package use each other's public names only: a private
(underscore) name imported across modules is an implementation detail the
importing module comes to depend on.  And they import nothing but the
standard library, numpy and each other, the package's whole run-time
dependency list.  Every exception class has a job: some module raises it,
catches it by type or reports it by name, and each exit family has at
most one leaf that is only ever raised."""

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



def _names(node) -> set:
    """The class names an exception expression refers to."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return set()


def _error_uses(errors: Path, modules: list) -> dict:
    """For each class defined in `errors`, (its family, how `modules` read
    it): "raised", "caught" by type, or "reported", built inside a function
    named `validate`, whose report prints each failure's class name.  A
    family is the child of the root class the class descends from."""
    parent = {node.name: _names(node.bases[0]).pop()
              for node in ast.parse(errors.read_text()).body
              if isinstance(node, ast.ClassDef)}
    uses = {name: set() for name in parent}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found, how = _names(node.exc), "raised"
            elif isinstance(node, ast.ExceptHandler) and node.type:
                found, how = _names(node.type), "caught"
            elif isinstance(node, ast.FunctionDef) and node.name == "validate":
                found = {name for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         for name in _names(call.func)}
                how = "reported"
            else:
                continue
            for name in found & set(uses):
                uses[name].add(how)

    def family(name):
        while parent.get(parent[name]) in parent:
            name = parent[name]
        return name

    return {name: (family(name), how) for name, how in uses.items()}


def _error_offenders(errors: Path, modules: list) -> dict:
    """The classes nothing reads, and per family the leaves that are only
    raised when there is more than one: the CLI tells errors apart by
    family alone, so a second raise-only leaf is a name with no job."""
    uses = _error_uses(errors, modules)
    raise_only = {}
    for name, (fam, how) in uses.items():
        if how == {"raised"}:
            raise_only.setdefault(fam, []).append(name)
    return {"unread": [name for name, (_, how) in uses.items() if not how],
            "raise_only": {fam: names for fam, names in raise_only.items()
                           if len(names) > 1}}


def test_every_error_class_has_a_reader():
    modules = [path for path in sorted(SRC.glob("*.py"))
               if path.name != "errors.py"]
    assert _error_offenders(SRC / "errors.py", modules) == {
        "unread": [], "raise_only": {}}


def test_the_scan_sees_error_classes_without_a_job(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class Root(Exception): pass\n"
                      "class A(Root): pass\nclass B(A): pass\n"
                      "class C(A): pass\nclass D(A): pass\n"
                      "class E(A): pass\nclass F(Root): pass\n"
                      "class G(F): pass\n")
    module = tmp_path / "m.py"
    module.write_text("from . import errors\n"
                      "def f():\n"
                      "    try:\n"
                      "        raise errors.B('b')\n"
                      "    except (Root, errors.C):\n"
                      "        raise G('g')\n"
                      "def validate():\n"
                      "    return [D('d')]\n"
                      "def g():\n"
                      "    raise E('e') from None\n"
                      "A('built, never raised')\n")
    assert _error_offenders(errors, [module]) == {
        "unread": ["A", "F"], "raise_only": {"A": ["B", "E"]}}
