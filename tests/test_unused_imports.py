"""Every module-level import and definition in the package is used.

No linter ships with the test dependencies, so these are small `ast`
checks.  A name bound by a top-level `import` or `from ... import` must be
referenced somewhere in its module; `__init__.py` is skipped because its
imports are the public re-exports.  A top-level function or class must be
re-exported by `__init__.py` or referenced somewhere in the package.  A
call from its own body counts: the elementwise dual-number functions
(`duals.tanh`) recurse onto the value lane and are otherwise called only
from user-written fields.
"""

import ast
from pathlib import Path

import pytest

import ncplane

PACKAGE = Path(ncplane.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def unreferenced_definitions(sources: dict, init_source: str) -> list[str]:
    """Top-level defs and classes of sources (module name -> text) that
    init_source does not import and no module reads, bare (f) or as an
    attribute (mod.f)."""
    exported = {alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    return sorted(f"{mod}.{node.name} (line {node.lineno})"
                  for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in exported | read)


def test_checker_flags_an_unused_name():
    src = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(src) == ["math (line 1)", "s (line 2)"]


def test_checker_flags_an_unreferenced_definition():
    sources = {
        "a": ("def public():\n    _dead = 0\n    return _helper()\n\n"
              "def _helper():\n    return 1\n\n"
              "def _dead():\n    pass\n\n"
              "class Used:\n    pass\n\n"
              "class Unused:\n    pass\n"),
        "b": ("from . import a\n\ndef exported():\n    return a.Used\n\n"
              "def _orphan():\n    return a._helper()\n"),
    }
    init = "from .a import public\nfrom .b import exported as e\n"
    assert unreferenced_definitions(sources, init) == [
        "a.Unused (line 14)", "a._dead (line 8)", "b._orphan (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_has_no_unreferenced_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreferenced_definitions(sources, init) == []
