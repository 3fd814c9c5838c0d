"""Every module-level import in the package is used by its module.

No linter ships with the test dependencies, so this is a small `ast`
check: a name bound by a top-level `import` or `from ... import` must be
referenced somewhere in the module.  `__init__.py` is skipped because its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import ncplane

MODULES = sorted(p for p in Path(ncplane.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


def test_checker_flags_an_unused_name():
    src = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(src) == ["math (line 1)", "s (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
