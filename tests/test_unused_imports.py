"""Every import and module-level definition in the package is used.

No linter ships with the test dependencies, so these are small `ast`
checks.  A name bound by an `import` or `from ... import` must be
referenced in its scope: the module for a top-level import, the function
for one inside a function (the CLI commands import what they run);
`__init__.py` is skipped because it only holds the export table.  A
top-level function or class must be read in its own module, imported by
name from it (`from .m import f`, at any depth), named in the `_EXPORTS`
table of `__init__.py` or read as an attribute of its module (`m.f`).  A
read from its own body does not count, so recursion alone keeps nothing.
A parameter with a default, on a top-level function or a method, must be
passed by position or keyword at some production call: in the package,
`perfbench/*.py` or the README's library tour.  A knob that only a test
turns belongs in a module constant.  A name bound by a top-level
assignment in the package must be read somewhere in the package, the
tests or the benchmark harness (`__version__` excepted).

Exports and methods must have a caller outside the tests.  The production
texts are the package modules, `perfbench/*.py` and the README's library
tour; in `perfbench/*.py` an identifier string constant counts as a read,
since that is how the tracer names what it wraps.  Every name in the
`_EXPORTS` table of `__init__.py`, and every method or property (dunders
aside) of a top-level class, must be read in those texts.

The front ends, `cli.py` and `selftest.py`, read only public names of the
other modules: a verification they need has one public home.
"""
import ast
import math
import re
from collections import defaultdict
from pathlib import Path

import pytest

import ncplane

PACKAGE = Path(ncplane.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a module's or function's body, not those of the
    functions nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that their scope never references: the
    module for a top-level import, the function for a nested one."""
    tree = ast.parse(source)
    out = []
    for scope in [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, _SCOPES))]:
        bound = {}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        out += [f"{name} (line {line})" for name, line in bound.items()
                if name not in used]
    return sorted(out)


def exports(init_source: str) -> dict:
    """The `_EXPORTS` table of init_source: module -> exported names."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS table in __init__.py")


def unreferenced_definitions(sources: dict, init_source: str) -> list[str]:
    """Top-level defs and classes of sources (module name -> text) that no
    module reads: not bare in their own module (f), not imported by name
    from it (from .m import f, at any depth), not in the export table of
    init_source and not as an attribute of its name (m.f).  A definition's
    reads of itself, from its own body, do not count."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for mod, tree in trees.items():
        for top in tree.body:
            here = set()
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    here.add((mod, n.id))
                elif (isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Load)
                      and isinstance(n.value, ast.Name)):
                    here.add((n.value.id, n.attr))
                elif isinstance(n, ast.ImportFrom):
                    here |= {((n.module or "").rpartition(".")[2], alias.name)
                             for alias in n.names}
            read |= here - {(mod, getattr(top, "name", None))}
    read |= {(mod, name) for mod, names in exports(init_source).items()
             for name in names}
    return sorted(f"{mod}.{node.name} (line {node.lineno})"
                  for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and (mod, node.name) not in read)


def _reads(text: str, strings: bool = False) -> set:
    """Names text loads, bare (f) or as an attribute (x.f); with strings,
    also every string constant that is an identifier."""
    out = set()
    for n in ast.walk(ast.parse(text)):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(
                n.ctx, ast.Load):
            out.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and n.value.isidentifier()):
            out.add(n.value)
    return out


def unread_exports(init_source: str, reads: set) -> list[str]:
    """Names in the export table of init_source that are not in reads."""
    return sorted(f"{mod}.{name}" for mod, names in
                  exports(init_source).items()
                  for name in names if name not in reads)


def unread_methods(sources: dict, reads: set) -> list[str]:
    """Methods and properties, dunders aside, of the top-level classes in
    sources (module name -> text) whose names are not in reads."""
    return sorted(f"{mod}.{cls.name}.{fn.name} (line {fn.lineno})"
                  for mod, text in sources.items()
                  for cls in ast.parse(text).body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and fn.name not in reads)


def production_reads() -> set:
    """Names the package, perfbench/*.py and the README's library tour
    read; perfbench's identifier strings count too."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reads = set()
    for text in [p.read_text(encoding="utf-8") for p in MODULES] + \
            re.findall(r"```python\n(.*?)```", readme, re.S):
        reads |= _reads(text)
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        reads |= _reads(p.read_text(encoding="utf-8"), strings=True)
    return reads


def _calls(texts) -> dict:
    """Callee name -> [(positional count, keyword names)] over texts; a
    starred argument passes every position, a ** every keyword (None)."""
    calls = defaultdict(list)
    for text in texts:
        for n in ast.walk(ast.parse(text)):
            if not isinstance(n, ast.Call) or not isinstance(
                    n.func, (ast.Name, ast.Attribute)):
                continue
            name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            star = any(isinstance(a, ast.Starred) for a in n.args)
            calls[name].append((math.inf if star else len(n.args),
                                {k.arg for k in n.keywords}))
    return calls


def unpassed_defaults(sources: dict, callers: list) -> list[str]:
    """Defaulted parameters of the top-level functions and methods in
    sources (module name -> text) that no call in callers (texts) passes.
    A call matches by callee name, bare or attribute, or by a name a
    top-level `alias = callee` binds; a class name stands for its __init__,
    other dunder methods are skipped, and a method's positions start after
    self."""
    calls = _calls(callers)
    defs = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and isinstance(node.value,
                                                           ast.Name):
                calls[node.value.id] += [c for t in node.targets
                                         if isinstance(t, ast.Name)
                                         for c in calls[t.id]]
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef) or (
                            fn.name.startswith("__") and fn.name != "__init__"):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    callee = node.name if fn.name == "__init__" else fn.name
                    defs.append((f"{mod}.{node.name}.{fn.name}", callee, fn,
                                 0 if static else 1))
    out = []
    for label, callee, fn, skip in defs:
        a = fn.args
        pos = a.posonlyargs + a.args
        wanted = [(i - skip, p.arg) for i, p in enumerate(pos)
                  if i >= len(pos) - len(a.defaults)]
        wanted += [(math.inf, p.arg) for p, d in zip(a.kwonlyargs,
                                                     a.kw_defaults)
                   if d is not None]
        out += [f"{label}({arg}) (line {fn.lineno})" for i, arg in wanted
                if not any(n > i or arg in kw or None in kw
                           for n, kw in calls[callee])]
    return sorted(out)


def unread_assignments(sources: dict, readers: list) -> list[str]:
    """Names bound by a top-level assignment in sources (module name ->
    text) that no text in readers loads, bare (X) or as an attribute
    (mod.X); `__version__` is exempt."""
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for text in readers for n in ast.walk(ast.parse(text))
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    out = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            out += [f"{mod}.{n.id} (line {node.lineno})"
                    for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                    and n.id not in read | {"__version__"}]
    return sorted(out)


def private_reads(source: str) -> list[str]:
    """Underscore-prefixed names source takes from sibling modules: bound
    by `from .m import _f` or read as `m._f` after `from . import m`, at
    the top of the module or inside a function."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level]
    mods = {a.asname or a.name for n in imports if not n.module
            for a in n.names}
    out = [f"{n.module}.{a.name} (line {n.lineno})" for n in imports
           if n.module for a in n.names if a.name.startswith("_")]
    out += [f"{n.value.id}.{n.attr} (line {n.lineno})" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in mods and n.attr.startswith("_")]
    return sorted(out)


def test_checker_flags_an_unused_name():
    src = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(src) == ["math (line 1)", "s (line 2)"]
    # b is read in g, but f binds it and never reads it
    src = ("import json\n\ndef f():\n    from . import a, b\n    return a\n\n"
           "def g():\n    from .c import d\n    return json, b\n")
    assert unused_imports(src) == ["b (line 4)", "d (line 8)"]


def test_checker_flags_an_unreferenced_definition():
    sources = {
        "a": ("def public():\n    _dead = 0\n    return _helper()\n\n"
              "def _helper():\n    return 1\n\n"
              "def _dead():\n    pass\n\n"
              "class Used:\n    pass\n\n"
              "class Unused:\n    pass\n\n"
              "def twin():\n    pass\n"),
        "b": ("from . import a\n\n"
              "def exported():\n    from .c import taken\n"
              "    return a.Used, taken, twin, x.Unused\n\n"
              "def _orphan():\n    return a._helper()\n\n"
              "def twin():\n    pass\n"),
        "c": "def taken():\n    pass\n",
    }
    init = '_EXPORTS = {"a": ("public",), "b": ("exported",)}\n'
    # a.twin shares its name with b.twin, which b reads; x is not a module
    assert unreferenced_definitions(sources, init) == [
        "a.Unused (line 14)", "a._dead (line 8)", "a.twin (line 17)",
        "b._orphan (line 7)"]


def test_checker_flags_a_self_recursive_definition():
    sources = {"a": ("from . import a\n\n"
                     "def fact(n):\n    return n * fact(n - 1) if n else 1\n\n"
                     "def twice(n):\n    return a.twice(n - 1) if n else 0\n\n"
                     "def even(n):\n    return not n or odd(n - 1)\n\n"
                     "def odd(n):\n    return bool(n) and even(n - 1)\n\n"
                     "even(4)\n")}
    # recursion alone keeps nothing; a read from another definition or
    # from the module's top level does
    assert unreferenced_definitions(sources, "_EXPORTS = {}\n") == [
        "a.fact (line 3)", "a.twice (line 6)"]


def test_checker_flags_an_unread_export():
    init = ("import importlib\n\n"
            "_EXPORTS = {\n    'a': ('f', 'g', 'k'),\n"
            "    'b': ('Tracked', 'C'),\n}\n"
            "__all__ = [n for names in _EXPORTS.values() for n in names]\n")
    reads = _reads("f()\nx.C\nm\n") | _reads("T = ('Tracked', 'k j')\n",
                                              strings=True)
    assert "k j" not in reads and "k" not in reads
    assert unread_exports(init, reads) == ["a.g", "a.k"]
    # re-exports by import are no table: the guard cannot pass vacuously
    with pytest.raises(AssertionError, match="no _EXPORTS table"):
        unread_exports("from .a import f, g\n", reads)


def test_checker_flags_an_unread_method():
    source = ("class A:\n"
              "    def __init__(self):\n        pass\n\n"
              "    def used(self):\n        return self._private()\n\n"
              "    def _private(self):\n        pass\n\n"
              "    @property\n    def shown(self):\n        pass\n\n"
              "    def traced(self):\n        pass\n\n"
              "    def dead(self):\n        pass\n\n"
              "def free():\n    pass\n")
    reads = (_reads(source) | _reads("A().used(); a.shown\n")
             | _reads("S = ('A', 'traced')\n", strings=True))
    assert unread_methods({"a": source}, reads) == ["a.A.dead (line 18)"]


def test_checker_flags_a_private_read():
    src = ("from . import a, b as c\nfrom .d import _e, f\nimport g\n"
           "a._h(c._i, a.j, g._k, self._l, _e, f)\n\n"
           "def cmd():\n    from . import m\n    from .n import _o\n"
           "    return m._p, _o\n")
    assert private_reads(src) == ["a._h (line 4)", "c._i (line 4)",
                                  "d._e (line 2)", "m._p (line 9)",
                                  "n._o (line 8)"]


def test_checker_flags_an_unpassed_default():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
              "def g(a=1):\n    pass\n\n"
              "class K:\n"
              "    def __init__(self, a, b=1):\n        pass\n\n"
              "    def m(self, a=1, b=2):\n        pass\n\n"
              "    @staticmethod\n    def s(a=1):\n        pass\n\n"
              "    def __call__(self, a=1):\n        pass\n")
    callers = [source + "f(0, 1)\nf(0, d=5)\ng(*[1])\nK(0)\n"
                        "K(0).m(1)\nK.s(**{})\n"]
    assert unpassed_defaults({"a": source}, callers) == [
        "a.K.__init__(b) (line 8)", "a.K.m(b) (line 11)",
        "a.f(c) (line 1)"]


def test_checker_flags_an_unread_assignment():
    sources = {"a": ("_N = 4\n_DIM = 10\nX, (Y, Z) = 1, (2, 3)\n"
                     "T: int = 0\n__version__ = '1'\n"
                     "def f():\n    _local = _N\n    return _local\n")}
    readers = [sources["a"], "print(X, a.Z)\n"]
    assert unread_assignments(sources, readers) == [
        "a.T (line 4)", "a.Y (line 3)", "a._DIM (line 2)"]


@pytest.mark.parametrize("name", ("cli.py", "selftest.py"))
def test_front_end_reads_no_private_name_of_another_module(name):
    assert private_reads((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_has_no_unreferenced_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreferenced_definitions(sources, init) == []


def test_every_export_is_read_outside_the_tests():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_exports(init, production_reads()) == []


def test_every_method_is_read_outside_the_tests():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_methods(sources, production_reads()) == []


def test_every_default_is_passed_somewhere():
    """Every defaulted parameter is passed by some production caller: the
    package, perfbench/*.py or the README's library tour, not a test."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    callers = [p.read_text(encoding="utf-8")
               for p in [*sorted(PACKAGE.glob("*.py")),
                         *sorted((ROOT / "perfbench").glob("*.py"))]]
    callers += re.findall(r"```python\n(.*?)```", readme, re.S)
    assert unpassed_defaults(sources, callers) == []


def test_every_module_assignment_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
               for p in sorted(d.rglob("*.py"))]
    assert unread_assignments(sources, readers) == []
