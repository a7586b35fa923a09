"""Every name a module of the package or of the tests imports is used in
that module, every function of the package, at module level or a method of a
module-level class, is used somewhere in it: a private one anywhere in the
package, a public one in a module other than `__init__`, and every
parameter of a function or method of the package is read in its body.  A
function that only the tests reach lives in the tests.  Dunder methods are
left out of the parameter scan, since their protocols fix their signatures.

`__init__.py` is left out of the import scan: its imports are the package's
re-exports.  Importing the CLI in a fresh interpreter loads, outside the
package, only what its commands run on (`CLI_IMPORTS`).

The scan matches by name, not by binding: a method counts as referenced
whenever any function or method of the same name is referenced.  So a dead
method whose name another class also uses escapes it; `Conflation.describe`
(masked by `Context.describe`) and `Representation.is_zero` (masked by
`ModuleMap.is_zero`) did."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import quivertilt

PACKAGE = Path(quivertilt.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
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
    # Names inside string annotations, such as -> "ModuleMap".
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [args.vararg and args.vararg.annotation,
                            args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for const in ast.walk(ann):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    expr = ast.parse(const.value, mode="eval")
                    used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any\nx: Any = 1\n") == ["os (line 1)"]
    assert _unused_imports("from m import A\ndef f() -> 'A': pass\n") == []
    assert _unused_imports("from m import A\nx = 'A'\n") == ["A (line 1)"]


def test_no_unused_imports_in_the_package():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_no_unused_imports_in_the_tests():
    unused = {
        path.name: found
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _dead_functions(sources: dict[str, str], public: bool = False) -> list[str]:
    """Functions named `_name` (not dunder), or with public set those whose
    name has no leading underscore, at module level or methods of a
    module-level class, that no code of the given modules refers to outside
    the bodies of the functions of that name (a method and its overrides
    count as one)."""
    refs = Counter()
    defs = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
        scopes = [(module, tree.body)] + [(f"{module}.{node.name}", node.body) for node in tree.body
                                          if isinstance(node, ast.ClassDef)]
        defs += [(scope, node) for scope, body in scopes for node in body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and (not node.name.startswith("_") if public
                      else node.name.startswith("_") and not node.name.startswith("__"))]
    own = Counter()
    for _, node in defs:
        own[node.name] += sum(isinstance(n, ast.Name) and n.id == node.name
                              or isinstance(n, ast.Attribute) and n.attr == node.name
                              for n in ast.walk(node))
    return sorted(f"{scope}.{node.name} (line {node.lineno})" for scope, node in defs
                  if refs[node.name] == own[node.name])


def test_scan_finds_a_dead_private_function():
    live = "def _used(): pass\ndef f(): return _used()\n"
    planted = "def _dead(n):\n    return _dead(n - 1) if n else 0\n"
    assert _dead_functions({"a": live}) == []
    assert _dead_functions({"a": live, "b": planted}) == ["b._dead (line 1)"]
    assert _dead_functions({"a": live, "b": planted, "c": "import b\nb._dead(1)\n"}) == []


def test_scan_finds_a_dead_private_method():
    live = "class A:\n    def _used(self): pass\n    def f(self): return self._used()\n"
    planted = "class B:\n    def _dead(self, n):\n        return self._dead(n - 1) if n else 0\n"
    override = "class C(B):\n    def _dead(self, n): return n\n"
    assert _dead_functions({"a": live}) == []
    assert _dead_functions({"a": live, "b": planted}) == ["b.B._dead (line 2)"]
    assert _dead_functions({"a": live, "b": planted, "c": override}) == [
        "b.B._dead (line 2)", "c.C._dead (line 2)"]
    calls = "def g(b): return b._dead(1)\n"
    assert _dead_functions({"a": live, "b": planted, "c": override, "d": calls}) == []


def test_no_dead_private_functions_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_functions(sources) == []


def test_scan_finds_a_dead_public_function():
    live = "def used(): pass\ndef _f(): return used()\n"
    planted = ("def dead(n):\n    return dead(n - 1) if n else 0\n"
               "class B:\n    def gone(self): return self.gone()\n")
    assert _dead_functions({"a": live}, public=True) == []
    assert _dead_functions({"a": live, "b": planted}, public=True) == ["b.B.gone (line 4)", "b.dead (line 1)"]
    assert _dead_functions({"a": live, "b": planted, "c": "import b\nb.dead(1)\nb.B().gone()\n"},
                           public=True) == []


def _dead_public_in_package(sources: dict[str, str]) -> set[str]:
    """The public functions `_dead_functions` flags, by name, with the
    references in `__init__` left out."""
    found = _dead_functions({m: src for m, src in sources.items() if m != "__init__"}, public=True)
    return {entry.split(" ")[0] for entry in found}


def test_scan_finds_a_dead_public_function_planted_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    sources["orbits"] += "\n\ndef planted(perms):\n    return planted(perms[1:]) if perms else []\n"
    sources["__init__"] += "\nfrom .orbits import planted\n"
    assert _dead_public_in_package(sources) == {"orbits.planted"}


def test_no_dead_public_functions_in_the_package():
    """Every public function is reached from the package itself; one that
    only the tests reach belongs in the tests."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_public_in_package(sources) == set()


def _unused_parameters(source: str) -> list[str]:
    """Parameters of a function or method, at any depth and not a dunder,
    that its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name.startswith("__") and node.name.endswith("__")):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}: {name} (line {node.lineno})" for name in params if name not in read]
    return found


def test_scan_finds_an_unused_parameter():
    assert _unused_parameters("def f(a, *args, b=1, **kw):\n    return a, args, b, kw\n") == []
    assert _unused_parameters("def f(a, b):\n    b = a\n    return a\n") == ["f: b (line 1)"]
    assert _unused_parameters("class A:\n    def __eq__(self, other): return True\n"
                              "    def g(self, x): return self\n") == ["g: x (line 3)"]
    nested = "def f(a):\n    def g(b): return a\n    return g\n"
    assert _unused_parameters(nested) == ["g: b (line 2)"]


def test_scan_finds_an_unused_parameter_planted_in_the_package():
    """The isomorphism test given back the seed it no longer reads."""
    source = (PACKAGE / "decompose.py").read_text()
    planted = source.replace("def indecomposable_isomorphic(a: Representation, b: Representation)",
                             "def indecomposable_isomorphic(a: Representation, b: Representation, seed: int = 0)")
    assert planted != source
    assert [f.split(" (")[0] for f in _unused_parameters(planted)] == ["indecomposable_isomorphic: seed"]


def test_no_unused_parameters_in_the_package():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _unused_parameters(path.read_text()))
    }
    assert unused == {}


def test_cli_import_does_not_load_numpy():
    """numpy is a test dependency only: importing the CLI, in a fresh
    interpreter, loads no module that imports it."""
    code = "import sys, quivertilt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# What importing the CLI may add to a fresh interpreter besides the package:
# the modules its commands run on.  The last six are listed because the
# package imports them, in case startup has not loaded them already.
CLI_IMPORTS = {"argparse", "gettext", "json", "_json", "hashlib", "_hashlib", "_blake2", "__future__",
               "random", "math", "itertools", "functools", "operator", "collections"}


def _unlisted_imports(probe: str) -> list[str]:
    """The modules outside the package, `json`'s submodules and
    `CLI_IMPORTS` that running `probe` adds to `sys.modules` in a fresh
    interpreter."""
    code = f"import sys\nbefore = set(sys.modules)\n{probe}\nprint(' '.join(sorted(set(sys.modules) - before)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.split() if m.split(".")[0] not in ("quivertilt", "json") and m not in CLI_IMPORTS]


def test_cli_import_loads_only_what_it_runs():
    """No record class pulls in `dataclasses`, and with it `inspect`,
    `ast`, `dis`, `tokenize` and `copy`, on every start of the CLI."""
    assert _unlisted_imports("import quivertilt.cli") == []


def test_import_scan_finds_a_planted_import():
    assert "dataclasses" in _unlisted_imports("import dataclasses\nimport quivertilt.cli")
