"""Every name a module of the package imports is used in that module.

`__init__.py` is left out: its imports are the package's re-exports."""

import ast
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
