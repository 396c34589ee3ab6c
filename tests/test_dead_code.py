"""Guard against unreachable code in the package.

Every module-level function and class in src/leavitt_ibn, and every
method that is not a dunder, must be referenced somewhere in src/,
tests/ or perfbench/ outside its own definition.  A reference to a
module-level name is a name, an attribute, an imported name, or an
identifier inside a string constant (the benchmark's tracer wraps
functions by their string names).  A method is reached only through an
attribute (x.name) or a string constant, so a local variable or a
parameter that happens to share its spelling does not count.
Docstrings do not count: a docstring that mentions a function does not
call it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leavitt_ibn"
SEARCHED = ("src", "tests", "perfbench")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree):
    """(name, line, reaches_methods) for every reference in one parsed
    file; reaches_methods is False for bare and imported names."""
    skip = {id(c) for c in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                for word in _WORD.findall(node.value):
                    yield word, node.lineno, True


def _definitions(tree):
    """(name, first line, last line, is_method) of each module-level
    function and class, and of each non-dunder method of a module-level
    class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno, True


def test_every_package_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    where: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, reaches_methods in _references(tree):
            where.setdefault(name, []).append((path, line, reaches_methods))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last, is_method in _definitions(trees[path]):
            # a reference inside the definition itself (recursion) does not count
            if not any(
                (p != path or not first <= line <= last) and (reaches or not is_method)
                for p, line, reaches in where.get(name, ())
            ):
                unreferenced.append(f"{path.name}:{first} {name}")
    assert unreferenced == []
