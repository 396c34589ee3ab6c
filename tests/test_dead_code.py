"""Guard against unreachable code in the package.

Every module-level function and class in src/leavitt_ibn, and every
method that is not a dunder, must be referenced somewhere in src/,
tests/ or perfbench/ outside its own definition.  A reference is a name,
an attribute, an imported name, or an identifier inside a string
constant (the benchmark's tracer wraps functions by their string names).
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
    """(name, line) for every reference in one parsed file."""
    skip = {id(c) for c in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                for word in _WORD.findall(node.value):
                    yield word, node.lineno


def _definitions(tree):
    """(name, first line, last line) of each module-level function and
    class, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno


def test_every_package_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    where: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            where.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            # a reference inside the definition itself (recursion) does not count
            if not any(
                p != path or not first <= line <= last for p, line in where.get(name, ())
            ):
                unreferenced.append(f"{path.name}:{first} {name}")
    assert unreferenced == []
