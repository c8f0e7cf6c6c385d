"""Dead-name guard: every top-level function and class in ``src/physrec``,
and every method of such a class, is named somewhere other than its own
definition in ``src/``, ``tests/`` or ``perfbench/``.

Names count when they appear as a variable, an attribute, an imported
name or a string constant (the benchmark's tracer looks functions up by
string).  Dunder methods are called implicitly and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(qualified name, node) of top-level definitions and of the
    non-dunder methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    referenced = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced.update(_references(_parse(path)))
    dead = [
        f"{path.name}:{qual}"
        for path in sorted((ROOT / "src" / "physrec").glob("*.py"))
        for qual, node in _definitions(_parse(path))
        if node.name not in referenced
    ]
    assert not dead, f"defined but never referenced: {dead}"
