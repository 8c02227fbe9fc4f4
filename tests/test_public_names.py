"""Every public module-level function and class of glekit has a caller.

A public name that nothing in ``src/`` or ``tests/`` reads, calls or imports
is code that serves only itself; this check keeps such names from coming
back.  References are read from the syntax trees, so a name that appears only
in a docstring or a comment does not count.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "glekit"


def _referenced_names() -> set[str]:
    """Names loaded, attributes read and names imported anywhere in src/ and tests/."""
    names = set()
    for path in [*SRC.glob("*.py"), *(REPO / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_and_class_is_referenced():
    referenced = _referenced_names()
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unreferenced == []
