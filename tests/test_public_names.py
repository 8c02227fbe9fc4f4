"""Every public module-level function and class of glekit has a caller, and
every glekit name the docstrings and the README give resolves.

A public name that nothing in ``src/`` or ``tests/`` reads, calls or imports
is code that serves only itself; this check keeps such names from coming
back.  References are read from the syntax trees, so a name that appears only
in a docstring or a comment does not count.

Every ``:func:``, ``:meth:``, ``:class:`` and ``:mod:`` cross-reference in the
glekit sources resolves: a module target imports, and any other target is an
attribute of the referring module or of one of its classes.

The README's backticked dotted names that start with ``glekit``, a glekit
module or a glekit class, such as ``quadratic.ou_fundamental`` or
``MemorySpec.diagonal_rates``, must name an attribute or dataclass field that
exists, so deleting a name also means mending the docs.  Other dotted names,
such as ``run.dt`` or ``manifest.json``, are not glekit's and are skipped.
The README's library example runs as it stands.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import glekit

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


def _resolves(obj, parts: list[str]) -> bool:
    """Whether ``obj.part0.part1...`` exists; the last part may be a dataclass field."""
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        return part in fields and i == len(parts) - 1
    return True


def test_every_glekit_name_in_the_readme_resolves():
    modules = {p.stem: importlib.import_module(f"glekit.{p.stem}") for p in SRC.glob("[!_]*.py")}
    classes = {
        name: obj
        for mod in modules.values()
        for name, obj in vars(mod).items()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
    }
    roots = {"glekit": glekit, **modules, **classes}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme)
    checked = [name for name in dotted if name.split(".")[0] in roots]
    assert checked, "the README names no glekit object; the pattern has gone stale"
    unresolved = [
        name for name in checked if not _resolves(roots[name.split(".")[0]], name.split(".")[1:])
    ]
    assert unresolved == []


def test_every_docstring_cross_reference_resolves():
    checked, unresolved = 0, []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module("glekit" if path.stem == "__init__" else f"glekit.{path.stem}")
        classes = [obj for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__]
        text = path.read_text(encoding="utf-8")
        for role, target in re.findall(r":(func|meth|class|mod):`([\w.]+)`", text):
            checked += 1
            if role == "mod":
                found = importlib.util.find_spec(target) is not None
            else:
                found = any(_resolves(root, target.split(".")) for root in (mod, *classes))
            if not found:
                unresolved.append(f"{path.stem}: :{role}:`{target}`")
    assert checked, "the sources hold no cross-reference; the pattern has gone stale"
    assert unresolved == []


def test_the_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(code, "README.md: Library example", "exec"), {})
