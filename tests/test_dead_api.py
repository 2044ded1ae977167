"""Every top-level function and class in the package is used.

A name counts as used when some module of the package other than
`__init__` refers to it outside its own definition, or when the acceptance
gate imports it: re-exporting a name from `__init__` does not make it live.
Names are matched as identifiers, so a method or attribute that shares a
name with a definition counts as a use of it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "extremal_lab"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _names(node: ast.AST) -> Counter:
    """Identifiers read under `node`: plain names, attributes and imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _unused_definitions() -> set[str]:
    """`module.name` of each top-level def or class no other code refers to."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = sum((_names(tree) for tree in modules.values()), Counter())
    unused = set()
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # references inside its own body (recursion) do not count
                if used[node.name] - _names(node)[node.name] == 0:
                    unused.add(f"{stem}.{node.name}")
    return unused


def test_every_definition_is_used():
    gate = {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in _unused_definitions()
                  if name.split(".")[1] not in gate) == []
