"""Every definition, class member and import in the package is used.

A top-level function or class counts as used when some module of the
package other than `__init__` refers to it outside its own definition, or
when the acceptance gate imports it: re-exporting a name from `__init__`
does not make it live.  A method, property or record field (a name in the
`namedtuple("X", "a b c")` base of a class) counts as used when some module
of the package reads it as an attribute outside its own body, or when the
acceptance gate does.  Names are matched as identifiers, so a use of any
member or definition of the same name counts.  Every record (a class with a
`namedtuple` base) declares `__slots__ = ()`, so no instance has a `__dict__`.
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


def _attribute_reads(node: ast.AST) -> Counter:
    """Attribute names loaded under `node`; assignments to them do not count."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _unused_definitions() -> set[str]:
    """`module.name` of each top-level def or class no other code refers to."""
    modules = {stem: tree for stem, tree in _modules().items() if stem != "__init__"}
    used = sum((_names(tree) for tree in modules.values()), Counter())
    unused = set()
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # references inside its own body (recursion) do not count
                if used[node.name] - _names(node)[node.name] == 0:
                    unused.add(f"{stem}.{node.name}")
    return unused


def _record_fields(cls: ast.ClassDef) -> list[str]:
    """The field names of a `namedtuple("X", "a b c")` base of `cls`."""
    return [name for base in cls.bases
            if isinstance(base, ast.Call) and _names(base.func)["namedtuple"]
            for name in ast.literal_eval(base.args[1]).replace(",", " ").split()]


def _unused_members() -> set[str]:
    """`module.Class.member` of each non-dunder method, property or field that
    neither the package, outside the member's own body, nor the gate reads."""
    modules = _modules()
    read = sum((_attribute_reads(tree) for tree in modules.values()),
               _attribute_reads(ast.parse(ACCEPTANCE.read_text())))
    unused = set()
    for stem, tree in modules.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            members = [(name, None) for name in _record_fields(cls)]
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    members.append((node.name, node))
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    members.append((node.target.id, node))
            for name, node in members:
                own = _attribute_reads(node)[name] if node else 0
                if not (name.startswith("__") and name.endswith("__")) and read[name] == own:
                    unused.add(f"{stem}.{cls.name}.{name}")
    return unused


def _unused_imports() -> set[str]:
    """`module.name` of each name a module imports and never reads; a name
    listed in the module's `__all__` counts as read."""
    unused = set()
    for stem, tree in _modules().items():
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.add(f"{stem}.{name}")
    return unused


def test_every_definition_is_used():
    gate = {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in _unused_definitions()
                  if name.split(".")[1] not in gate) == []


def test_every_class_member_is_read():
    assert sorted(_unused_members()) == []


def test_every_import_is_read():
    assert sorted(_unused_imports()) == []


def test_every_record_declares_empty_slots():
    unslotted = []
    for stem, tree in _modules().items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            slots = [ast.literal_eval(node.value) for node in cls.body
                     if isinstance(node, ast.Assign) and any(
                         isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)]
            if _record_fields(cls) and slots != [()]:
                unslotted.append(f"{stem}.{cls.name}")
    assert unslotted == []
