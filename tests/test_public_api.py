"""Every public name has a caller.

A name in a module's __all__ must be used somewhere in the package or in
the acceptance suite: as a name, an attribute or an import.  A public
function that only its own tests call is dead weight; wire it in or delete
it together with its tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grazekit").glob("*.py"))
USERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"]


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


def test_every_public_name_has_a_caller():
    used = set()
    for path in USERS:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    orphans = [f"{path.stem}.{name}" for path in SOURCES
               for name in public_names(ast.parse(path.read_text(
                   encoding="utf-8")))
               if name not in used]
    assert orphans == []
