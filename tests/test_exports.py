"""Every name exported by ``trkalian`` has a user outside the tests.

A user is a reference in a ``src/trkalian`` module other than the name's own
``def``, ``class`` or assignment (references inside its own body do not
count), or a reference under ``perfbench/``, where the tracer also patches
functions by their names as strings.  Importing a name is not using it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trkalian"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def references(node) -> set:
    """Names read, attributes read and string constants under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def used_names() -> set:
    """Names referenced by some top-level statement of a library module other
    than their own definition, and by any code under ``perfbench/``."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            used |= references(stmt) - own
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= references(ast.parse(path.read_text()))
    return used


def test_every_export_has_a_user_outside_the_tests():
    unused = sorted(exported_names() - used_names())
    assert not unused, f"exported but used only by tests: {unused}"
