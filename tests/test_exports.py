"""Every name exported by ``trkalian`` has a user outside the tests.

A user is a reference in a ``src/trkalian`` module other than the name's own
``def``, ``class`` or assignment (references inside its own body do not
count), or a reference under ``perfbench/``, where the tracer also patches
functions by their names as strings.  Importing a name is not using it.
"""

import ast
import inspect
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


# Defaulted parameters that no call outside the tests sets, each with the
# reason it stays a parameter rather than a constant.
UNSET_DEFAULTS = {
    "rbs_apply.dc_tol": "numeric grids carry quadrature DC noise (tests/test_rbs.py)",
    "BoxQuadrature.n_per_axis": "the box rule's resolution is open (ROADMAP item 9)",
}


def exported_callables() -> dict:
    """Each exported callable once, by its own name (an alias such as
    ``box_quadrature`` names the class ``BoxQuadrature``)."""
    import trkalian
    objects = {}
    for name in sorted(exported_names()):
        obj = getattr(trkalian, name)
        if callable(obj):
            objects[obj.__name__] = obj
    return objects


def calls() -> list:
    """(callee name, node) of every call in a library module outside the
    callee's own top-level statement, and of every call under ``perfbench/``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            found += [(name, node) for name, node in _calls_under(stmt) if name not in own]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        found += _calls_under(ast.parse(path.read_text()))
    return found


def _calls_under(tree) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                out.append((name, node))
    return out


def parameters(fn) -> list:
    """The parameters of ``fn``; none for the warning classes, whose
    signature is the builtin one of their base."""
    try:
        return list(inspect.signature(fn).parameters.values())
    except ValueError:
        return []


def set_parameters(fn, node) -> set:
    """Names of the parameters of ``fn`` that the call ``node`` passes."""
    params = parameters(fn)
    if any(kw.arg is None for kw in node.keywords):  # **kwargs may set any of them
        return {p.name for p in params}
    starred = any(isinstance(a, ast.Starred) for a in node.args)
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    passed = set(positional if starred else positional[:len(node.args)])
    return passed | {kw.arg for kw in node.keywords}


def test_every_default_is_set_outside_the_tests():
    import trkalian
    objects = exported_callables()
    set_by_calls = set()
    for name, node in calls():
        fn = getattr(trkalian, name, None)
        if fn is not None and callable(fn) and fn.__name__ in objects:
            set_by_calls |= {f"{fn.__name__}.{p}" for p in set_parameters(fn, node)}
    defaulted = {f"{name}.{p.name}" for name, fn in objects.items()
                 for p in parameters(fn) if p.default is not p.empty}
    unset = sorted(defaulted - set_by_calls - set(UNSET_DEFAULTS))
    assert not unset, f"defaulted parameters only the tests set: {unset}"
    assert set(UNSET_DEFAULTS) <= defaulted - set_by_calls, "an allowlisted default is now set"
