"""Dead names in the package source: a module-level import that nothing
reads, a function local that is assigned and never read, or a module-level
private function, class or constant that no module of the package reads.

Parsed with ``ast``, so nothing is imported or run.  ``__init__.py`` is
skipped, as its imports are the package's re-exports; so are ``from
__future__`` imports and the name ``_``.  A name that a function declares
``nonlocal`` or ``global`` counts as read, as its binding outlives the
call.  A private name (one leading underscore; dunders are exempt) counts
as read when any module of the package loads it, imports it or reads it
as an attribute; the tests reading it do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toroidal"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _loads(tree) -> set[str]:
    """Names read anywhere under ``tree``, nested scopes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            out.update(node.names)
    return out


def _import_names(node) -> list[str]:
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _stores(func) -> list[tuple[int, str]]:
    """(line, name) of each binding in the function's own scope: nested
    functions and classes are scopes of their own."""
    out = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(node.lineno, name) for name in _import_names(node)]
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return out


def dead_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _loads(tree)
    dead = [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _import_names(node)
        if name not in read
    ]
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read_here = _loads(func)
            dead += [(line, name) for line, name in _stores(func) if name not in read_here]
    return sorted(f"{path.name}:{line} {name}" for line, name in dead if name != "_")


def test_no_unread_imports_or_locals():
    assert [d for p in MODULES for d in dead_names(p)] == []


def _private_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each module-level function, class or constant whose
    name is private but not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (t.lineno, t.id) for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
    return [(line, name) for line, name in out if name[:1] == "_" and name[:2] != "__"]


def unread_private_names() -> list[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    read = set()
    for tree in trees.values():
        read |= _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(
        f"{p.name}:{line} {name}"
        for p, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    )


def test_no_unread_private_module_names():
    assert unread_private_names() == []


KERNEL = {"_planar", "_lr_planar", "_planar_cache"}


def kernel_reads() -> list[str]:
    """Each place outside ``planarity.py`` that loads, imports or reads as
    an attribute a name of the planarity kernel."""
    out = []
    for p in ALL_MODULES:
        if p.name == "planarity.py":
            continue
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
            else:
                continue
            out += [f"{p.name}:{node.lineno} {name}" for name in names if name in KERNEL]
    return out


def test_the_kernel_stays_in_planarity():
    # every other module asks planarity through is_planar or planar_edges
    assert kernel_reads() == []
