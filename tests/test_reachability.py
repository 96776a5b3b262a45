"""Every function, class and method of the package is reached by what its
commands run: algebra that only the tests call belongs with the tests, as
an oracle in conftest.py.  Every name a module of the package assigns at
top level is read by the package."""

import ast
from pathlib import Path

import cubicperiods
from test_trace_layers import traced_layers

PACKAGE = Path(cubicperiods.__file__).resolve().parent
ENTRY_POINTS = {("cli", "entrypoint")}  # pyproject.toml [project.scripts]
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level def and class and of
    each method that is not a dunder: the interpreter calls dunders, a
    module's __getattr__ (PEP 562) as much as a class's __init__."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("__"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def assignments(tree: ast.Module):
    """Each name a top-level assignment binds, but dunders."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id


# The names and attributes that the modules other than __init__ read.  A
# Load context: an assignment stores its name, and does not count.
READ = {
    node.id if isinstance(node, ast.Name) else node.attr
    for module, tree in TREES.items()
    if module != "__init__"
    for node in ast.walk(tree)
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
}


def test_every_definition_is_reached():
    exempt = {(module, fn) for module, fns in traced_layers().items() for fn in fns}
    exempt |= ENTRY_POINTS
    unreached = [
        f"{module}.{qualified}"
        for module, tree in TREES.items()
        for qualified, name in definitions(tree)
        if name not in READ and (module, name) not in exempt
    ]
    assert not unreached, unreached


def test_every_assigned_name_is_read():
    unread = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for name in assignments(tree)
        if name not in READ
    ]
    assert not unread, unread
