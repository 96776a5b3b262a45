"""Every function, class and method of the package is reached by what its
commands run: algebra that only the tests call belongs with the tests, as
an oracle in conftest.py."""

import ast
from pathlib import Path

import cubicperiods
from test_trace_layers import traced_layers

PACKAGE = Path(cubicperiods.__file__).resolve().parent
ENTRY_POINTS = {("cli", "entrypoint")}  # pyproject.toml [project.scripts]


def definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level def and class and of
    each method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items()
        if module != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exempt = {(module, fn) for module, fns in traced_layers().items() for fn in fns}
    exempt |= ENTRY_POINTS
    unreached = [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in definitions(tree)
        if name not in referenced and (module, name) not in exempt
    ]
    assert not unreached, unreached
