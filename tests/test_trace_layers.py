"""The benchmark's per-layer tracer names package functions by module and
name; a renamed function would only read 0 in its per-layer metrics."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    """LAYERS from bench/spans.py, read from its source without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for module_name, functions in layers.items():
        module = importlib.import_module(f"cubicperiods.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
