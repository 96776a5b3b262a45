"""The benchmark's per-layer tracer names package functions by module and
name; a renamed function would only read 0 in its per-layer metrics."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


# LAYERS names that a traced run of each workload never calls: no command
# calls moebius or primitive_cubic_kernels (the library and the tests do),
# and scan calls neither verify_report nor the chi9 report of a field.
UNCALLED = {
    "verify-band": {"arith.moebius", "periods.primitive_cubic_kernels"},
    "scan-small": {
        "arith.moebius",
        "cli.verify_report",
        "eisenstein.chi9_gauss_sum_report",
        "periods.primitive_cubic_kernels",
    },
}


@pytest.mark.parametrize("workload", sorted(UNCALLED))
def test_a_traced_run_counts_every_called_layer(workload):
    # The tracer rebinds only the names that the package's loaded modules
    # hold when it starts, so a layer module that the package imported
    # lazily, after that, would keep its untraced functions and its layers
    # would read 0 calls.
    root = SPANS.parents[1]
    proc = subprocess.run(
        [
            sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    unread = [
        name
        for module, functions in traced_layers().items()
        for name in (f"{module}.{fn}" for fn in functions)
        if name not in UNCALLED[workload] and not metrics[f"{name}.calls"]["value"] > 0
    ]
    assert not unread, unread
    if workload == "verify-band":
        # the certificate of each Jacobi sum factors its group orders, in
        # periods, where the tracer rebinds factorize too
        factorize, validate = (
            metrics[f"arith.{fn}.calls"]["value"] for fn in ("factorize", "validate_conductor")
        )
        assert factorize > validate, (factorize, validate)
