"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each layer and rebinds every name
under which a package module holds them (`from .arith import moebius` makes
`periods.moebius` one such name), so no file of the package changes.  Each
call appends a span (name, start, end, parent, op id, raised) to an
in-memory list; self time, coverage and per-layer counts are derived from
that list after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable
from pathlib import Path

# module -> public functions traced, in pipeline order.
LAYERS = {
    "arith": ("validate_conductor", "factorize", "moebius"),
    "quadform": ("representations", "shanks_params"),
    "cubicpoly": ("period_poly_formula", "verify_main_identity"),
    "periods": (
        "primitive_cubic_kernels",
        "gaussian_periods",
        "match_fields",
        "numeric_period_poly",
        "verify_period_relation",
        "verify_sign_congruences",
        "verify_kernel_character",
    ),
    "eisenstein": ("character_for_representation", "chi9_gauss_sum_report"),
    "groupring": ("verify_generators",),
    "report": ("render_report",),
    "cli": ("main", "verify_report"),
}
SPAN_NAMES = tuple(f"{m}.{fn}" for m, fns in LAYERS.items() for fn in fns)
ROOT = "cli.main"
TERMS = "periods.gaussian_periods"  # also counts the residues it sums


def _kernel_terms(args: tuple, kwargs: dict) -> int:
    """Residues summed by gaussian_periods(f, kernel): the kernel and its two cosets."""
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel", ())
    return 3 * len(kernel)


class Tracer:
    """Wraps the traced functions of one package; install() and uninstall()
    switch the wrappers in and out of every module namespace."""

    def __init__(self, package: str) -> None:
        self.spans: list[list] = []  # [name index, start, end, parent, op, raised]
        self.terms = 0  # computed at the call boundary of TERMS
        self.origin: dict[int, tuple[str, str]] = {}  # op -> (exception class, span)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for index, name in enumerate(SPAN_NAMES):
            module_name, fn_name = name.split(".")
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._bindings.append((m, attr, original, wrapper))

    def _wrap(self, index: int, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = SPAN_NAMES[index]
        count_terms = name == TERMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_terms:
                self.terms += _kernel_terms(args, kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = True
                if exc is not self._last_exc:
                    # The innermost span sees an exception first.
                    self._last_exc = exc
                    self.origin[self.op] = (type(exc).__name__, name)
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-span-name self time, calls and failures, plus coverage: the
        share of root (op) time that the root's child spans account for."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0, "failures": 0} for name in SPAN_NAMES}
        root_time = covered = 0.0
        for i, (index, start, end, parent, _, raised) in enumerate(self.spans):
            entry = out[SPAN_NAMES[index]]
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
            entry["failures"] += raised
            if parent < 0 and SPAN_NAMES[index] == ROOT:
                root_time += end - start
                covered += child[i]
        out["coverage"] = covered / root_time if root_time else 0.0
        return out

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text, one line per span."""
        with path.open("w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\traised\n")
            for i, (index, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{parent}\t{op}\t{SPAN_NAMES[index]}\t{start:.9f}\t{end:.9f}\t{int(raised)}\n"
                )
