"""What a fresh interpreter loads, runs and allocates, step by step.

    python -S tests/cold_probe.py NAME

runs the steps of COLD[NAME], in order, in this interpreter, prints what
it observes of each step as one line (source, loaded, ran, peak) on stdout
and each step that differs from its row on stderr; it exits 1 if any does.
tests/test_cli.py runs every row this way, and so does the CI golden job,
which reads COLD from this file with ast.literal_eval.  The probe imports
only sys, os and tracemalloc, none of WATCHED, and no module of the
package before a step does.

A step is (source, loaded, ran, peak):
- source: a command line of cubicperiods, run by cli.main with its report
  written to os.devnull and required to exit 0, or else Python, run by
  exec in one namespace for the row;
- loaded: the modules of WATCHED loaded once the step has run, all of
  them, sorted;
- ran: whether periods has run.  The package root registers it as an
  importlib.util._LazyModule, whose class becomes module on its first
  attribute access;
- peak: a bound on the traced peak of the step, in bytes (tracemalloc,
  started after cli is imported for a command line).
"""

import os
import sys
import tracemalloc

# Modules that the commands do not need: the value types are NamedTuples,
# not frozen dataclasses (which import inspect); report.render_json writes
# JSON without the json package; no command imports fractions (which
# imports decimal), as every cubic holds ints; csv, cmath and heapq (which
# only scan's conductors_up_to merges with) are imported only where used;
# --out is written with open(), not pathlib; a well-formed argv is parsed
# without argparse, which imports gettext (and so locale) for its messages
# and shutil for the terminal width, and which only -h and other argvs
# load.  render_json imports _json where it first runs.
UNUSED_ON_THE_COLD_PATH = (
    "argparse", "cmath", "csv", "dataclasses", "decimal",
    "fractions", "gettext", "heapq", "inspect", "json", "locale", "pathlib", "shutil",
)
WATCHED = (*UNUSED_ON_THE_COLD_PATH, "_json")

# the commands of cli.COMMANDS, which the probe does not import before a step
COMMANDS = ("enumerate", "verify", "scan", "table")

COLD = {
    # the package root registers periods without running it; its names
    # resolve through the PEP 562 hook, and the first one runs it
    "package": [
        ("import cubicperiods", (), False, 4_000_000),
        ("assert len(cubicperiods.match_fields(cubicperiods.validate_conductor(819))) == 4",
         (), True, 3_000_000),
        ("assert callable(cubicperiods.verify_generators)", (), True, 1_000_000),
    ],
    # enumerate, the benchmark's set-up op, runs no periods and builds no
    # table beyond what its input needs; only a JSON report loads _json
    "enumerate-then-verify": [
        ("enumerate --conductor 7 --format md", (), False, 1_000_000),
        ("verify --conductor 9", ("_json",), True, 3_000_000),
    ],
    "verify": [("verify --conductor 819 --format json", ("_json",), True, 3_000_000)],
    "table": [("table --format md", (), True, 3_000_000)],
    # scan, in the shape of the benchmark's scan ops
    "scan": [
        ("scan --min 1 --max 30 --kind wild --format csv", ("csv", "heapq"), True, 3_000_000),
    ],
    # every command in turn, each after the others have run
    "one-after-another": [
        ("verify --conductor 15561", ("_json",), True, 3_000_000),
        ("scan --min 1 --max 2000", ("_json", "heapq"), True, 1_000_000),
        ("enumerate --conductor 819", ("_json", "heapq"), True, 1_000_000),
        ("table", ("_json", "heapq"), True, 1_000_000),
    ],
}


def periods_ran() -> bool | None:
    """None while periods is not registered."""
    module = sys.modules.get("cubicperiods.periods")
    return None if module is None else type(module).__name__ == "module"


def probe(name: str) -> int:
    """The number of steps of COLD[name] that differ, each printed."""
    scope: dict = {}
    failures = 0
    for source, loaded, ran, peak in COLD[name]:
        words = source.split()
        if words[0] in COMMANDS:
            from cubicperiods.cli import main
        tracemalloc.start()
        if words[0] in COMMANDS:
            code = main([*words, "--out", os.devnull])
        else:
            exec(source, scope)
            code = 0
        traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        seen = (code, tuple(sorted(m for m in WATCHED if m in sys.modules)), periods_ran())
        print(repr((source, *seen[1:], traced)))
        if seen != (0, loaded, ran) or traced > peak:
            print(f"{name}: {source}: exit, loaded and ran {seen}, peak {traced};"
                  f" expected {(0, loaded, ran)}, peak at most {peak}", file=sys.stderr)
            failures += 1
    return failures


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    sys.exit(1 if probe(sys.argv[1]) else 0)
