"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR CLI_ARG...

Times the import of the package plus a first command (run.py passes
`enumerate --conductor 7`, which builds the package's lazy prime sieve),
and prints the exit code, the elapsed seconds, and the speed probes taken
in this process just before and just after.
"""

import sys
import time

from speed import speed_probe

before = speed_probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cubicperiods import cli  # noqa: E402

code = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - start
print(code, repr(elapsed), repr(before), repr(speed_probe()))
