#!/usr/bin/env python3
"""Run one cmcert command and list the cmcert modules it ran, with their cost.

Usage (from the root of a checkout):

    rm -rf src/cmcert/__pycache__
    PYTHONDONTWRITEBYTECODE=1 python3 tools/module_times.py ladder --k-max 50

The `cmcert` package registers its submodules with
`importlib.util.LazyLoader`, so a submodule runs on its first attribute
access, outside any import statement, and `python -X importtime` never lists
it.  This times the source loader's `exec_module` instead, runs the command
with its stdout discarded, and prints one line per cmcert module that ran,
in the order each finished: the milliseconds it took, including the modules
it ran in turn, and its name.  With no bytecode cache for cmcert, as above,
the time includes compiling it, as a cold process with no cache pays.
"""

import contextlib
import io
import os
import sys
import time
from importlib.machinery import SourceFileLoader

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spent = []
    exec_module = SourceFileLoader.exec_module

    def timed(loader, module):
        start = time.perf_counter()
        try:
            exec_module(loader, module)
        finally:
            if module.__name__.split(".")[0] == "cmcert":
                spent.append((time.perf_counter() - start, module.__name__))

    SourceFileLoader.exec_module = timed
    from cmcert import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    for seconds, name in spent:
        print(f"{seconds * 1e3:8.2f} ms  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
