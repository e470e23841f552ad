"""Paths of the checkout the benchmark runs in.

The benchmark always measures the pedalrl source next to it (``src/``),
never an installed copy, and keeps everything it writes under ``OUT``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.join(ROOT, "perfbench")


def use_checkout_source():
    """Put the checkout's ``src/`` first on the import path, or exit 1."""
    init = os.path.join(SRC, "pedalrl", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: no pedalrl source at %s; run from a repository checkout" % init)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def script(name):
    """Command line that runs ``perfbench/<name>`` with this interpreter."""
    return [sys.executable, os.path.join(HERE, name)]
