import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pedalrl.harness import config_from_dict, make_env

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ConstantPolicy:
    """Always the same action index; consumes no randomness."""

    def __init__(self, index):
        self.index = int(index)

    def act(self, obs, rng):
        return self.index, 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_test_env(setting_id=2, **kwargs):
    """The shipped environment of ``setting_id``, with ``kwargs`` replaced."""
    return replace(make_env(config_from_dict({"seed": 0, "setting": setting_id})), **kwargs)


@pytest.fixture
def env():
    return make_test_env()


def run_at_blas_threads(threads, code, *args):
    """Run the Python snippet ``code`` in a fresh process at ``threads`` BLAS threads.

    BLAS reads its thread count when numpy loads it, so only a new process
    can change it. ``args`` become ``sys.argv[1:]``; the snippet must exit 0,
    and its stdout comes back as bytes.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.update((var, str(threads)) for var in BLAS_THREAD_VARS)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout
