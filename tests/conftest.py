from dataclasses import replace

import numpy as np
import pytest

from pedalrl.harness import config_from_dict, make_env


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
