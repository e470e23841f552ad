import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pedalrl.controllers import SETTINGS
from pedalrl.human import DIGITS
from pedalrl.rewards import (
    RewardWeights,
    comfort_term,
    effort_term,
    human_reward,
    shared_reward,
    tracking_term,
)


def random_windows(rng, n, k_max=12):
    for _ in range(n):
        k = int(rng.integers(3, k_max + 1))
        actual = tuple(rng.uniform(-0.6, 0.6, k))
        reference = tuple(rng.uniform(-0.6, 0.6, k))
        omega = float(rng.uniform(-10, 10))
        actions = tuple(int(a) for a in rng.integers(-2, 3, k))
        yield actual, reference, omega, actions


def test_terms_match_brute_force_oracle():
    rng = np.random.default_rng(7)
    for actual, reference, _, actions in random_windows(rng, 1000):
        r_m = tracking_term(actual, reference)
        r_c = comfort_term(actual)
        r_e = effort_term(actions)
        flag = 1 if actions[-1] != actions[-2] else 0
        assert oracles.relative_error(r_m, oracles.tracking_sum(actual, reference)) <= 1e-12
        assert oracles.relative_error(r_c, oracles.comfort_sum(actual)) <= 1e-12
        assert oracles.relative_error(r_e, oracles.effort_value(actions, flag)) <= 1e-12


def test_tracking_hand_values():
    ref = (0.0, 0.0, 0.0)
    assert tracking_term(ref, ref) == 0.0
    assert tracking_term((0.1, -0.1, 0.2), ref) == pytest.approx(0.06, abs=1e-15)


def test_tracking_quadratic_in_error_scale():
    rng = np.random.default_rng(1)
    errs = rng.uniform(-1, 1, 5)
    base = tracking_term(tuple(errs), (0.0,) * 5)
    scaled = tracking_term(tuple(3.0 * errs), (0.0,) * 5)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_comfort_hand_values():
    assert comfort_term((0.0, 1.0, 3.0)) == pytest.approx(1.0)
    assert comfort_term((0.0, 0.0, 1.0, 1.0)) == pytest.approx(2.0)


def test_comfort_zero_on_affine():
    line = tuple(0.2 + 0.05 * i for i in range(8))
    assert comfort_term(line) == pytest.approx(0.0, abs=1e-15)


def test_effort_hand_value():
    assert effort_term((0, 2, 0)) == pytest.approx(20.0 / 9.0, rel=1e-15)


def test_effort_gate():
    # an unchanged last action shuts the gate however varied the window
    assert effort_term((0, 2, 1, 1)) == 0.0
    assert effort_term((1, 1, 1, 1)) == 0.0


def test_effort_flag_rule():
    # E = 1 exactly when the last two actions differ
    assert effort_term((0, 1, 2)) > 0.0
    assert effort_term((0, 2, 2)) == 0.0
    assert effort_term((2, 2, 2, 0)) > 0.0


def test_machine_reward_hand_values():
    ref4 = (0.0, 0.0, 0.0, 0.0)
    actual = (0.1, -0.1, 0.2, 0.0)
    assert oracles.machine_reward(actual, ref4, 0.0, -1.0, 0.0) == pytest.approx(-0.06, abs=1e-15)
    assert oracles.machine_reward(ref4, ref4, 2.0, 0.0, -0.5) == pytest.approx(-1.0, abs=1e-15)
    assert oracles.machine_reward(ref4, ref4, 2.0, -1.0, 0.0) == 0.0


def test_machine_window_is_one_longer():
    # machine sums k+1 error terms, tracking sums k; feeding a (k+1)-sample
    # window to the machine and its k-sample tail to tracking must differ by
    # the head sample's squared error
    actual = (0.3, 0.1, -0.1, 0.2)
    ref = (0.0, 0.0, 0.0, 0.0)
    assert oracles.machine_reward(actual, ref, 0.0, -1.0, 0.0) == pytest.approx(
        -(tracking_term(actual[1:], ref[1:]) + 0.09), rel=1e-12
    )


def test_human_reward_hand_values():
    w115 = RewardWeights(mu=1, kappa=1, rho=5)
    w181 = RewardWeights(mu=1, kappa=8, rho=1)
    assert human_reward(0.06, 1.0, 20.0 / 9.0, w115) == pytest.approx(
        -0.06 - 1.0 + 100.0 / 9.0, rel=1e-15
    )
    assert human_reward(0.06, 1.0, 20.0 / 9.0, w181) == pytest.approx(
        -0.06 - 8.0 + 20.0 / 9.0, rel=1e-15
    )
    assert human_reward(0.0, 0.0, 0.0, w115) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    r_m=st.floats(0, 100),
    r_c=st.floats(0, 100),
    r_e=st.floats(0, 100),
    mu=st.floats(0, 10),
    kappa=st.floats(0, 10),
    rho=st.floats(0, 10),
)
def test_human_reward_linearity(r_m, r_c, r_e, mu, kappa, rho):
    w = RewardWeights(mu=mu, kappa=kappa, rho=rho)
    assert human_reward(r_m, r_c, r_e, w) == pytest.approx(
        -mu * r_m - kappa * r_c + rho * r_e, rel=1e-12, abs=1e-12
    )


def test_shared_reward_equals_human_reward():
    rng = np.random.default_rng(5)
    w_set = RewardWeights(mu=1, kappa=8, rho=1)
    for actual, reference, _, actions in random_windows(rng, 50):
        expected = human_reward(
            tracking_term(actual, reference), comfort_term(actual), effort_term(actions), w_set
        )
        assert shared_reward(actual, reference, actions, w_set, comfort_term(actual)) == expected


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def zero_reward_windows(draw):
    """(positions, references, digits) whose three reward terms are exact zeros.

    The positions are one constant, each a signed zero when it is 0; the
    references equal them; the digits end on a repeat, so the effort gate is shut.
    """
    k = draw(st.integers(3, 12))
    c = draw(st.one_of(SIGNED_ZEROS, st.floats(-1.0, 1.0)))
    positions = [draw(SIGNED_ZEROS) if c == 0.0 else c for _ in range(k)]
    references = [draw(SIGNED_ZEROS) if c == 0.0 else c for _ in range(k)]
    digits = draw(st.lists(st.sampled_from(DIGITS), min_size=k - 1, max_size=k - 1))
    return positions, references, digits + digits[-1:]


@settings(max_examples=300, deadline=None)
@given(window=zero_reward_windows())
def test_a_zero_shared_reward_is_positive_zero(window):
    # a terminal row's masked bootstrap adds a signed zero to its reward, which
    # changes only a -0.0 reward; no setting's shared reward may be one
    for sid, row in SETTINGS.items():
        r = shared_reward(*window, row.weights, comfort_term(window[0]))
        assert r == 0.0 and math.copysign(1.0, r) == 1.0, sid


def test_weights_for_setting():
    w2 = SETTINGS[2].weights
    assert isinstance(w2, RewardWeights)
    assert (w2.mu, w2.kappa, w2.rho) == (1, 1, 5)
    w6 = SETTINGS[6].weights
    assert isinstance(w6, RewardWeights)
    assert (w6.mu, w6.kappa, w6.rho) == (1, 8, 1)


def test_terms_non_negative():
    rng = np.random.default_rng(11)
    for actual, reference, _, actions in random_windows(rng, 200):
        assert tracking_term(actual, reference) >= 0.0
        assert comfort_term(actual) >= 0.0
        assert effort_term(actions) >= 0.0


def test_window_validation():
    with pytest.raises(ValueError):
        tracking_term((0.0,) * 4, (0.0,) * 3)  # length mismatch
