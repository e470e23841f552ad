import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ControllerState, pd_step, pid_step, reset_controller, switch_controller
from pedalrl.controllers import (
    PDGains,
    PIDGains,
    SETTINGS,
    default_integral_limit,
)

# Table rows the bank must reproduce: (mu,kappa,rho), human PD pairs
# (high-intensity first), machine PID pair.
EXPECTED_ROWS = {
    1: ((1, 1, 5), ((30, 0.2), (15, 0.1)), ((24, 2.4, 24), (12, 1.2, 12))),
    2: ((1, 1, 5), ((30, 0.2), (15, 0.1)), ((12, 1.2, 12), (6, 0.6, 6))),
    3: ((1, 1, 5), ((5, 0.1), (2.5, 0.05)), ((24, 2.4, 24), (12, 1.2, 12))),
    4: ((1, 1, 5), ((5, 0.1), (2.5, 0.05)), ((12, 1.2, 12), (6, 0.6, 6))),
    5: ((1, 8, 1), ((30, 0.2), (15, 0.1)), ((24, 2.4, 24), (12, 1.2, 12))),
    6: ((1, 8, 1), ((30, 0.2), (15, 0.1)), ((12, 1.2, 12), (6, 0.6, 6))),
    7: ((1, 8, 1), ((5, 0.1), (2.5, 0.05)), ((12, 1.2, 12), (6, 0.6, 6))),
    8: ((1, 8, 1), ((5, 0.1), (2.5, 0.05)), ((24, 2.4, 24), (12, 1.2, 12))),
}


def test_settings_table():
    assert sorted(SETTINGS) == list(range(1, 9))
    for sid, (w, pds, pids) in EXPECTED_ROWS.items():
        cfg = SETTINGS[sid]
        assert cfg.setting_id == sid
        assert (cfg.weights.mu, cfg.weights.kappa, cfg.weights.rho) == w
        assert tuple((g.kp, g.kd) for g in cfg.human_pd) == pds
        assert tuple((g.kp, g.ki, g.kd) for g in cfg.machine_pid) == pids


def test_gain_validation():
    # gains and weights are not checked on construction: only the fixed
    # SETTINGS table fills them, so the table is checked here
    for row in SETTINGS.values():
        gains = [*row.human_pd, *row.machine_pid, row.weights]
        assert all(v >= 0.0 for g in gains for v in vars(g).values()), row.setting_id


def test_proportional_only_hand_value():
    torque, _ = pid_step(PIDGains(12, 0, 0), 0.5, ControllerState(), 0.01)
    assert torque == pytest.approx(6.0, abs=1e-15)


def test_integral_accumulation_hand_values():
    # ki = 1, constant unit error: integral grows by dt each step
    gains = PIDGains(0, 1, 0)
    state = ControllerState()
    outputs = []
    for _ in range(3):
        torque, state = pid_step(gains, 1.0, state, 0.01)
        outputs.append(torque)
    assert outputs == pytest.approx([0.01, 0.02, 0.03], abs=1e-15)


def test_pd_hand_values():
    # steady error: derivative contributes nothing
    torque, _ = pd_step(PDGains(30, 0.2), 0.1, ControllerState(prev_error=0.1, initialized=True), 0.01)
    assert torque == pytest.approx(3.0, abs=1e-13)
    # pure derivative: error step 0 -> 0.1 over dt = 0.1
    torque, _ = pd_step(PDGains(0, 0.2), 0.1, ControllerState(prev_error=0.0, initialized=True), 0.1)
    assert torque == pytest.approx(0.2, abs=1e-15)


def test_first_step_has_no_derivative_kick():
    torque, state = pid_step(PIDGains(0, 0, 10), 5.0, ControllerState(), 0.01)
    assert torque == 0.0
    assert state.initialized
    # second step sees the stored error
    torque, _ = pid_step(PIDGains(0, 0, 10), 5.0, state, 0.01)
    assert torque == pytest.approx(0.0, abs=1e-15)
    torque, _ = pid_step(PIDGains(0, 0, 10), 6.0, state, 0.01)
    assert torque == pytest.approx(10 * (6.0 - 5.0) / 0.01, rel=1e-12)


def test_anti_windup_clamps_integral():
    gains = PIDGains(0, 2, 0)
    state = ControllerState()
    for _ in range(1000):
        _, state = pid_step(gains, 1.0, state, 0.01, integral_limit=0.5)
    assert state.integral == pytest.approx(0.5, abs=1e-12)
    torque, _ = pid_step(gains, 0.0, state, 0.01, integral_limit=0.5)
    assert torque <= gains.ki * 0.5 + 1e-12


def test_default_integral_limit():
    assert default_integral_limit(PIDGains(1, 2.4, 0), 30.0) == pytest.approx(12.5)
    # ki = 0: limit is huge, never binding
    assert default_integral_limit(PIDGains(1, 0, 0), 30.0) > 1e10


@settings(max_examples=100, deadline=None)
@given(
    kp=st.floats(0, 50),
    kd=st.floats(0, 5),
    errors=st.lists(st.floats(-2, 2), min_size=1, max_size=20),
)
def test_pd_equals_pid_with_zero_ki(kp, kd, errors):
    pd_state = ControllerState()
    pid_state = ControllerState()
    for e in errors:
        t_pd, pd_state = pd_step(PDGains(kp, kd), e, pd_state, 0.01)
        t_pid, pid_state = pid_step(PIDGains(kp, 0.0, kd), e, pid_state, 0.01)
        assert t_pd == t_pid
    assert pd_state == pid_state


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pid_step(PIDGains(1, 0, 0), math.nan, ControllerState(), 0.01)
    with pytest.raises(ValueError):
        pid_step(PIDGains(1, 0, 0), 0.1, ControllerState(), 0.0)
    with pytest.raises(ValueError):
        pid_step(PIDGains(1, 0, 0), 0.1, ControllerState(), -0.01)


def test_reset_and_switch_semantics():
    state = ControllerState(integral=3.0, prev_error=0.7, initialized=True)
    fresh = reset_controller()
    assert fresh == ControllerState()
    switched = switch_controller(state)
    # windup belongs to the old gain set; derivative history survives
    assert switched.integral == 0.0
    assert switched.prev_error == 0.7
    assert switched.initialized


def test_output_scales_with_gains():
    # doubled gains double the output for the same inputs
    state = ControllerState(prev_error=0.2, integral=0.5, initialized=True)
    lo, _ = pid_step(PIDGains(12, 1.2, 12), 0.3, state, 0.01)
    hi, _ = pid_step(PIDGains(24, 2.4, 24), 0.3, state, 0.01)
    assert hi == pytest.approx(2 * lo, rel=1e-12)
