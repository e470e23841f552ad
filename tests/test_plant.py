import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PedalState, step_plant
from pedalrl.harness import config_from_dict
from pedalrl.plant import PlantParams, ReferenceTrajectory, clock, sample_reference


def test_reference_hand_value():
    # amplitude 0.3, period 4 s: at t = 0.5 the phase is pi/4
    traj = ReferenceTrajectory(amplitude=0.3, period=4.0)
    assert sample_reference(traj, 0.5) == pytest.approx(0.3 * math.sin(math.pi / 4), abs=1e-15)


def test_reference_offset_and_phase():
    traj = ReferenceTrajectory(amplitude=0.5, period=2.0, phase=math.pi / 2, offset=0.1)
    assert sample_reference(traj, 0.0) == pytest.approx(0.6, abs=1e-15)


def test_reference_periodicity():
    traj = ReferenceTrajectory()
    for t in (0.0, 0.3, 1.7):
        assert sample_reference(traj, t) == pytest.approx(
            sample_reference(traj, t + traj.period), abs=1e-12
        )


def test_clock_samples_the_reference_over_the_running_time_sum():
    traj = ReferenceTrajectory(amplitude=0.4, period=3.0, phase=0.2, offset=-0.1)
    rows = clock(traj, 0.01, 250)
    assert rows.shape == (2, 251)
    t = 0.0
    for i in range(251):
        assert rows[0, i] == t and rows[1, i] == sample_reference(traj, t)
        t += 0.01
    assert clock(ReferenceTrajectory(0.4, 3.0, 0.2, -0.1), 0.01, 250) is rows  # built once
    # the rows are keyed by the values' bits: on a flat reference a -0.0
    # offset keeps the sign of amplitude * sin(...) = -0.0, and 0.0 does not
    negative, positive = (
        clock(ReferenceTrajectory(amplitude=0.0, phase=-1.0, offset=zero), 0.01, 10)[1]
        for zero in (-0.0, 0.0)
    )
    assert np.signbit(negative).all() and not np.signbit(positive).any()


def test_single_step_hand_value():
    # unit inertia, no damping, 1 N.m for 0.01 s: omega = 0.01, angle moves
    # by dt * new omega = 1e-4 (semi-implicit order of operations)
    params = PlantParams(inertia=1.0, damping=0.0)
    state = step_plant(PedalState(), 1.0, 0.0, params)
    assert state.angular_velocity == pytest.approx(0.01, abs=1e-15)
    assert state.angle == pytest.approx(1e-4, abs=1e-15)
    assert state.time == pytest.approx(0.01, abs=1e-15)


def test_matches_hand_stepped_euler():
    params = PlantParams()
    rng = np.random.default_rng(3)
    torques = rng.uniform(-20, 20, size=(50, 2))

    state = PedalState()
    angle, omega = 0.0, 0.0
    for tau_m, tau_h in torques:
        state = step_plant(state, tau_m, tau_h, params)
        tm = min(max(tau_m, -params.torque_limit), params.torque_limit)
        th = min(max(tau_h, -params.torque_limit), params.torque_limit)
        omega += params.dt * (tm + th - params.damping * omega) / params.inertia
        omega = min(max(omega, -params.omega_max), params.omega_max)
        angle += params.dt * omega
        if angle <= params.angle_min:
            angle, omega = params.angle_min, 0.0
        elif angle >= params.angle_max:
            angle, omega = params.angle_max, 0.0
        assert state.angle == angle
        assert state.angular_velocity == omega


def test_unforced_velocity_decays():
    params = PlantParams()
    state = PedalState(angular_velocity=2.0)
    for _ in range(200):
        prev = abs(state.angular_velocity)
        state = step_plant(state, 0.0, 0.0, params)
        assert abs(state.angular_velocity) < prev or prev == 0.0
    assert abs(state.angular_velocity) < 0.01


def test_torque_saturation_idempotent():
    params = PlantParams()
    at_limit = step_plant(PedalState(), params.torque_limit, 0.0, params)
    beyond = step_plant(PedalState(), params.torque_limit * 50, 0.0, params)
    assert at_limit == beyond


def test_each_torque_input_clamped_separately():
    # both inputs at 2x the limit must not act like 4x one limit
    params = PlantParams(inertia=1.0, damping=0.0)
    both = step_plant(PedalState(), 60.0, 60.0, params)
    assert both.angular_velocity == pytest.approx(params.dt * 60.0, abs=1e-15)


def test_hard_stop_zeroes_velocity():
    params = PlantParams()
    state = PedalState(angle=0.599, angular_velocity=5.0)
    state = step_plant(state, params.torque_limit, 0.0, params)
    assert state.angle == params.angle_max
    assert state.angular_velocity == 0.0


def test_rejects_non_finite_torque():
    params = PlantParams()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            step_plant(PedalState(), bad, 0.0, params)
        with pytest.raises(ValueError):
            step_plant(PedalState(), 0.0, bad, params)


def test_params_validation():
    # the plant's bounds are checked on its config keys, where values enter
    for bad in ({"plant.inertia": 0.0}, {"plant.dt": -0.01},
                {"plant.angle_min": 0.5, "plant.angle_max": 0.5}):
        with pytest.raises(ValueError, match="config key '%s' must be" % next(iter(bad))):
            config_from_dict({"seed": 0, **bad})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=80))
def test_state_stays_in_bounds(torques):
    params = PlantParams()
    state = PedalState()
    for tau_m, tau_h in torques:
        state = step_plant(state, tau_m, tau_h, params)
        assert params.angle_min <= state.angle <= params.angle_max
        assert abs(state.angular_velocity) <= params.omega_max
        assert math.isfinite(state.angle)
