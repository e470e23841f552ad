import pytest

from oracles import (
    advance_delay,
    digit_target,
    human_step,
    initial_human_state,
    pd_index_for_digit,
)
from pedalrl.controllers import SETTINGS, PDGains
from pedalrl.harness import config_from_dict
from pedalrl.human import DIGITS, HumanParams

PD_PAIR = SETTINGS[1].human_pd  # (30, 0.2) strong / (15, 0.1) weak


def run_chain(params, digits, pd_pair=PD_PAIR, noise=0.0, dt=0.01, limit=30.0):
    state = initial_human_state(params)
    out = []
    for d in digits:
        tau, state = human_step(params, state, d, pd_pair, noise, dt, limit)
        out.append(tau)
    return out, state


def test_digit_action_order():
    assert DIGITS == (0, 1, -1, 2, -2)


def test_digit_target_and_pd_selection():
    assert digit_target(2, 5.0) == 10.0
    assert digit_target(-1, 5.0) == -5.0
    for d in (2, -2):
        assert pd_index_for_digit(d) == 0
    for d in (0, 1, -1):
        assert pd_index_for_digit(d) == 1


def test_delay_queue_fifo():
    eff, queue = advance_delay((1, 2, 0), -1)
    assert eff == 1
    assert queue == (2, 0, -1)
    # zero delay: command takes effect immediately
    eff, queue = advance_delay((), 2)
    assert eff == 2
    assert queue == ()


def test_zero_input_stays_zero():
    params = HumanParams(noise_std=0.0)
    taus, state = run_chain(params, [0] * 50)
    assert taus == [0.0] * 50
    assert state.applied == 0.0


def test_converges_to_unit_torque_monotonically():
    # no delay, negligible lag: the weak PD drives applied torque to the
    # 1-digit target without overshoot
    params = HumanParams(reaction_delay=0, lag_time_constant=1e-9, noise_std=0.0)
    taus, _ = run_chain(params, [1] * 2000)
    assert all(b >= a for a, b in zip(taus, taus[1:]))
    assert taus[-1] == pytest.approx(params.unit_torque, abs=1e-6)


def test_reaction_delay_shifts_response():
    params = HumanParams(reaction_delay=3, lag_time_constant=1e-9, noise_std=0.0)
    taus, _ = run_chain(params, [1] * 8)
    assert taus[:3] == [0.0, 0.0, 0.0]
    assert taus[3] > 0.0


def test_sign_equivariance():
    params = HumanParams(noise_std=0.0)
    pos, _ = run_chain(params, [1, 1, 2, 0, 2, 1] * 5)
    neg, _ = run_chain(params, [-1, -1, -2, 0, -2, -1] * 5)
    assert pos == [-t for t in neg]


def test_strong_pair_used_for_intensity_two():
    # distinct pairs: the |digit|=2 path must use the first entry
    hot = (PDGains(100.0, 0.0), PDGains(0.0, 0.0))
    params = HumanParams(reaction_delay=0, noise_std=0.0)
    tau2, _ = run_chain(params, [2], pd_pair=hot)
    tau1, _ = run_chain(params, [1], pd_pair=hot)
    assert tau2[0] > 0.0
    assert tau1 == [0.0]


def test_noise_added_after_lag_then_clamped():
    params = HumanParams(reaction_delay=0, noise_std=1.0)
    state = initial_human_state(params)
    tau, new_state = human_step(params, state, 0, PD_PAIR, 1e9, 0.01, 30.0)
    assert tau == 30.0
    # the internal applied torque is unaffected by noise
    assert new_state.applied == 0.0


def test_queue_length_matches_delay():
    for delay in (0, 1, 5):
        state = initial_human_state(HumanParams(reaction_delay=delay))
        assert len(state.digit_queue) == delay


def test_rejects_unknown_digit():
    params = HumanParams()
    with pytest.raises(ValueError):
        human_step(params, initial_human_state(params), 3, PD_PAIR, 0.0, 0.01, 30.0)


def test_params_validation():
    # the human model's bounds are checked on its config keys, where values enter
    for key, value in (("unit_torque", -1.0), ("reaction_delay", -1),
                       ("lag_time_constant", -0.1), ("noise_std", -0.5)):
        with pytest.raises(ValueError, match="config key 'human.%s' must be" % key):
            config_from_dict({"seed": 0, "human." + key: value})
