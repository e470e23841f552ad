from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import ConstantPolicy, make_test_env
from oracles import (
    ControllerState,
    PedalState,
    human_step,
    initial_human_state,
    pid_step,
    step_plant,
    switch_controller,
)
from pedalrl import kernels
from pedalrl.controllers import default_integral_limit
from pedalrl.episode import (
    OBS_DIM_HUMAN,
    OBS_DIM_MACHINE,
    GreedyPolicy,
    SamplingPolicy,
    obs_divisors,
    run_episode,
)
from pedalrl.harness import config_from_dict
from pedalrl.human import DIGITS
from pedalrl.nets import init_params
from pedalrl.plant import PlantParams, ReferenceTrajectory, sample_reference
from pedalrl.rewards import comfort_term


class ScriptPolicy:
    """Plays back a fixed action-index sequence; consumes no randomness."""

    def __init__(self, indexes):
        self.indexes = list(indexes)
        self.i = 0

    def act(self, obs, rng):
        idx = self.indexes[self.i % len(self.indexes)]
        self.i += 1
        return idx, 0.0


class CountingRNG:
    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.random_calls = 0
        self.normal_calls = 0

    def random(self):
        self.random_calls += 1
        return self.inner.random()

    def standard_normal(self, size=None):
        self.normal_calls += 1
        return self.inner.standard_normal(size)


def reference_episode(env, human_indexes, machine_indexes, seed):
    """Replay scripted actions through the per-substep oracles."""
    rng = np.random.default_rng(seed)
    interval = env.decision_interval
    state = PedalState()
    h_state = initial_human_state(env.human)
    m_state = ControllerState()
    prev_m = 0
    rows = {key: [] for key in ("t", "ref", "pos", "om", "tm", "th", "integral")}
    for z in range(env.n_decisions):
        digit = DIGITS[human_indexes[z]]
        a_m = machine_indexes[z]
        if a_m != prev_m and z > 0:
            m_state = switch_controller(m_state)
        gains = env.setting.machine_pid[a_m]
        limit = default_integral_limit(gains, env.plant.torque_limit)
        noise = rng.standard_normal(interval) * env.human.noise_std
        for s in range(interval):
            e_m = sample_reference(env.reference, state.time) - state.angle
            u_m, m_state = pid_step(gains, e_m, m_state, env.plant.dt, limit)
            tau_h, h_state = human_step(
                env.human, h_state, digit, env.setting.human_pd,
                float(noise[s]), env.plant.dt, env.plant.torque_limit,
            )
            state = step_plant(state, u_m, tau_h, env.plant)
            lim = env.plant.torque_limit
            rows["t"].append(state.time)
            rows["ref"].append(sample_reference(env.reference, state.time))
            rows["pos"].append(state.angle)
            rows["om"].append(state.angular_velocity)
            rows["tm"].append(min(max(u_m, -lim), lim))
            rows["th"].append(tau_h)
            rows["integral"].append(m_state.integral)  # not a trace row
        prev_m = a_m
    return rows


def test_episode_matches_public_api_composition():
    # odd interval and scripted controller switches catch any drift between
    # the fused kernel and the plant/controller/human oracles
    env = make_test_env(setting_id=1, window=3, decision_interval=7, n_decisions=6)
    h_idx = [0, 3, 1, 4, 2, 0]
    m_idx = [0, 1, 1, 0, 1, 0]
    result = run_episode(
        env, ScriptPolicy(h_idx), ScriptPolicy(m_idx), np.random.default_rng(123)
    )
    want = reference_episode(env, h_idx, m_idx, seed=123)
    trace = result.trace
    assert np.array_equal(trace.time, np.array(want["t"]))
    assert np.array_equal(trace.reference, np.array(want["ref"]))
    assert np.array_equal(trace.position, np.array(want["pos"]))
    assert np.array_equal(trace.omega, np.array(want["om"]))
    assert np.array_equal(trace.tau_machine, np.array(want["tm"]))
    assert np.array_equal(trace.tau_human, np.array(want["th"]))


@pytest.mark.parametrize("interval", [1, 2, 3, 5, 7, 12])
@pytest.mark.parametrize("delay", [0, 1, 3, 5, 8])
def test_delay_line_matches_oracle(delay, interval):
    # the kernel shifts the delay line once per call, so intervals shorter
    # than the delay carry queued digits across several calls; the oracle
    # shifts it once per substep
    base = make_test_env(setting_id=1, window=3, decision_interval=interval, n_decisions=12)
    env = replace(base, human=replace(base.human, reaction_delay=delay))
    h_idx = [3, 0, 4, 1, 2, 3, 3, 0, 4, 1, 2, 4]
    m_idx = [0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0]
    result = run_episode(
        env, ScriptPolicy(h_idx), ScriptPolicy(m_idx), np.random.default_rng(321)
    )
    want = reference_episode(env, h_idx, m_idx, seed=321)
    trace = result.trace
    for field, key in (
        ("time", "t"), ("position", "pos"), ("omega", "om"),
        ("tau_machine", "tm"), ("tau_human", "th"),
    ):
        assert np.array_equal(getattr(trace, field), np.array(want[key])), field


def test_kernel_zeroes_the_integral_on_a_switch():
    # the switch rule lives in the kernel: a block on another sub-controller
    # than the previous block's starts from a zero integral, a repeated one
    # keeps it, and the oracle composition agrees bit for bit
    env = make_test_env(setting_id=1, window=3, decision_interval=7, n_decisions=4)
    interval = env.decision_interval
    h_idx, m_idx = [3, 4, 1, 0], [0, 1, 1, 0]
    constants, bank = kernels.pack(env)
    sim = np.zeros(kernels.SIM_SIZE)
    queue = np.zeros(env.human.reaction_delay, dtype=np.int64)
    out = np.empty((kernels.TRACE_ROWS, env.n_decisions * interval))
    rng = np.random.default_rng(11)
    integrals = []
    for z, (h, m) in enumerate(zip(h_idx, m_idx)):
        noise = rng.standard_normal(interval) * env.human.noise_std
        kernels.run_substeps(
            sim, queue, DIGITS[h], m, constants, bank, noise, out, z * interval, interval
        )
        integrals.append(sim[kernels.SIM_M_INTEGRAL])
    assert integrals[0] != 0.0
    assert sim[kernels.SIM_M_IDX] == 0.0
    want = reference_episode(env, h_idx, m_idx, seed=11)
    for row, key in zip(out, ("t", "ref", "pos", "om", "tm", "th")):
        assert np.array_equal(row, np.array(want[key])), key


@pytest.mark.parametrize("delay", [0, 5, 13])
def test_kernel_gives_the_same_bytes_on_arrays_and_memoryviews(delay):
    # episodes hand the kernel memoryviews; numpy arrays must give the same
    # bits in every trace row, the final state and the delay line, also for
    # a delay longer than a 10-substep block and across sub-controller switches
    base = make_test_env(setting_id=1, decision_interval=10, n_decisions=8)
    env = replace(base, human=replace(base.human, reaction_delay=delay))
    interval, n = env.decision_interval, env.n_decisions
    h_idx, m_idx = [4, 0, 3, 1, 2, 4, 0, 1], [0, 0, 1, 1, 0, 1, 0, 0]
    constants, bank = kernels.pack(env)

    def play(sim, queue, out, view):
        rng = np.random.default_rng(17)
        for z in range(n):
            noise = rng.standard_normal(interval) * env.human.noise_std
            kernels.run_substeps(
                sim, queue, DIGITS[h_idx[z]], m_idx[z], constants, bank, view(noise), out,
                z * interval, interval,
            )

    arrays = (
        np.zeros(kernels.SIM_SIZE), np.zeros(delay, dtype=np.int64),
        np.empty((kernels.TRACE_ROWS, n * interval)),
    )
    play(*arrays, view=lambda a: a)
    block, sim, queue, rows = kernels.buffers(delay, n * interval)
    play(sim, queue, rows, view=memoryview)
    assert block.tobytes() == arrays[2].tobytes()
    assert sim.tobytes() == arrays[0].tobytes()
    assert queue.tobytes() == arrays[1].tobytes()
    assert sim[kernels.SIM_M_IDX] == 0.0 and arrays[0][kernels.SIM_M_INTEGRAL] != 0.0


# The trace fields and the reference_episode rows they must equal.
TRACE_KEYS = (
    ("time", "t"), ("reference", "ref"), ("position", "pos"), ("omega", "om"),
    ("tau_machine", "tm"), ("tau_human", "th"),
)


@pytest.mark.parametrize("setting_id", [1, 2, 3, 4])
def test_kernel_matches_oracle_at_every_clamp(setting_id):
    # a 1 N m actuator, stops at +-0.02 rad, a 0.1 rad/s speed cap and a 0.5 rad
    # reference drive the anti-windup limit, both torque clamps, the speed cap
    # and the angle stops to both sides, across a sub-controller switch, where
    # the other tests stay unsaturated; the oracle must agree bit for bit.
    # Settings 1-4 hold every pair of gain banks (5-8 repeat them).
    lim, stop, omega_max = 1.0, 0.02, 0.1
    env = make_test_env(
        setting_id=setting_id, n_decisions=200,
        plant=PlantParams(torque_limit=lim, angle_min=-stop, angle_max=stop, omega_max=omega_max),
        reference=ReferenceTrajectory(amplitude=0.5, period=12.0),
    )
    h_idx = ([3] * 50 + [4] * 50) * 2  # digit +2, then -2, held
    m_idx = [0] * 120 + [1] * 80
    result = run_episode(
        env, ScriptPolicy(h_idx), ScriptPolicy(m_idx), np.random.default_rng(5)
    )
    want = reference_episode(env, h_idx, m_idx, seed=5)
    trace = result.trace
    for field, key in TRACE_KEYS:
        assert np.array_equal(getattr(trace, field), np.array(want[key])), field
    for field, bound in (("tau_machine", lim), ("tau_human", lim), ("omega", omega_max),
                         ("position", stop)):
        row = getattr(trace, field)
        assert row.max() == bound and row.min() == -bound, field
    limits = [
        default_integral_limit(env.setting.machine_pid[m], lim)
        for m in m_idx for _ in range(env.decision_interval)
    ]
    # the oracle's integral sits at the running sub-controller's limit, both sides
    windup = {np.sign(i) for i, limit in zip(want["integral"], limits) if abs(i) == limit}
    assert windup == {1.0, -1.0}


@pytest.mark.parametrize("setting_id", range(1, 9))
def test_pack_gives_python_floats_in_unpack_order(setting_id):
    env = make_test_env(setting_id=setting_id)
    p, r, h = env.plant, env.reference, env.human
    strong, weak = env.setting.human_pd
    constants, bank = kernels.pack(env)
    assert constants == (
        p.inertia, p.damping, p.torque_limit, p.dt, p.angle_min, p.angle_max, p.omega_max,
        r.amplitude, r.period, r.phase, r.offset,
        h.unit_torque, h.lag_time_constant,
        strong.kp, strong.kd, weak.kp, weak.kd,
    )
    assert bank == tuple(
        (g.kp, g.ki, g.kd, default_integral_limit(g, p.torque_limit))
        for g in env.setting.machine_pid
    )
    assert all(type(v) is float for v in constants + sum(bank, ()))


def test_kernel_body_is_self_contained():
    # a cheap stand-in for numba's nopython subset while numba is absent: the
    # body looks up no module-level name but math and its own state layout
    allowed = {"math", "sin", "pi", "float", "int", "range", "len", "shape"}
    allowed |= {name for name in vars(kernels) if name.startswith("SIM_")}
    assert set(kernels._run_substeps.__code__.co_names) <= allowed


def test_backends_bit_identical(monkeypatch):
    # with numba active this pins the compiled kernel to its py_func; without
    # it, it checks that the dispatched backend is the Python fallback's result
    env = make_test_env(setting_id=2, n_decisions=12)

    def play():
        return run_episode(
            env, ScriptPolicy([0, 3, 4, 1]), ScriptPolicy([0, 1]), np.random.default_rng(5)
        )

    a = play()
    monkeypatch.setattr(kernels, "run_substeps", kernels.run_substeps_python)
    b = play()
    for field in ("time", "reference", "position", "omega", "tau_machine", "tau_human", "reward"):
        assert np.array_equal(getattr(a.trace, field), getattr(b.trace, field)), field


def test_rng_draw_accounting():
    env = make_test_env(n_decisions=4)
    rng = CountingRNG(0)
    run_episode(env, ConstantPolicy(0), ConstantPolicy(0), rng)
    assert rng.random_calls == 0
    assert rng.normal_calls == 4

    rng = CountingRNG(0)
    net_rng = np.random.default_rng(1)
    h = SamplingPolicy(init_params(net_rng, 5, 5))
    m = SamplingPolicy(init_params(net_rng, 6, 2))
    run_episode(env, h, m, rng)
    assert rng.random_calls == 8  # one uniform per agent per decision
    assert rng.normal_calls == 4


def test_greedy_policy_is_deterministic():
    env = make_test_env(n_decisions=5)
    net_rng = np.random.default_rng(2)
    h = GreedyPolicy(init_params(net_rng, 5, 5))
    m = GreedyPolicy(init_params(net_rng, 6, 2))
    a = run_episode(env, h, m, np.random.default_rng(10))
    b = run_episode(env, h, m, np.random.default_rng(10))
    assert np.array_equal(a.trace.position, b.trace.position)
    assert a.total_reward == b.total_reward


def test_observation_hand_values():
    env = make_test_env(
        plant=PlantParams(torque_limit=30.0, omega_max=10.0),
        reference=ReferenceTrajectory(amplitude=0.3, period=4.0, phase=0.0, offset=0.0),
    )
    div_h, div_m = obs_divisors(env)
    # angle 0.15 at t = 1.0, where the reference peaks at 0.3
    ref = sample_reference(env.reference, 1.0)
    obs = np.array([0.15, ref - 0.15, 0.5, -2, 15.0]) / div_h
    assert np.allclose(obs, [0.5, 0.5, 0.5, -1.0, 0.5], atol=1e-12)
    obs = np.array([ref, 0.15, ref - 0.15, 5.0, 1, -15.0]) / div_m
    assert np.allclose(obs, [1.0, 0.5, 0.5, 0.5, 1.0, -0.5], atol=1e-12)


def test_smoothness_matches_comfort_oracle():
    xs = [0.1, -0.2, 0.4, 0.0, 0.3]
    assert comfort_term(xs) == pytest.approx(oracles.comfort_sum(xs), rel=1e-15)
    assert comfort_term(xs[:2]) == 0.0


def test_trace_layout_and_block_structure():
    env = make_test_env(window=4, decision_interval=6, n_decisions=9)
    result = run_episode(
        env, ScriptPolicy([0, 1, 2, 3, 4]), ScriptPolicy([0, 1]), np.random.default_rng(3)
    )
    trace = result.trace
    n = env.n_decisions * env.decision_interval
    assert len(trace) == n
    # the kernel writes through memoryviews, but the trace keeps numpy arrays
    for field in ("time", "reference", "position", "omega", "tau_machine", "tau_human"):
        arr = getattr(trace, field)
        assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == (n,), field
    assert np.all(np.diff(trace.time) > 0)
    digits = trace.digit.reshape(env.n_decisions, env.decision_interval)
    actions = trace.machine_action.reshape(env.n_decisions, env.decision_interval)
    assert np.all(digits == digits[:, :1])
    assert np.all(actions == actions[:, :1])
    assert list(digits[:5, 0]) == [DIGITS[i] for i in (0, 1, 2, 3, 4)]

    # shared reward appears only on block-final rows, and only once the
    # position history spans a full window
    mask = np.zeros(n, dtype=bool)
    rows = np.arange(env.n_decisions) * env.decision_interval + env.decision_interval - 1
    mask[rows[env.window - 1 :]] = True
    assert np.all(trace.reward[~mask] == 0.0)
    assert np.all(trace.reward[rows[env.window - 1 :]] != 0.0)
    assert result.total_reward == pytest.approx(trace.reward.sum(), rel=1e-12)


def test_transition_chaining_and_terminals():
    env = make_test_env(n_decisions=7)
    result = run_episode(
        env, ScriptPolicy([0, 3]), ScriptPolicy([1]), np.random.default_rng(4)
    )
    for name in ("transitions_human", "transitions_machine"):
        ts = getattr(result, name)
        assert len(ts) == env.n_decisions
        assert [t.terminal for t in ts] == [False] * 6 + [True]
    rows = np.arange(env.n_decisions) * env.decision_interval + env.decision_interval - 1
    for z, t in enumerate(result.transitions_human):
        assert t.reward == result.trace.reward[rows[z]]


class RecordingPolicy(ScriptPolicy):
    """A ScriptPolicy that keeps every observation it is handed, and a copy."""

    def __init__(self, indexes):
        super().__init__(indexes)
        self.handed, self.copies = [], []

    def act(self, obs, rng):
        self.handed.append(obs)
        self.copies.append(np.array(obs, copy=True))
        return super().act(obs, rng)


def test_observation_rows_are_never_rewritten():
    # policies get views of preallocated rows; a row a policy was handed must
    # keep its values after later decisions write the rows after it
    env = make_test_env(n_decisions=9)
    h, m = RecordingPolicy([0, 4, 2, 1]), RecordingPolicy([1, 0, 0])
    result = run_episode(env, h, m, np.random.default_rng(6))
    for policy, ts, dim in (
        (h, result.transitions_human, OBS_DIM_HUMAN),
        (m, result.transitions_machine, OBS_DIM_MACHINE),
    ):
        assert len(policy.handed) == env.n_decisions
        for z, (row, copy) in enumerate(zip(policy.handed, policy.copies)):
            assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == (dim,)
            assert row.tobytes() == copy.tobytes() == ts.obs[z].tobytes(), z


def test_rewards_replayable_from_trace():
    env = make_test_env(setting_id=6, window=4, n_decisions=10)
    result = run_episode(
        env, ScriptPolicy([0, 3, 4, 2, 1]), ScriptPolicy([0, 1]), np.random.default_rng(8)
    )
    k = env.window
    rows = np.arange(env.n_decisions) * env.decision_interval + env.decision_interval - 1
    pos = result.trace.position[rows]
    ref = result.trace.reference[rows]
    om = result.trace.omega[rows]
    dig = result.trace.digit[rows]
    tau_m = result.trace.tau_machine[rows]
    tau_h = result.trace.tau_human[rows]
    div_h, div_m = obs_divisors(env)
    # decision 0 observes the pedal at rest, decision z + 1 decision z's block end
    ref0 = sample_reference(env.reference, 0.0)
    assert np.array_equal(result.transitions_human[0].obs, np.array([0, ref0, 0, 0, 0]) / div_h)
    assert np.array_equal(
        result.transitions_machine[0].obs, np.array([ref0, 0, ref0, 0, 0, 0]) / div_m
    )
    for z in range(env.n_decisions - 1):
        comfort = oracles.comfort_sum(pos[max(z - k + 1, 0) : z + 1])
        next_h = np.array([pos[z], ref[z] - pos[z], comfort, dig[z], tau_m[z]]) / div_h
        next_m = np.array([ref[z], pos[z], ref[z] - pos[z], om[z], z % 2, tau_h[z]]) / div_m
        assert np.array_equal(result.transitions_human[z + 1].obs, next_h)
        assert np.array_equal(result.transitions_machine[z + 1].obs, next_m)
    w = env.setting.weights
    for z in range(env.n_decisions):
        t_h = result.transitions_human[z]
        t_m = result.transitions_machine[z]
        assert t_m.reward == t_h.reward  # both agents learn from the shared reward
        if z < k - 1:
            assert t_h.reward == 0.0 and t_m.reward == 0.0
            continue
        a = dig[z - k + 1 : z + 1]
        flag = 1.0 if a[-1] != a[-2] else 0.0
        expected_h = oracles.human_value(
            oracles.tracking_sum(pos[z - k + 1 : z + 1], ref[z - k + 1 : z + 1]),
            oracles.comfort_sum(pos[z - k + 1 : z + 1]),
            oracles.effort_value(list(a), flag),
            w.mu, w.kappa, w.rho,
        )
        assert t_h.reward == pytest.approx(expected_h, rel=1e-12)


def test_env_params_validation():
    # the episode shape is bounded on its config keys, where values enter
    for key in ("window", "decision_interval", "n_decisions"):
        with pytest.raises(ValueError, match="config key 'episode.%s' must be" % key):
            config_from_dict({"seed": 0, "episode." + key: 2 if key == "window" else 0})
