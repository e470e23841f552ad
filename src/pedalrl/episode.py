"""Closed-loop episode runner: agents on top, fused substep kernel below.

Agents act every ``decision_interval`` plant substeps. One decision step is:
observe (both agents), pick a digit and a machine sub-controller, run the
substep block through the hot kernel, then score the shared reward over
sliding windows of block-boundary samples. The trace records every plant
substep; the reward lands on block-final rows and in both agents' experience,
one record array per agent and episode (``experience``). Each agent's
observations are the block-final trace values over ``obs_divisors``.

RNG discipline: per decision step the stream is consumed in a fixed order
(human sample, machine sample, one noise vector), and non-sampling policies
(greedy, remote) consume nothing. All draws happen here at Python
level, never inside the kernel, so results are identical across the numba
and pure-Python backends.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .controllers import SettingConfig
from .human import DIGITS, HumanParams
from .nets import actor_forward, greedy_action, sample_action
from .plant import PlantParams, ReferenceTrajectory, sample_reference
from .rewards import comfort_term, shared_reward

OBS_DIM_HUMAN = 5  # position, error, comfort, previous digit, machine torque
OBS_DIM_MACHINE = 6  # reference, position, error, omega, previous action, human torque


@dataclass(frozen=True)
class EnvParams:
    """Everything one episode needs, bundled.

    The episode shape has no defaults here; ``harness.ExperimentConfig``
    holds the shipped values.
    """

    plant: PlantParams
    reference: ReferenceTrajectory
    human: HumanParams
    setting: SettingConfig  # its ``weights`` score the shared reward
    window: int  # k: decision steps per reward window
    decision_interval: int  # plant substeps per decision
    n_decisions: int

    def __post_init__(self):
        # Each message starts with the field name; ``harness.make_env``
        # prefixes the config section to make it the config key.
        for name, least in (("window", 3), ("decision_interval", 1), ("n_decisions", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError("%s must be >= %d, got %d" % (name, least, value))


def obs_divisors(env: EnvParams) -> tuple:
    """(human, machine) divisor vectors that bring observation fields to O(1).

    Angles go over the reference amplitude (the upper stop for a flat
    reference), torques over the torque limit, omega over its limit, the
    digit over 2; the comfort term and the machine action stay as they are.
    """
    p = env.plant
    angle = env.reference.amplitude if env.reference.amplitude > 0.0 else p.angle_max
    return (
        np.array([angle, angle, 1.0, 2.0, p.torque_limit]),
        np.array([angle, angle, angle, p.omega_max, 1.0, p.torque_limit]),
    )


def experience(obs, action, log_prob_old, reward, next_obs, terminal) -> np.recarray:
    """One agent's decisions as a record array, one row per decision.

    Fields: ``obs``, ``action``, ``log_prob_old``, ``reward``, ``next_obs``
    and ``terminal``. Raises ValueError naming the first row with a positive
    log probability or a non-finite reward.
    """
    obs = np.asarray(obs, dtype=np.float64)
    n, dim = obs.shape
    rec = np.recarray(n, dtype=[
        ("obs", np.float64, (dim,)), ("action", np.int64), ("log_prob_old", np.float64),
        ("reward", np.float64), ("next_obs", np.float64, (dim,)), ("terminal", bool),
    ])
    columns = (obs, action, log_prob_old, reward, next_obs, terminal)
    for name, column in zip(rec.dtype.names, columns):
        rec[name] = column
    bad = (rec.log_prob_old > 0.0) | ~np.isfinite(rec.reward)
    if bad.any():
        z = int(np.argmax(bad))
        if rec.log_prob_old[z] > 0.0:
            raise ValueError("experience row %d: log probability cannot be positive" % z)
        raise ValueError("experience row %d: non-finite reward" % z)
    return rec


@dataclass
class EpisodeTrace:
    """Plant-rate record of one episode (one row per substep)."""

    time: np.ndarray
    reference: np.ndarray
    position: np.ndarray
    omega: np.ndarray
    tau_machine: np.ndarray
    tau_human: np.ndarray
    digit: np.ndarray  # commanded digit in force at each substep
    machine_action: np.ndarray  # selected sub-controller index in force
    reward: np.ndarray  # shared reward on block-final rows, 0 elsewhere
    decision_interval: int

    def __len__(self):
        return self.time.shape[0]


@dataclass
class EpisodeResult:
    trace: EpisodeTrace
    transitions_human: np.recarray  # see ``experience``
    transitions_machine: np.recarray
    total_reward: float


class SamplingPolicy:
    """Draws from the actor's distribution; one uniform per decision."""

    def __init__(self, params):
        self.params = params

    def act(self, obs, rng):
        dist = actor_forward(self.params, obs)
        return sample_action(dist, rng)


class GreedyPolicy:
    """Argmax action; consumes no randomness."""

    def __init__(self, params):
        self.params = params

    def act(self, obs, rng):
        return greedy_action(actor_forward(self.params, obs))


def run_episode(env: EnvParams, human_policy, machine_policy, rng) -> EpisodeResult:
    """Roll one full episode; returns the trace and both agents' experience."""
    k = env.window
    interval = env.decision_interval
    n = env.n_decisions
    n_total = n * interval
    weights = env.setting.weights
    div_h, div_m = (d.tolist() for d in obs_divisors(env))

    sim = np.zeros(kernels.SIM_SIZE)
    queue = np.zeros(env.human.reaction_delay, dtype=np.int64)
    constants, bank = kernels.pack(env)

    block = np.empty((kernels.TRACE_ROWS, n_total))
    # Views of the trace block's reference and position rows (the rows are
    # the float fields of EpisodeTrace, in order).
    ref_arr, pos_arr = block[1], block[2]
    digit_arr = np.zeros(n_total, dtype=np.int64)
    maction_arr = np.zeros(n_total, dtype=np.int64)
    reward_arr = np.zeros(n_total)

    # Row z of obs_* is the observation at decision z and the next_obs of
    # decision z - 1. Row 0 is the pedal at rest at t = 0.
    obs_h = np.empty((n + 1, OBS_DIM_HUMAN))
    obs_m = np.empty((n + 1, OBS_DIM_MACHINE))
    ref0 = sample_reference(env.reference, 0.0)
    obs_h[0] = [v / d for v, d in zip((0.0, ref0, 0.0, 0.0, 0.0), div_h)]
    obs_m[0] = [v / d for v, d in zip((ref0, 0.0, ref0, 0.0, 0.0, 0.0), div_m)]
    act_h = np.empty(n, dtype=np.int64)
    act_m = np.empty(n, dtype=np.int64)
    logp_h = np.empty(n)
    logp_m = np.empty(n)

    total_reward = 0.0
    for z in range(n):
        a_h, logp_h[z] = human_policy.act(obs_h[z], rng)
        a_m, logp_m[z] = machine_policy.act(obs_m[z], rng)
        act_h[z] = a_h
        act_m[z] = a_m
        digit = DIGITS[a_h]
        if z > 0 and a_m != act_m[z - 1]:
            # stale windup belongs to the other gain set; derivative history carries
            sim[kernels.SIM_M_INTEGRAL] = 0.0
        noise = rng.standard_normal(interval) * env.human.noise_std

        start = z * interval
        kernels.run_substeps(
            sim, queue, digit, a_m, constants, bank, noise, block, start, interval
        )
        row = start + interval - 1
        # The block-final column as Python floats: the observation rows are
        # computed off numpy scalars.
        _, ref, pos, om, tm, th = block[:, row].tolist()
        digit_arr[start : start + interval] = digit
        maction_arr[start : start + interval] = a_m
        # Windows are the block-final rows of the trace: the last k decisions,
        # or fewer before the k-th one.
        lo = max(row - (k - 1) * interval, interval - 1)
        positions = pos_arr[lo : row + 1 : interval].tolist()

        reward = 0.0
        if z >= k - 1:
            reference = ref_arr[lo : row + 1 : interval].tolist()
            actions = digit_arr[lo : row + 1 : interval].tolist()
            reward = shared_reward(positions, reference, actions, weights)
        reward_arr[row] = reward
        total_reward += reward

        err = ref - pos
        obs_h[z + 1] = [
            v / d for v, d in zip((pos, err, comfort_term(positions), digit, tm), div_h)
        ]
        obs_m[z + 1] = [v / d for v, d in zip((ref, pos, err, om, a_m, th), div_m)]

    trace = EpisodeTrace(
        *block, digit=digit_arr, machine_action=maction_arr, reward=reward_arr,
        decision_interval=interval,
    )
    terminal = np.arange(n) == n - 1
    reward_col = reward_arr[interval - 1 :: interval]
    return EpisodeResult(
        trace=trace,
        transitions_human=experience(
            obs_h[:-1], act_h, logp_h, reward_col, obs_h[1:], terminal
        ),
        transitions_machine=experience(
            obs_m[:-1], act_m, logp_m, reward_col, obs_m[1:], terminal
        ),
        total_reward=total_reward,
    )
