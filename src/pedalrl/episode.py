"""Closed-loop episode runner: agents on top, fused substep kernel below.

Agents act every ``decision_interval`` plant substeps. One decision step is:
observe (both agents), pick a digit and a machine sub-controller, run the
substep block through the hot kernel (which owns the switch rule), then
score the shared reward over a sliding window of the last ``window``
block-final samples. The trace's time and reference rows view the env's
clock (``plant.clock``, built once per env). The kernel gets memoryviews of
the clock's reference row, of the trace block's rows, the simulation state
and the delay queue (all three from ``kernels.buffers``) and of each
decision's noise, because its uncompiled body reads and writes a
memoryview element several times faster than a numpy array's. The
block-final values are read once per decision from those row views as
Python floats. The comfort term of each decision's window is scored once:
the reward and the next human observation share it. Each agent's
observations (values over ``obs_divisors``)
sit in one ``(n_decisions, dim)`` array, each computed by one formula and
stored once: row z, at the top of decision z, from decision z - 1's
block-final values, or from the pedal at rest for z = 0. A policy is
handed row z as a 1-D view, which is never rewritten, so it may keep it.
The trace records every plant substep and each decision's digit, machine
action and reward once; the reward also goes to both agents'
``experience``, one record array per agent and episode, whose row z + 1
holds row z's next observation.

RNG discipline: per decision step the stream is consumed in a fixed order
(human sample, machine sample, one noise vector), and non-sampling policies
(greedy, remote) consume nothing. All draws happen here at Python
level, never inside the kernel, so results are identical across the numba
and pure-Python backends.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, plant
from .controllers import SettingConfig
from .human import DIGITS, HumanParams
from .nets import actor_forward, greedy_action, sample_action
from .plant import PlantParams, ReferenceTrajectory
from .rewards import comfort_term, shared_reward

OBS_DIM_HUMAN = 5  # position, error, comfort, previous digit, machine torque
OBS_DIM_MACHINE = 6  # reference, position, error, omega, previous action, human torque


@dataclass(frozen=True)
class EnvParams:
    """Everything one episode needs, bundled.

    No field has a default or a bound here: ``harness.ExperimentConfig``
    holds the shipped values and ``harness.BOUNDS`` their bounds.
    """

    plant: PlantParams
    reference: ReferenceTrajectory
    human: HumanParams
    setting: SettingConfig  # its ``weights`` score the shared reward
    window: int  # k: decision steps per reward window
    decision_interval: int  # plant substeps per decision
    n_decisions: int


def obs_divisors(env: EnvParams) -> tuple:
    """(human, machine) float tuples that bring observation fields to O(1).

    Angles go over the reference amplitude (the upper stop for a flat
    reference), torques over the torque limit, omega over its limit, the
    digit over 2; the comfort term and the machine action stay as they are.
    """
    p = env.plant
    angle = env.reference.amplitude if env.reference.amplitude > 0.0 else p.angle_max
    human = (angle, angle, 1.0, 2.0, p.torque_limit)
    machine = (angle, angle, angle, p.omega_max, 1.0, p.torque_limit)
    return tuple(map(float, human)), tuple(map(float, machine))


def experience(obs, action, log_prob_old, reward, terminal) -> np.recarray:
    """One agent's decisions as a record array, one row per decision.

    Fields: ``obs``, ``action``, ``log_prob_old``, ``reward`` and ``terminal``;
    a row's next observation is the next row's ``obs``. Raises ValueError
    naming the first row with a positive log probability or a non-finite reward.
    """
    obs = np.asarray(obs, dtype=np.float64)
    log_prob_old = np.asarray(log_prob_old, dtype=np.float64)
    reward = np.asarray(reward, dtype=np.float64)
    bad = (log_prob_old > 0.0) | ~np.isfinite(reward)
    if bad.any():
        z = int(np.argmax(bad))
        if log_prob_old[z] > 0.0:
            raise ValueError("experience row %d: log probability cannot be positive" % z)
        raise ValueError("experience row %d: non-finite reward" % z)
    n, dim = obs.shape
    # Filled as a plain structured array and viewed as a recarray once: each
    # field write to a recarray would make (and finalize) one more recarray view.
    rec = np.empty(n, dtype=[
        ("obs", np.float64, (dim,)), ("action", np.int64), ("log_prob_old", np.float64),
        ("reward", np.float64), ("terminal", bool),
    ])
    columns = (obs, action, log_prob_old, reward, terminal)
    for name, column in zip(rec.dtype.names, columns):
        rec[name] = column
    return rec.view(np.recarray)


@dataclass
class EpisodeTrace:
    """Record of one episode: six plant-rate rows and three decision-rate columns.

    ``time`` to ``tau_human`` hold one value per plant substep; ``digit``,
    ``machine_action`` and ``reward`` hold one per decision. Decision z
    spans substeps ``z * decision_interval`` to ``(z + 1) *
    decision_interval - 1``, and its reward is scored at the last of them.
    The time and reference rows are read-only views of the env's clock
    (:func:`pedalrl.plant.clock`), shared by every episode of an env.
    """

    time: np.ndarray
    reference: np.ndarray
    position: np.ndarray
    omega: np.ndarray
    tau_machine: np.ndarray
    tau_human: np.ndarray
    digit: np.ndarray  # commanded digit of each decision
    machine_action: np.ndarray  # selected sub-controller index of each decision
    reward: np.ndarray  # shared reward of each decision
    decision_interval: int

    def __len__(self):
        return self.time.shape[0]


@dataclass
class EpisodeResult:
    """An episode's trace and each agent's ``experience``: row z is decision z's."""

    trace: EpisodeTrace
    transitions_human: np.recarray
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
    weights = env.setting.weights
    noise_std = env.human.noise_std
    div_h, div_m = obs_divisors(env)
    dh_pos, dh_err, dh_comfort, dh_digit, dh_tm = div_h
    dm_ref, dm_pos, dm_err, dm_om, dm_act, dm_th = div_m

    constants, bank = kernels.pack(env)
    clock = plant.clock(env.reference, env.plant.dt, n * interval)
    ref_clock = memoryview(clock[1])
    block, sim, queue, rows = kernels.buffers(env.human.reaction_delay, n * interval)
    pos_row, om_row, tm_row, th_row = rows

    obs_h = np.empty((n, len(div_h)))
    obs_m = np.empty((n, len(div_m)))
    act_h, act_m, logp_h, logp_m = [], [], [], []
    # Block-final position, reference and digit per decision: the reward
    # windows are their last k entries.
    positions, references, digits, rewards = [], [], [], []
    total_reward = 0.0
    # Decision z observes decision z - 1's block-final values and the comfort
    # of its window, decision 0 the pedal at rest and an empty history.
    ref, pos, om, tm, th, comfort = ref_clock[0], 0.0, 0.0, 0.0, 0.0, 0.0
    digit = a_m = 0
    for z in range(n):
        err = ref - pos
        obs_h[z] = (
            pos / dh_pos, err / dh_err, comfort / dh_comfort, digit / dh_digit, tm / dh_tm,
        )
        obs_m[z] = (
            ref / dm_ref, pos / dm_pos, err / dm_err, om / dm_om, a_m / dm_act, th / dm_th,
        )
        a_h, lp_h = human_policy.act(obs_h[z], rng)
        a_m, lp_m = machine_policy.act(obs_m[z], rng)
        digit = DIGITS[a_h]
        noise = rng.standard_normal(interval)
        noise *= noise_std
        kernels.run_substeps(
            sim, queue, digit, a_m, constants, bank, memoryview(noise), ref_clock, rows,
            z * interval, interval,
        )
        c = (z + 1) * interval - 1
        ref, pos, om, tm, th = ref_clock[c + 1], pos_row[c], om_row[c], tm_row[c], th_row[c]
        act_h.append(a_h)
        act_m.append(a_m)
        logp_h.append(lp_h)
        logp_m.append(lp_m)
        positions.append(pos)
        references.append(ref)
        digits.append(digit)
        window = positions[-k:]
        # scored once: the reward and the next human observation share it
        comfort = comfort_term(window)

        reward = 0.0
        if z >= k - 1:
            reward = shared_reward(window, references[-k:], digits[-k:], weights, comfort)
        rewards.append(reward)
        total_reward += reward

    trace = EpisodeTrace(
        clock[0, 1:], clock[1, 1:], *block, digit=np.array(digits, dtype=np.int64),
        machine_action=np.array(act_m, dtype=np.int64), reward=np.array(rewards),
        decision_interval=interval,
    )
    terminal = np.arange(n) == n - 1
    return EpisodeResult(
        trace=trace,
        transitions_human=experience(obs_h, act_h, logp_h, rewards, terminal),
        transitions_machine=experience(obs_m, act_m, logp_m, rewards, terminal),
        total_reward=total_reward,
    )
