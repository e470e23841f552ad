"""Closed-loop episode runner: agents on top, fused substep kernel below.

Agents act every ``decision_interval`` plant substeps. One decision step is:
observe (both agents), pick a digit and a machine sub-controller, run the
substep block through the hot kernel, then score the shared reward over
sliding windows of block-boundary samples. The trace records every plant
substep; rewards land on block-final rows.

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
from .nets import actor_forward, sample_action
from .plant import PlantParams, ReferenceTrajectory, sample_reference
from .rewards import RewardWeights, comfort_term, machine_reward, shared_reward

OBS_DIM_HUMAN = 5  # position, error, smoothness, previous digit, machine torque
OBS_DIM_MACHINE = 6  # reference, position, error, omega, previous action, human torque


@dataclass(frozen=True)
class ObsScales:
    """Divisors that bring raw observation fields to O(1)."""

    angle: float
    torque: float
    omega: float
    digit: float = 2.0
    smooth: float = 1.0

    @staticmethod
    def from_config(plant: PlantParams, traj: ReferenceTrajectory) -> "ObsScales":
        angle = traj.amplitude if traj.amplitude > 0.0 else plant.angle_max
        return ObsScales(angle=angle, torque=plant.torque_limit, omega=plant.omega_max)


@dataclass(frozen=True)
class EnvParams:
    """Everything one episode needs, bundled.

    The episode shape has no defaults here; ``harness.ExperimentConfig``
    holds the shipped values.
    """

    plant: PlantParams
    reference: ReferenceTrajectory
    human: HumanParams
    setting: SettingConfig
    weights: RewardWeights
    window: int  # k: decision steps per reward window
    decision_interval: int  # plant substeps per decision
    n_decisions: int
    use_machine_reward: bool = False  # give agent 1 its own omega-penalized variant

    def __post_init__(self):
        # Each message starts with the field name; ``harness.make_env``
        # prefixes the config section to make it the config key.
        for name, least in (("window", 3), ("decision_interval", 1), ("n_decisions", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError("%s must be >= %d, got %d" % (name, least, value))


@dataclass(frozen=True)
class Transition:
    """One decision step as seen by a single agent."""

    obs: np.ndarray
    action: int
    log_prob_old: float
    reward: float
    next_obs: np.ndarray
    terminal: bool

    def __post_init__(self):
        if self.log_prob_old > 0.0:
            raise ValueError("log probability cannot be positive")
        if not np.isfinite(self.reward):
            raise ValueError("non-finite reward")


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
    transitions_human: list
    transitions_machine: list
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
        dist = actor_forward(self.params, obs)
        idx = int(np.argmax(dist.probabilities))
        return idx, float(dist.log_probabilities[idx])


def observe_human(angle, t, sm, prev_digit, tau_m, traj, scales) -> np.ndarray:
    e_t = sample_reference(traj, t) - angle
    return np.array(
        [
            angle / scales.angle,
            e_t / scales.angle,
            sm / scales.smooth,
            prev_digit / scales.digit,
            tau_m / scales.torque,
        ]
    )


def observe_machine(angle, t, omega, prev_action, tau_h, traj, scales) -> np.ndarray:
    r_p = sample_reference(traj, t)
    return np.array(
        [
            r_p / scales.angle,
            angle / scales.angle,
            (r_p - angle) / scales.angle,
            omega / scales.omega,
            float(prev_action),
            tau_h / scales.torque,
        ]
    )


def run_episode(env: EnvParams, human_policy, machine_policy, rng) -> EpisodeResult:
    """Roll one full episode; returns the trace and both agents' transitions."""
    scales = ObsScales.from_config(env.plant, env.reference)
    k = env.window
    interval = env.decision_interval
    n_total = env.n_decisions * interval

    sim = np.zeros(kernels.SIM_SIZE)
    queue = np.zeros(env.human.reaction_delay, dtype=np.int64)
    constants, bank = kernels.pack(env)

    block = np.empty((kernels.TRACE_ROWS, n_total))
    # Views of the trace block, one per float field of EpisodeTrace.
    _, ref_arr, pos_arr, om_arr, tm_arr, th_arr = block
    digit_arr = np.zeros(n_total, dtype=np.int64)
    maction_arr = np.zeros(n_total, dtype=np.int64)
    reward_arr = np.zeros(n_total)

    prev_digit = 0
    prev_m_idx = 0
    last_tau_m = 0.0
    last_tau_h = 0.0
    transitions_h = []
    transitions_m = []

    obs_h = observe_human(
        sim[kernels.SIM_ANGLE], sim[kernels.SIM_T], 0.0, prev_digit, last_tau_m,
        env.reference, scales,
    )
    obs_m = observe_machine(
        sim[kernels.SIM_ANGLE], sim[kernels.SIM_T], sim[kernels.SIM_OMEGA],
        prev_m_idx, last_tau_h, env.reference, scales,
    )

    total_reward = 0.0
    for z in range(env.n_decisions):
        a_h, logp_h = human_policy.act(obs_h, rng)
        a_m, logp_m = machine_policy.act(obs_m, rng)
        digit = DIGITS[a_h]
        if a_m != prev_m_idx and z > 0:
            # stale windup belongs to the other gain set; derivative history carries
            sim[kernels.SIM_M_INTEGRAL] = 0.0
        noise = rng.standard_normal(interval) * env.human.noise_std

        start = z * interval
        kernels.run_substeps(
            sim, queue, digit, a_m, constants, bank, noise, block, start, interval
        )
        row = start + interval - 1
        digit_arr[start : start + interval] = digit
        maction_arr[start : start + interval] = a_m
        # Windows are the block-final rows of the trace: the last k decisions,
        # or fewer before the k-th one.
        lo = max(row - (k - 1) * interval, interval - 1)
        positions = pos_arr[lo : row + 1 : interval].tolist()

        reward = 0.0
        reward_m = 0.0
        if z >= k - 1:
            reference = ref_arr[lo : row + 1 : interval].tolist()
            actions = digit_arr[lo : row + 1 : interval].tolist()
            reward = shared_reward(positions, reference, actions, env.weights)
            reward_m = reward
            if env.use_machine_reward and z >= k:
                lo_m = lo - interval  # the machine window is one decision longer
                reward_m = machine_reward(
                    pos_arr[lo_m : row + 1 : interval].tolist(),
                    ref_arr[lo_m : row + 1 : interval].tolist(),
                    om_arr[row], env.weights.sigma, env.weights.beta,
                )
        reward_arr[row] = reward
        total_reward += reward

        prev_digit = digit
        prev_m_idx = a_m
        last_tau_m = tm_arr[row]
        last_tau_h = th_arr[row]
        sm = comfort_term(positions)
        next_obs_h = observe_human(
            sim[kernels.SIM_ANGLE], sim[kernels.SIM_T], sm, prev_digit, last_tau_m,
            env.reference, scales,
        )
        next_obs_m = observe_machine(
            sim[kernels.SIM_ANGLE], sim[kernels.SIM_T], sim[kernels.SIM_OMEGA],
            prev_m_idx, last_tau_h, env.reference, scales,
        )
        terminal = z == env.n_decisions - 1
        transitions_h.append(
            Transition(obs_h, a_h, logp_h, reward, next_obs_h, terminal)
        )
        transitions_m.append(
            Transition(obs_m, a_m, logp_m, reward_m, next_obs_m, terminal)
        )
        obs_h = next_obs_h
        obs_m = next_obs_m

    trace = EpisodeTrace(
        *block, digit=digit_arr, machine_action=maction_arr, reward=reward_arr,
        decision_interval=interval,
    )
    return EpisodeResult(
        trace=trace,
        transitions_human=transitions_h,
        transitions_machine=transitions_m,
        total_reward=total_reward,
    )
