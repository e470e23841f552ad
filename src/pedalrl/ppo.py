"""Dual-agent PPO on the pedal environment.

Advantages are discounted sums of one-step TD errors computed backward over
the whole buffer; returns add the critic baseline back. The actor minimizes
the clipped surrogate; by default the entropy term enters as an exploration
bonus (subtracted from the minimized loss). Setting
``entropy_as_printed=True`` flips it to a penalty for literal reproduction
of the published form, at the cost of suppressing exploration.

Gradients are exact (hand-derived through the softmax and both tanh
layers) and are checked against central finite differences in the tests.
Optimization is plain gradient descent with optional momentum.
"""

from dataclasses import dataclass, field

import numpy as np

from .episode import OBS_DIM_HUMAN, OBS_DIM_MACHINE, EnvParams, SamplingPolicy, run_episode
from .nets import (
    MLPParams,
    backward,
    forward_cache,
    init_params,
    params_from_text,
    params_to_text,
    softmax_probs,
    zeros_like_params,
)

HUMAN_ACTIONS = 5
MACHINE_ACTIONS = 2


@dataclass(frozen=True)
class PPOHyper:
    gamma: float = 0.99
    clip: float = 0.2
    entropy_weight: float = 0.01
    batch_size: int = 64
    learning_rate: float = 3e-4
    update_epochs: int = 4
    # A minimum: rollouts add whole episodes until the buffer holds at least
    # this many transitions, so 60-decision episodes give 2100 per update.
    buffer_size: int = 2048
    momentum: float = 0.0
    entropy_as_printed: bool = False  # +entropy in the minimized loss (literal form)

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.clip < 1.0:
            raise ValueError("clip factor must lie in (0, 1)")
        if self.batch_size < 1 or self.batch_size > self.buffer_size:
            raise ValueError("need 1 <= batch_size <= buffer_size")
        if self.learning_rate < 0.0 or self.update_epochs < 1:
            raise ValueError("bad optimizer settings")


class ExperienceBuffer:
    """Time-ordered store of whole episodes' experience records.

    Each ``extend`` adds one record array from ``episode.experience``;
    advantages need the buffer filled to capacity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clear()

    def __len__(self):
        return self._size

    @property
    def full(self):
        return self._size >= self.capacity

    def extend(self, records):
        self._episodes.append(records)
        self._size += len(records)

    def clear(self):
        self._episodes = []
        self._size = 0

    def arrays(self):
        """(obs, actions, log_probs_old, rewards, next_obs, terminals), fresh and contiguous."""
        if not self._episodes:
            raise ValueError("empty buffer")
        return tuple(
            np.concatenate([ep[name] for ep in self._episodes])
            for name in self._episodes[0].dtype.names
        )


def critic_values(params: MLPParams, obs: np.ndarray) -> np.ndarray:
    out, _ = forward_cache(params, obs)
    return out[:, 0]


def compute_advantages(rewards, values, next_values, terminals, gamma: float):
    """Discounted sums of TD errors for every buffer position.

    The TD error at step i bootstraps the critic value of the next
    observation, taken as 0 past a terminal. The same mask stops the
    discounted accumulation at episode boundaries; on a terminal-free buffer
    this reduces exactly to the plain discounted sum over i = t .. end.
    """
    mask = np.where(terminals, 0.0, 1.0)
    delta = rewards + gamma * mask * next_values - values
    n = len(delta)
    q = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        acc = delta[t] + gamma * mask[t] * acc
        q[t] = acc
    return q


def compute_returns(advantages: np.ndarray, values: np.ndarray) -> np.ndarray:
    return advantages + values


def critic_loss(returns: np.ndarray, values: np.ndarray) -> float:
    diff = returns - values
    return float((diff * diff).sum() / (2.0 * len(returns)))


def clip_ratio(ratio, eps: float):
    """max(min(ratio, 1+eps), 1-eps); works on scalars and arrays."""
    return np.maximum(np.minimum(ratio, 1.0 + eps), 1.0 - eps)


def entropy_term(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy per row, in nats."""
    p = probabilities
    return -(p * np.log(p)).sum(axis=-1)


def critic_grads(params: MLPParams, obs: np.ndarray, returns: np.ndarray):
    """(loss, exact parameter gradients) of the squared-error value loss."""
    out, cache = forward_cache(params, obs)
    v = out[:, 0]
    loss = critic_loss(returns, v)
    d_out = ((v - returns) / len(returns))[:, None]
    return loss, backward(params, cache, d_out)


def actor_loss_parts(
    params: MLPParams,
    obs: np.ndarray,
    actions: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    hyper: PPOHyper,
):
    """Per-sample pieces of the clipped surrogate; shared by loss and grads."""
    logits, cache = forward_cache(params, obs)
    p = softmax_probs(logits)
    idx = np.arange(len(actions))
    p_a = p[idx, actions]
    q_a = np.exp(log_prob_old)
    ratio = p_a / q_a
    if not np.all(np.isfinite(ratio)):
        raise ValueError("non-finite policy ratio")
    surr_raw = ratio * advantages
    surr_clip = clip_ratio(ratio, hyper.clip) * advantages
    unclipped = surr_raw <= surr_clip  # ties keep the differentiable branch
    ent = entropy_term(p)
    ent_sign = 1.0 if hyper.entropy_as_printed else -1.0
    b = len(actions)
    loss = float(
        (-np.minimum(surr_raw, surr_clip) + ent_sign * hyper.entropy_weight * ent).sum()
        / b
    )
    return loss, p, cache, ratio, unclipped, ent, ent_sign


def actor_grads(params, obs, actions, log_prob_old, advantages, hyper):
    """(loss, exact parameter gradients) of the clipped surrogate loss.

    d/dlogits of the surrogate is nonzero only on the unclipped branch:
    -Q * (p_a/q_a) * (1[j=a] - p_j). The entropy part contributes
    -sign * (-p_j (ln p_j + K)). The probability floor is treated as
    inactive; it binds only at logit spreads past ~18.
    """
    loss, p, cache, ratio, unclipped, ent, ent_sign = actor_loss_parts(
        params, obs, actions, log_prob_old, advantages, hyper
    )
    b, n_act = p.shape
    idx = np.arange(b)
    g = np.where(unclipped, advantages, 0.0)  # surrogate weight per sample
    d_logits = -(g * ratio)[:, None] * (-p)
    d_logits[idx, actions] -= g * ratio
    # entropy: dK/dz_j = -p_j (ln p_j + K)
    d_logits += ent_sign * hyper.entropy_weight * (-p * (np.log(p) + ent[:, None]))
    d_logits /= b
    return loss, backward(params, cache, d_logits)


def sgd_step(params: MLPParams, grads: MLPParams, velocity: MLPParams, hyper: PPOHyper):
    """In-place descent step with optional momentum."""
    for (_, p), (_, g), (_, v) in zip(params.arrays(), grads.arrays(), velocity.arrays()):
        v *= hyper.momentum
        v -= hyper.learning_rate * g
        p += v


@dataclass
class Agent:
    """Actor, critic, optimizer state and the experience buffer of one agent."""

    actor: MLPParams
    critic: MLPParams
    buffer: ExperienceBuffer
    vel_actor: MLPParams
    vel_critic: MLPParams


def make_agent(rng, obs_dim: int, n_actions: int, buffer_size: int) -> Agent:
    actor = init_params(rng, obs_dim, n_actions)
    critic = init_params(rng, obs_dim, 1)
    return Agent(
        actor=actor,
        critic=critic,
        buffer=ExperienceBuffer(buffer_size),
        vel_actor=zeros_like_params(actor),
        vel_critic=zeros_like_params(critic),
    )


def update_agent(agent: Agent, hyper: PPOHyper, rng) -> list:
    """One PPO update cycle on a filled buffer; clears the buffer after.

    Advantages and returns are computed once against the pre-update critic
    and stay frozen across the epochs; ratio denominators are the log-probs
    stored at collection time, i.e. the policy snapshot that filled the
    buffer. Any non-finite loss aborts before parameters are touched.
    """
    if not agent.buffer.full:
        raise ValueError(
            "buffer holds %d of %d transitions" % (len(agent.buffer), agent.buffer.capacity)
        )
    obs, actions, logp_old, rewards, next_obs, terminals = agent.buffer.arrays()
    values = critic_values(agent.critic, obs)
    next_values = critic_values(agent.critic, next_obs)
    advantages = compute_advantages(rewards, values, next_values, terminals, hyper.gamma)
    returns = compute_returns(advantages, values)

    n = len(actions)
    trace = []
    for _ in range(hyper.update_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, hyper.batch_size):
            sel = order[lo : lo + hyper.batch_size]
            loss_c, grads_c = critic_grads(agent.critic, obs[sel], returns[sel])
            loss_a, grads_a = actor_grads(
                agent.actor, obs[sel], actions[sel], logp_old[sel], advantages[sel], hyper
            )
            if not (np.isfinite(loss_c) and np.isfinite(loss_a)):
                raise RuntimeError(
                    "diverged: critic loss %r, actor loss %r" % (loss_c, loss_a)
                )
            sgd_step(agent.critic, grads_c, agent.vel_critic, hyper)
            sgd_step(agent.actor, grads_a, agent.vel_actor, hyper)
            trace.append((loss_c, loss_a))
    agent.buffer.clear()
    return trace


def update_agents(agents: dict, hyper: PPOHyper, rng) -> dict:
    """Update every agent in turn (stable key order); returns loss traces."""
    return {name: update_agent(agents[name], hyper, rng) for name in sorted(agents)}


@dataclass
class TrainResult:
    human: Agent
    machine: Agent
    value_curve: np.ndarray  # cumulative shared reward per rollout episode
    loss_traces: list = field(default_factory=list)


def train(env: EnvParams, hyper: PPOHyper, seed: int, n_updates: int) -> TrainResult:
    """Co-adaptive training: both agents collect with frozen params, then update.

    Fully deterministic in (env, hyper, seed, n_updates): parameter init,
    rollout sampling and minibatch shuffling each draw from their own
    seed-sequence child.
    """
    ss = np.random.SeedSequence(seed)
    init_ss, rollout_ss, update_ss = ss.spawn(3)
    init_rng = np.random.default_rng(init_ss)
    rollout_rng = np.random.default_rng(rollout_ss)
    update_rng = np.random.default_rng(update_ss)

    human = make_agent(init_rng, OBS_DIM_HUMAN, HUMAN_ACTIONS, hyper.buffer_size)
    machine = make_agent(init_rng, OBS_DIM_MACHINE, MACHINE_ACTIONS, hyper.buffer_size)
    agents = {"human": human, "machine": machine}

    values = []
    loss_traces = []
    for _ in range(n_updates):
        while not human.buffer.full:
            res = run_episode(
                env, SamplingPolicy(human.actor), SamplingPolicy(machine.actor), rollout_rng
            )
            human.buffer.extend(res.transitions_human)
            machine.buffer.extend(res.transitions_machine)
            values.append(res.total_reward)
        loss_traces.append(update_agents(agents, hyper, update_rng))
    return TrainResult(
        human=human, machine=machine, value_curve=np.array(values), loss_traces=loss_traces
    )


CHECKPOINT_HEADER = "pedalrl-checkpoint 1"
CHECKPOINT_SECTIONS = ("human.actor", "human.critic", "machine.actor", "machine.critic")


def save_checkpoint(path, human: Agent, machine: Agent, meta: dict = None):
    """Write all four networks to one text file (exact float round-trip)."""
    nets = {
        "human.actor": human.actor, "human.critic": human.critic,
        "machine.actor": machine.actor, "machine.critic": machine.critic,
    }
    lines = [CHECKPOINT_HEADER]
    for key in sorted((meta or {})):
        lines.append("meta %s %s" % (key, meta[key]))
    for name in CHECKPOINT_SECTIONS:
        lines.append("section %s" % name)
        lines.append(params_to_text(nets[name]).rstrip("\n"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as {section name: MLPParams} plus 'meta'."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError("not a recognized checkpoint file: %s" % path)
    meta = {}
    sections = {}
    current = None
    block = []

    def flush():
        if current is not None:
            try:
                sections[current] = params_from_text("\n".join(block))
            except ValueError as exc:
                raise ValueError("%s: %s" % (current, exc)) from None

    for ln in lines[1:]:
        if ln.startswith("meta "):
            _, key, value = ln.split(" ", 2)
            meta[key] = value
        elif ln.startswith("section "):
            flush()
            current = ln.split(" ", 1)[1]
            block = []
        elif ln.strip():
            block.append(ln)
    flush()
    missing = set(CHECKPOINT_SECTIONS) - set(sections)
    if missing:
        raise ValueError("checkpoint missing sections: %s" % sorted(missing))
    sections["meta"] = meta
    return sections
