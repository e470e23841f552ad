"""Dual-agent PPO on the pedal environment.

Advantages are discounted sums of one-step TD errors computed backward over
the whole buffer of whole episodes, where row i + 1's observation is row i's
next one (masked past a terminal); returns add the critic baseline back. The
actor minimizes the clipped surrogate minus the weighted entropy, an
exploration bonus. The paper prints the entropy term with the other sign;
this code uses the bonus.

Gradients are exact (hand-derived through the softmax and both tanh
layers) and are checked against central finite differences in the tests.
Optimization is plain gradient descent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import read_utf8, write_utf8
from .episode import OBS_DIM_HUMAN, OBS_DIM_MACHINE, EnvParams, SamplingPolicy, run_episode
from .human import DIGITS
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

HUMAN_ACTIONS = len(DIGITS)
MACHINE_ACTIONS = 2
# Rows per critic_values block: a multiple of 4, so blocks keep BLAS's row panels.
VALUE_ROWS = 256


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


class ExperienceBuffer:
    """Time-ordered store of whole episodes' experience records.

    Each ``extend`` adds one episode's ``episode.experience``, so row i + 1
    holds row i's next observation; advantages need the buffer filled to capacity.
    """

    def __init__(self, capacity: int):
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
        """(obs, actions, log_probs_old, rewards, terminals), fresh and contiguous."""
        if not self._episodes:
            raise ValueError("empty buffer")
        return tuple(
            np.concatenate([ep[name] for ep in self._episodes])
            for name in self._episodes[0].dtype.names
        )


def critic_values(params: MLPParams, obs: np.ndarray) -> np.ndarray:
    """The critic's value of each row of ``obs``, valued ``VALUE_ROWS`` rows at a time.

    Each block starts at a multiple of ``VALUE_ROWS``, and a remainder
    shorter than that joins the last full block, so at most ``2 *
    VALUE_ROWS - 1`` rows of activations are alive at once. Every row keeps
    its place within BLAS's 4-row panels, so each value has the bits of
    one ``forward_cache`` call over all rows at one BLAS thread. The blocks
    also keep those bits at two threads, where one call over thousands of
    rows may not.
    """
    n = len(obs)
    values = np.empty(n)
    last = max(n // VALUE_ROWS - 1, 0) * VALUE_ROWS  # where the last block starts
    for start in range(0, last, VALUE_ROWS):
        stop = start + VALUE_ROWS
        values[start:stop] = forward_cache(params, obs[start:stop])[0][:, 0]
    values[last:] = forward_cache(params, obs[last:])[0][:, 0]
    return values


def compute_advantages(rewards, values, next_values, terminals, gamma: float):
    """Discounted sums of TD errors for every buffer position.

    The TD error at step i bootstraps the critic value of the next
    observation, taken as 0 past a terminal. The same mask stops the
    discounted accumulation at episode boundaries; on a terminal-free buffer
    this reduces exactly to the plain discounted sum over i = t .. end.
    """
    mask = np.where(terminals, 0.0, 1.0)
    delta = rewards + gamma * mask * next_values - values
    # The backward pass runs on Python floats, which round like float64.
    q = delta.tolist()
    discount = (gamma * mask).tolist()
    acc = 0.0
    for t in range(len(q) - 1, -1, -1):
        acc = q[t] + discount[t] * acc
        q[t] = acc
    return np.array(q)


def critic_loss(returns: np.ndarray, values: np.ndarray) -> float:
    diff = returns - values
    return float((diff * diff).sum() / (2.0 * len(returns)))


def clip_ratio(ratio, eps: float):
    """max(min(ratio, 1+eps), 1-eps); works on scalars and arrays."""
    return np.maximum(np.minimum(ratio, 1.0 + eps), 1.0 - eps)


def entropy_term(probabilities: np.ndarray, log_probabilities: np.ndarray = None) -> np.ndarray:
    """Shannon entropy per row, in nats (``log_probabilities`` saves the log)."""
    p = probabilities
    log_p = np.log(p) if log_probabilities is None else log_probabilities
    return -(p * log_p).sum(axis=-1)


def critic_grads(params: MLPParams, obs: np.ndarray, returns: np.ndarray, out=None):
    """(loss, exact parameter gradients) of the squared-error value loss.

    The gradients are written into ``out`` when given (see ``nets.backward``).
    """
    raw, cache = forward_cache(params, obs)
    v = raw[:, 0]
    loss = critic_loss(returns, v)
    d_out = ((v - returns) / len(returns))[:, None]
    return loss, backward(params, cache, d_out, out)


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
    if not np.isfinite(ratio).all():
        raise ValueError("non-finite policy ratio")
    surr_raw = ratio * advantages
    surr_clip = clip_ratio(ratio, hyper.clip) * advantages
    unclipped = surr_raw <= surr_clip  # ties keep the differentiable branch
    log_p = np.log(p)
    ent = entropy_term(p, log_p)
    b = len(actions)
    loss = float((-np.minimum(surr_raw, surr_clip) - hyper.entropy_weight * ent).sum() / b)
    return loss, p, log_p, cache, ratio, unclipped, ent


def actor_grads(params, obs, actions, log_prob_old, advantages, hyper, out=None):
    """(loss, exact parameter gradients) of the clipped surrogate loss.

    d/dlogits of the surrogate is nonzero only on the unclipped branch:
    -Q * (p_a/q_a) * (1[j=a] - p_j). The entropy bonus contributes
    p_j (ln p_j + K) per unit weight. The probability floor is treated as
    inactive; it binds only at logit spreads past ~18. The gradients are
    written into ``out`` when given (see ``nets.backward``).
    """
    loss, p, log_p, cache, ratio, unclipped, ent = actor_loss_parts(
        params, obs, actions, log_prob_old, advantages, hyper
    )
    b, n_act = p.shape
    idx = np.arange(b)
    # surrogate weight per sample, formed once: the loss's -g * ratio * (1[j=a] - p_j)
    # is g * ratio * p_j minus g * ratio at the action (sign flips are exact)
    gr = np.where(unclipped, advantages, 0.0) * ratio
    d_logits = gr[:, None] * p
    d_logits[idx, actions] -= gr
    # entropy: dK/dz_j = -p_j (ln p_j + K), and the loss subtracts K
    d_logits += hyper.entropy_weight * (p * (log_p + ent[:, None]))
    d_logits /= b
    return loss, backward(params, cache, d_logits, out)


def sgd_step(params: MLPParams, grads: MLPParams, hyper: PPOHyper):
    """In-place descent step on the flat vectors."""
    params.vector -= hyper.learning_rate * grads.vector


@dataclass
class Agent:
    """Actor, critic and the experience buffer of one agent."""

    actor: MLPParams
    critic: MLPParams
    buffer: ExperienceBuffer


def make_agent(rng, obs_dim: int, n_actions: int, buffer_size: int) -> Agent:
    actor = init_params(rng, obs_dim, n_actions)
    critic = init_params(rng, obs_dim, 1)
    return Agent(actor=actor, critic=critic, buffer=ExperienceBuffer(buffer_size))


# Overflow inside an update is caught by the finiteness checks, which name
# the minibatch; numpy's own warnings would only repeat it.
@np.errstate(all="ignore")
def update_agent(agent: Agent, hyper: PPOHyper, rng) -> list:
    """One PPO update cycle on a filled buffer; clears the buffer after.

    Advantages and returns are computed once against the pre-update critic
    and stay frozen across the epochs; ratio denominators are the log-probs
    stored at collection time, i.e. the policy snapshot that filled the
    buffer. Any non-finite loss or gradient aborts before parameters are
    touched, with a ValueError naming the epoch and the minibatch. Every
    minibatch's gradients are written into the same two flat buffers,
    allocated here so that an agent that is never updated holds none.
    """
    if not agent.buffer.full:
        raise ValueError(
            "buffer holds %d of %d transitions" % (len(agent.buffer), agent.buffer.capacity)
        )
    obs, actions, logp_old, rewards, terminals = agent.buffer.arrays()
    values = critic_values(agent.critic, obs)
    # Row i + 1 is row i's next observation, masked past a terminal. Rolled, a
    # row keeps its index in an array of the same length, and so its value's
    # bits; ``values[1:]`` would shift the index, which can change them.
    next_values = critic_values(agent.critic, np.roll(obs, -1, axis=0))
    advantages = compute_advantages(rewards, values, next_values, terminals, hyper.gamma)
    returns = advantages + values

    n = len(actions)
    n_batches = -(-n // hyper.batch_size)
    grad_actor, grad_critic = zeros_like_params(agent.actor), zeros_like_params(agent.critic)
    trace = []
    for epoch in range(hyper.update_epochs):
        # One gather per epoch; each minibatch is then a contiguous slice.
        order = rng.permutation(n)
        ob, act, lp, adv, ret = (
            a[order] for a in (obs, actions, logp_old, advantages, returns)
        )
        for k in range(n_batches):
            mb = slice(k * hyper.batch_size, (k + 1) * hyper.batch_size)
            try:
                loss_c, grads_c = critic_grads(agent.critic, ob[mb], ret[mb], grad_critic)
                loss_a, grads_a = actor_grads(
                    agent.actor, ob[mb], act[mb], lp[mb], adv[mb], hyper, grad_actor
                )
                if not (math.isfinite(loss_c) and math.isfinite(loss_a)):
                    raise ValueError(
                        "non-finite loss: critic %r, actor %r" % (loss_c, loss_a)
                    )
            except ValueError as exc:
                raise ValueError(
                    "epoch %d of %d, minibatch %d of %d: %s"
                    % (epoch + 1, hyper.update_epochs, k + 1, n_batches, exc)
                ) from None
            sgd_step(agent.critic, grads_c, hyper)
            sgd_step(agent.actor, grads_a, hyper)
            trace.append((loss_c, loss_a))
    agent.buffer.clear()
    return trace


def update_agents(agents: dict, hyper: PPOHyper, rng) -> dict:
    """Update every agent in turn (stable key order); returns loss traces.

    A failed update raises ValueError naming the agent.
    """
    traces = {}
    for name in sorted(agents):
        try:
            traces[name] = update_agent(agents[name], hyper, rng)
        except ValueError as exc:
            raise ValueError("agent %s, %s" % (name, exc)) from None
    return traces


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
    seed-sequence child. A ValueError from a rollout names its update and
    its episode within the update; one from an update names the update.
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
    for update in range(n_updates):
        episode = 0
        while not human.buffer.full:
            episode += 1
            try:
                res = run_episode(
                    env, SamplingPolicy(human.actor), SamplingPolicy(machine.actor), rollout_rng
                )
            except ValueError as exc:
                raise ValueError("PPO update %d of %d, rollout episode %d: %s" % (
                    update + 1, n_updates, episode, exc)) from None
            human.buffer.extend(res.transitions_human)
            machine.buffer.extend(res.transitions_machine)
            values.append(res.total_reward)
        try:
            loss_traces.append(update_agents(agents, hyper, update_rng))
        except ValueError as exc:
            raise ValueError(
                "PPO update %d of %d diverged: %s" % (update + 1, n_updates, exc)
            ) from None
    return TrainResult(
        human=human, machine=machine, value_curve=np.array(values), loss_traces=loss_traces
    )


CHECKPOINT_HEADER = "pedalrl-checkpoint 1"
# Each section's network as (inputs, outputs): what its agent feeds it and reads.
CHECKPOINT_SIZES = {
    "human.actor": (OBS_DIM_HUMAN, HUMAN_ACTIONS), "human.critic": (OBS_DIM_HUMAN, 1),
    "machine.actor": (OBS_DIM_MACHINE, MACHINE_ACTIONS), "machine.critic": (OBS_DIM_MACHINE, 1),
}
CHECKPOINT_SECTIONS = tuple(CHECKPOINT_SIZES)


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
    write_utf8(path, "\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as {section name: MLPParams} plus 'meta', sizes checked.

    Each ValueError starts with ``path`` and names the line at fault where
    there is one; an unknown or repeated section is an error.
    """
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError("%s: not a recognized checkpoint file" % path)
    meta, blocks, block = {}, {}, None  # blocks: name -> (first line number, lines)
    for at, ln in enumerate(lines[1:], 2):
        word, _, rest = ln.partition(" ")
        if word == "meta":
            key, sep, value = rest.partition(" ")
            if not sep:
                raise ValueError("%s: line %d: bad meta line %r" % (path, at, ln))
            meta[key] = value
        elif word == "section":
            if rest in blocks or rest not in CHECKPOINT_SIZES:
                raise ValueError("%s: line %d: %s section %r" % (
                    path, at, "repeated" if rest in blocks else "unknown", rest))
            block = blocks[rest] = (at + 1, [])
        elif block is not None:
            block[1].append(ln)
        elif ln.strip():
            raise ValueError("%s: line %d: expected a meta or section line" % (path, at))
    sections = {}
    for name, (first, block) in blocks.items():
        try:
            sections[name] = params_from_text("\n".join(block), first)
        except ValueError as exc:
            raise ValueError("%s: %s: %s" % (path, name, exc)) from None
    missing = set(CHECKPOINT_SECTIONS) - set(sections)
    if missing:
        raise ValueError("%s: missing sections: %s" % (path, sorted(missing)))
    for name, want in CHECKPOINT_SIZES.items():
        dims = sections[name].dims
        if (dims[0], dims[-1]) != want:
            raise ValueError(
                "%s: section %s has %d inputs and %d outputs, expected %d and %d"
                % (path, name, dims[0], dims[-1], *want)
            )
    sections["meta"] = meta
    return sections
