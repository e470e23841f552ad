import copy
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import make_test_env, run_at_blas_threads
from pedalrl import ppo
from pedalrl.episode import (
    OBS_DIM_HUMAN,
    OBS_DIM_MACHINE,
    SamplingPolicy,
    experience,
    run_episode,
)
from pedalrl.harness import config_from_dict
from pedalrl.nets import (
    actor_forward,
    forward_cache,
    init_params,
    softmax_probs,
    zeros_like_params,
)
from pedalrl.ppo import (
    ExperienceBuffer,
    PPOHyper,
    actor_grads,
    actor_loss_parts,
    clip_ratio,
    compute_advantages,
    critic_grads,
    critic_loss,
    critic_values,
    entropy_term,
    load_checkpoint,
    make_agent,
    save_checkpoint,
    sgd_step,
    train,
    update_agent,
    update_agents,
)


def fill_buffer(rng, capacity, obs_dim=3, n_actions=4, terminal_pattern=None):
    buf = ExperienceBuffer(capacity)
    rows = []
    for i in range(capacity):
        if terminal_pattern is None:
            terminal = bool(rng.random() < 0.15) or i == capacity - 1
        else:
            terminal = terminal_pattern[i]
        rows.append((
            rng.uniform(-1, 1, obs_dim),
            int(rng.integers(n_actions)),
            float(-rng.uniform(0.1, 2.0)),
            float(rng.normal()),
            terminal,
        ))
    buf.extend(experience(*zip(*rows)))  # rows to columns
    return buf


def buffer_advantages(buf, critic, gamma):
    """Advantages of a filled buffer, as ``update_agent`` computes them."""
    obs, _, _, rewards, terminals = buf.arrays()
    values = critic_values(critic, obs)
    next_values = critic_values(critic, np.roll(obs, -1, axis=0))
    return compute_advantages(rewards, values, next_values, terminals, gamma)


def test_buffer_bookkeeping():
    rng = np.random.default_rng(0)
    buf = fill_buffer(rng, 8)
    assert buf.full
    obs, actions, logp, rewards, terminals = buf.arrays()
    assert obs.shape == (8, 3)
    assert actions.dtype.kind == "i"
    assert terminals[-1]
    buf.clear()
    assert not buf.full
    assert len(buf) == 0

    obs = np.zeros((3, 2))
    for logp, reward, message in (
        ([-0.1, 0.2, -0.3], [0.0, 1.0, 2.0], "row 1: log probability cannot be positive"),
        ([-0.1, -0.2, -0.3], [0.0, 1.0, np.nan], "row 2: non-finite reward"),
    ):
        with pytest.raises(ValueError, match=message):
            experience(obs, [0, 1, 0], logp, reward, [False, False, True])


def test_advantages_match_double_loop_oracle():
    rng = np.random.default_rng(42)
    critic = init_params(rng, 3, 1)
    for _ in range(30):
        buf = fill_buffer(rng, 10)
        gamma = float(rng.uniform(0.1, 0.999))
        q = buffer_advantages(buf, critic, gamma)
        obs, _, _, rewards, terminals = buf.arrays()
        expected = oracles.advantage_double_loop(
            rewards.tolist(),
            critic_values(critic, obs).tolist(),
            critic_values(critic, np.roll(obs, -1, axis=0)).tolist(),
            terminals.tolist(),
            gamma,
        )
        for got, want in zip(q, expected):
            assert oracles.relative_error(got, want) <= 1e-12


def test_advantages_match_numpy_scalar_loop_bitwise():
    # the backward pass on Python floats rounds exactly like float64 scalars
    rng = np.random.default_rng(3)
    critic = init_params(rng, 3, 1)
    buf = fill_buffer(rng, 200)
    obs, _, _, rewards, terminals = buf.arrays()
    values = critic_values(critic, obs)
    next_values = critic_values(critic, np.roll(obs, -1, axis=0))
    gamma = 0.99
    mask = np.where(terminals, 0.0, 1.0)
    delta = rewards + gamma * mask * next_values - values
    expected = np.empty(len(delta))
    acc = np.float64(0.0)
    for t in range(len(delta) - 1, -1, -1):
        acc = delta[t] + gamma * mask[t] * acc
        expected[t] = acc
    got = compute_advantages(rewards, values, next_values, terminals, gamma)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_advantages_gamma_zero_reduces_to_td():
    rng = np.random.default_rng(1)
    critic = init_params(rng, 3, 1)
    buf = fill_buffer(rng, 12)
    q = buffer_advantages(buf, critic, 0.0)
    obs, _, _, rewards, _ = buf.arrays()
    assert np.allclose(q, rewards - critic_values(critic, obs), atol=1e-14)


def test_advantages_zero_critic_terminal_free():
    # with V = 0 and no interior terminals, Q_t is the plain discounted sum
    rng = np.random.default_rng(2)
    critic = zeros_like_params(init_params(rng, 3, 1))
    pattern = [False] * 9 + [True]
    buf = fill_buffer(rng, 10, terminal_pattern=pattern)
    gamma = 0.9
    q = buffer_advantages(buf, critic, gamma)
    _, _, _, rewards, _ = buf.arrays()
    for t in range(10):
        expected = sum(gamma ** (i - t) * rewards[i] for i in range(t, 10))
        assert q[t] == pytest.approx(expected, rel=1e-12)


# Seeded critics valuing N uniform rows: each value's bytes, critic by critic.
VALUES_SNIPPET = """
import sys
import numpy as np
from pedalrl.nets import forward_cache, init_params
from pedalrl.ppo import critic_values
for n in map(int, sys.argv[1:]):
    for seed in range(4):
        rng = np.random.default_rng([seed, n])
        critic = init_params(rng, 5 + seed % 2, 1)
        obs = rng.uniform(-2.0, 2.0, (n, critic.in_dim))
        values = critic_values(critic, obs)
        whole = forward_cache(critic, obs)[0][:, 0]
        sys.stdout.buffer.write(values.tobytes() + whole.tobytes())
"""


def split_values(out, sizes):
    """(values, whole) byte pairs of VALUES_SNIPPET's output, critic by critic."""
    pairs, at = [], 0
    for n in sizes:
        for _ in range(4):
            pairs.append((out[at : at + 8 * n], out[at + 8 * n : at + 16 * n]))
            at += 16 * n
    assert at == len(out)
    return pairs


def test_critic_values_match_one_forward_call_bitwise():
    # at one BLAS thread the blocks give the values of one call over all rows
    sizes = (1, 255, 256, 257, 511, 512, 513, 2049, 2100, 10001)
    pairs = split_values(run_at_blas_threads(1, VALUES_SNIPPET, *sizes), sizes)
    for k, (values, whole) in enumerate(pairs):
        assert values == whole, (sizes[k // 4], k % 4)


def test_critic_values_keep_their_bits_at_two_blas_threads():
    # one call over 10001 rows can change bits at two threads; the blocks do not
    one, two = (split_values(run_at_blas_threads(t, VALUES_SNIPPET, 10001), [10001])
                for t in (1, 2))
    assert [values for values, _ in one] == [values for values, _ in two]


# For each size and critic, one line per replaced row (first, middle, last):
# how many other rows' value bytes changed, and whether the replaced row's did.
ROW_SNIPPET = """
import sys
import numpy as np
from pedalrl.nets import init_params
from pedalrl.ppo import critic_values
for n in map(int, sys.argv[1:]):
    for dim in (5, 6):
        rng = np.random.default_rng([dim, n])
        critic = init_params(rng, dim, 1)
        obs = rng.uniform(-2.0, 2.0, (n, dim))
        base = critic_values(critic, obs)
        for row in (0, n // 2, n - 1):
            other = obs.copy()
            other[row] = rng.uniform(-2.0, 2.0, dim)
            values = critic_values(critic, other)
            changed = base.view(np.uint64) != values.view(np.uint64)
            print(n, dim, row, int(changed.sum() - changed[row]), bool(changed[row]))
"""
ROW_SIZES = (2, 3, 4, 5, 255, 256, 257, 511, 512, 513, 2048, 2049, 2100, 6001, 10001)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_row_value_depends_only_on_the_row_its_index_and_the_length(threads):
    # update_agent values the next observations as np.roll(obs, -1): each
    # non-terminal row's sits at its own index in an array of the buffer's
    # length, whatever the terminal rows hold, so its value may depend on no
    # other row. Random rows reach rounding that episode rows rarely do.
    lines = run_at_blas_threads(threads, ROW_SNIPPET, *ROW_SIZES).decode().splitlines()
    assert len(lines) == len(ROW_SIZES) * 2 * 3
    for line in lines:
        n, dim, row, others, own = line.split()
        assert (others, own) == ("0", "True"), line


def test_a_terminal_rows_next_observation_cannot_reach_the_advantages(monkeypatch):
    # the advantages update_agent computes on three real episodes equal those
    # of an explicit next-observation array, whatever its terminal rows hold
    env = make_test_env(n_decisions=20)
    rng = np.random.default_rng(8)
    agent = make_agent(rng, OBS_DIM_HUMAN, ppo.HUMAN_ACTIONS, buffer_size=60)
    machine = SamplingPolicy(init_params(rng, OBS_DIM_MACHINE, ppo.MACHINE_ACTIONS))
    for _ in range(3):
        agent.buffer.extend(run_episode(env, SamplingPolicy(agent.actor), machine, rng)
                            .transitions_human)
    obs, _, _, rewards, terminals = agent.buffer.arrays()
    assert terminals.sum() == 3 and terminals[-1]
    critic = copy.deepcopy(agent.critic)
    seen = []

    def capture(*args):
        seen.append(compute_advantages(*args))
        return seen[-1]

    monkeypatch.setattr(ppo, "compute_advantages", capture)
    update_agent(agent, PPOHyper(buffer_size=60, batch_size=30), np.random.default_rng(1))
    assert len(seen) == 1
    values = critic_values(critic, obs)
    ends = np.flatnonzero(terminals)
    for fill in (obs[ends], obs[ends - 1], -obs[ends[::-1]], np.full((3, OBS_DIM_HUMAN), 9.0)):
        next_obs = np.empty_like(obs)
        next_obs[:-1] = obs[1:]
        next_obs[ends] = fill
        want = compute_advantages(
            rewards, values, critic_values(critic, next_obs), terminals, PPOHyper().gamma
        )
        assert want.tobytes() == seen[0].tobytes()


def test_critic_values_hold_activations_for_at_most_511_rows():
    # one forward_cache call over all 20000 rows peaks at about 20 MB
    critic = init_params(np.random.default_rng(0), 6, 1)
    obs = np.random.default_rng(1).uniform(-1.0, 1.0, (20000, 6))
    tracemalloc.start()
    try:
        critic_values(critic, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_critic_loss_hand_value():
    assert critic_loss(np.array([2.0]), np.array([0.0])) == pytest.approx(2.0)
    assert critic_loss(np.array([1.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_clip_ratio_hand_values_and_bounds():
    assert clip_ratio(np.array([2.0]), 0.2)[0] == pytest.approx(1.2)
    assert clip_ratio(np.array([0.1]), 0.2)[0] == pytest.approx(0.8)
    assert clip_ratio(np.array([1.05]), 0.2)[0] == pytest.approx(1.05)
    rng = np.random.default_rng(3)
    r = rng.uniform(0, 10, 10000)
    c = clip_ratio(r, 0.2)
    assert c.min() >= 0.8 and c.max() <= 1.2


def test_entropy_term_rows():
    p = np.array([[0.25, 0.75], [0.5, 0.5]])
    e = entropy_term(p, np.log(p))
    assert e[0] == pytest.approx(-(0.25 * math.log(0.25) + 0.75 * math.log(0.75)))
    assert e[1] == pytest.approx(math.log(2))


def _single_sample_loss(ratio, advantage, eps=0.2):
    """Build a one-sample actor batch with a controlled probability ratio."""
    params = init_params(np.random.default_rng(0), 2, 3)
    obs = np.zeros((1, 2))
    dist = actor_forward(params, obs[0])
    action = 1
    logp_old = math.log(dist.probabilities[action] / ratio)
    hyper = PPOHyper(clip=eps, entropy_weight=0.0)
    return actor_loss_parts(
        params, obs, np.array([action]), np.array([logp_old]), np.array([advantage]), hyper
    )[0]


def test_actor_loss_hand_values():
    # ratio 2, Q=1: unclipped 2, clipped 1.2 -> -min = -1.2
    assert _single_sample_loss(2.0, 1.0) == pytest.approx(-1.2, rel=1e-12)
    # ratio 2, Q=-1: unclipped -2, clipped -1.2 -> -min = 2
    assert _single_sample_loss(2.0, -1.0) == pytest.approx(2.0, rel=1e-12)
    # inside the clip band the raw surrogate wins
    assert _single_sample_loss(1.1, 1.0) == pytest.approx(-1.1, rel=1e-12)


def test_actor_entropy_sign_flag():
    rng = np.random.default_rng(9)
    params = init_params(rng, 3, 4)
    obs = rng.uniform(-1, 1, (6, 3))
    actions = rng.integers(4, size=6)
    logp_old = np.array(
        [actor_forward(params, o).log_probabilities[a] for o, a in zip(obs, actions)]
    )
    adv = rng.normal(size=6)
    base = actor_loss_parts(params, obs, actions, logp_old, adv, PPOHyper(entropy_weight=0.0))[0]
    bonus = actor_loss_parts(params, obs, actions, logp_old, adv, PPOHyper(entropy_weight=0.5))[0]
    probs = np.stack([actor_forward(params, o).probabilities for o in obs])
    mean_ent = entropy_term(probs, np.log(probs)).mean()
    assert bonus == pytest.approx(base - 0.5 * mean_ent, rel=1e-12)


def _fd_check_actor(hyper, seed):
    rng = np.random.default_rng(seed)
    params = init_params(rng, 3, 4, hidden=8)
    obs = rng.uniform(-1, 1, (5, 3))
    actions = rng.integers(4, size=5)
    # stored log-probs near the current policy keep ratios ~1, off the
    # clip boundary at eps = 0.2
    logp_old = np.array(
        [actor_forward(params, o).log_probabilities[a] for o, a in zip(obs, actions)]
    ) + rng.uniform(-0.05, 0.05, 5)
    adv = rng.normal(size=5)

    def loss():
        return actor_loss_parts(params, obs, actions, logp_old, adv, hyper)[0]

    _, grads = actor_grads(params, obs, actions, logp_old, adv, hyper, zeros_like_params(params))
    worst = 0.0
    # h = 3e-5 balances truncation against roundoff for a loss of order 1;
    # smaller steps leave tiny gradient entries roundoff-dominated
    for (name, g), (_, arr) in zip(grads.arrays(), params.arrays()):
        fd = oracles.central_difference(loss, arr, h=3e-5)
        denom = np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    return worst


def test_actor_grads_match_finite_differences():
    assert _fd_check_actor(PPOHyper(entropy_weight=0.0), 5) < 1e-5
    assert _fd_check_actor(PPOHyper(entropy_weight=0.1), 6) < 1e-5
    assert _fd_check_actor(PPOHyper(entropy_weight=0.1), 7) < 1e-5


def test_critic_grads_match_finite_differences():
    rng = np.random.default_rng(10)
    params = init_params(rng, 4, 1, hidden=8)
    obs = rng.uniform(-1, 1, (6, 4))
    returns = rng.normal(size=6)

    def loss():
        out = critic_values(params, obs)
        return float(((returns - out) ** 2).sum() / (2.0 * len(returns)))

    reported, grads = critic_grads(params, obs, returns, zeros_like_params(params))
    assert reported == pytest.approx(loss(), rel=1e-12)
    for (name, g), (_, arr) in zip(grads.arrays(), params.arrays()):
        fd = oracles.central_difference(loss, arr)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-8), name


def reference_actor_grads(params, obs, actions, log_prob_old, advantages, hyper):
    """actor_grads in its earlier form: -(g * ratio)[:, None] * (-p), matmul backward."""
    loss, p, log_p, cache, ratio, unclipped, ent = actor_loss_parts(
        params, obs, actions, log_prob_old, advantages, hyper
    )
    b = len(actions)
    idx = np.arange(b)
    g = np.where(unclipped, advantages, 0.0)
    d_logits = -(g * ratio)[:, None] * (-p)
    d_logits[idx, actions] -= g * ratio
    d_logits += hyper.entropy_weight * (p * (log_p + ent[:, None]))
    d_logits /= b
    return loss, oracles.matmul_backward(params, cache, d_logits)


def reference_critic_grads(params, obs, returns):
    raw, cache = forward_cache(params, obs)
    v = raw[:, 0]
    d_out = ((v - returns) / len(returns))[:, None]
    return critic_loss(returns, v), oracles.matmul_backward(params, cache, d_out)


@pytest.mark.parametrize("rows", [52, 64])
@pytest.mark.parametrize("obs_dim,n_actions", [(5, 5), (6, 2)])
def test_gradients_equal_their_earlier_formulas_bitwise(obs_dim, n_actions, rows):
    # every third row sits outside the clip band, every fifth exactly on its
    # edge (a tie keeps the differentiable branch); advantages of both signs
    # put both clipped and unclipped rows on each side of the band
    rng = np.random.default_rng(17 + rows + n_actions)
    hyper = PPOHyper()
    actor, critic = init_params(rng, obs_dim, n_actions), init_params(rng, obs_dim, 1)
    obs = rng.uniform(-1.5, 1.5, (rows, obs_dim))
    actions = rng.integers(n_actions, size=rows)
    adv = rng.normal(size=rows)
    edges = (1.0 - hyper.clip, 1.0 + hyper.clip)
    ratios = rng.uniform(0.9, 1.1, rows)
    ratios[::3] = rng.choice([0.5, 1.6], size=len(ratios[::3]))
    ratios[::5] = rng.choice(edges, size=len(ratios[::5]))
    edge = np.arange(rows) % 5 == 0
    while True:
        # a stored log probability a few ulps off log(p_a / edge) puts the
        # row exactly on the edge, but not for every p_a; redraw those rows
        p = softmax_probs(forward_cache(actor, obs)[0])
        p_a = p[np.arange(rows), actions]
        lp = np.log(p_a / ratios)
        hit = ~edge
        base = lp.copy()
        for step in range(-16, 17):
            cand = base + step * np.spacing(base)
            new = (p_a / np.exp(cand) == ratios) & ~hit
            lp[new] = cand[new]
            hit |= new
        if hit.all():
            break
        obs[~hit] = rng.uniform(-1.5, 1.5, ((~hit).sum(), obs_dim))

    loss, grads = actor_grads(actor, obs, actions, lp, adv, hyper, zeros_like_params(actor))
    parts = actor_loss_parts(actor, obs, actions, lp, adv, hyper)
    ratio, unclipped = parts[4], parts[5]
    assert np.array_equal(ratio[edge], ratios[edge]) and unclipped[edge].all()
    for side in (ratio < edges[0], ratio > edges[1]):
        assert unclipped[side].any() and not unclipped[side].all()
    want_loss, want = reference_actor_grads(actor, obs, actions, lp, adv, hyper)
    assert loss == want_loss
    assert grads.vector.tobytes() == want.vector.tobytes()

    returns = rng.normal(size=rows)
    loss, grads = critic_grads(critic, obs, returns, zeros_like_params(critic))
    want_loss, want = reference_critic_grads(critic, obs, returns)
    assert loss == want_loss
    assert grads.vector.tobytes() == want.vector.tobytes()


def test_sgd_step_momentum_semantics():
    hyper = PPOHyper(learning_rate=0.1)
    params = init_params(np.random.default_rng(0), 2, 2, hidden=4)
    start = copy.deepcopy(params)
    grads = zeros_like_params(params)
    for _, g in grads.arrays():
        g[:] = 1.0
    sgd_step(params, grads, hyper)
    sgd_step(params, grads, hyper)
    # two plain steps of -0.1 each: no velocity carries over
    for (_, p), (_, s) in zip(params.arrays(), start.arrays()):
        assert np.allclose(p, s - 0.2, atol=1e-15)


def test_sgd_step_moves_arrays_through_the_flat_views():
    hyper = PPOHyper(learning_rate=0.1)
    rng = np.random.default_rng(4)
    params = init_params(rng, 3, 2, hidden=5)
    grads = zeros_like_params(params)
    grads.vector[:] = rng.normal(size=grads.vector.size)
    before = copy.deepcopy(params)
    sgd_step(params, grads, hyper)
    for (name, p), (_, s), (_, g) in zip(params.arrays(), before.arrays(), grads.arrays()):
        assert np.array_equal(p, s - 0.1 * g), name
        assert np.shares_memory(p, params.vector) and np.shares_memory(g, grads.vector), name


def _agent_state(agent):
    return [net.vector.copy() for net in (agent.actor, agent.critic)]


def _corrupt_buffer(buf, corruption, row):
    obs, actions, logp, rewards, terminals = buf.arrays()
    if corruption == "inf_observation":
        obs[row, 1] = np.inf
    elif corruption == "stale_log_prob":
        logp[row] = -1e4  # exp underflows to 0: an infinite policy ratio
    else:  # "overflowing_reward": finite reward, advantage sums and losses overflow
        rewards[row] = rewards[row + 1] = 1e308
    out = ExperienceBuffer(buf.capacity)
    out.extend(experience(obs, actions, logp, rewards, terminals))
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("corruption", ["inf_observation", "stale_log_prob", "overflowing_reward"])
def test_divergence_stops_before_parameters_move(corruption, monkeypatch):
    rng = np.random.default_rng(21)
    agent = make_agent(rng, 3, 4, buffer_size=32)
    agent.buffer = _corrupt_buffer(
        fill_buffer(rng, 32, terminal_pattern=[False] * 31 + [True]), corruption, 20
    )
    hyper = PPOHyper(learning_rate=0.05, buffer_size=32, batch_size=4)
    # a snapshot of both networks as each minibatch begins,
    # and whether the failing minibatch's critic gradient came back finite
    snapshots, critic_ok = [], []
    real_critic_grads = ppo.critic_grads

    def critic_grads(params, *args):
        snapshots.append(_agent_state(agent))
        critic_ok.append(False)
        result = real_critic_grads(params, *args)
        critic_ok[-1] = bool(np.isfinite(result[1].vector).all())
        return result

    monkeypatch.setattr(ppo, "critic_grads", critic_grads)
    with pytest.raises(ValueError) as failed:
        update_agent(agent, hyper, np.random.default_rng(5))
    # the message names the failing minibatch, 32 / 4 = 8 to an epoch
    epoch, k = divmod(len(snapshots) - 1, 8)
    assert "epoch %d of 4, minibatch %d of 8: " % (epoch + 1, k + 1) in str(failed.value)
    for got, want in zip(_agent_state(agent), snapshots[-1]):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if corruption == "stale_log_prob":
        # the failing step is not the first, and its critic gradient was finite
        assert len(snapshots) > 1 and critic_ok[-1]
        assert not np.array_equal(snapshots[0][0], snapshots[-1][0])


def test_update_requires_full_buffer():
    rng = np.random.default_rng(0)
    agent = make_agent(rng, 3, 4, buffer_size=8)
    with pytest.raises(ValueError):
        update_agent(agent, PPOHyper(buffer_size=8), rng)


def test_whole_episodes_fill_buffer_past_minimum():
    # buffer_size is a minimum: rollouts add whole episodes, so two
    # 60-decision episodes (120 transitions) fill a 100-transition buffer,
    # and each of the 4 epochs runs ceil(120 / 50) = 3 minibatches
    env = make_test_env(n_decisions=60)
    hyper = PPOHyper(buffer_size=100, batch_size=50)
    result = train(env, hyper, seed=0, n_updates=1)
    assert len(result.value_curve) == 2
    assert len(result.loss_traces) == 1
    for name in ("human", "machine"):
        assert len(result.loss_traces[0][name]) == hyper.update_epochs * 3 == 12


def test_zero_learning_rate_keeps_params():
    rng = np.random.default_rng(6)
    agent = make_agent(rng, 3, 4, buffer_size=16)
    agent.buffer = fill_buffer(rng, 16)
    before_actor = copy.deepcopy(agent.actor)
    before_critic = copy.deepcopy(agent.critic)
    hyper = PPOHyper(learning_rate=0.0, buffer_size=16, batch_size=8)
    trace = update_agent(agent, hyper, rng)
    assert len(trace) == hyper.update_epochs * 2
    for (_, a), (_, b) in zip(agent.actor.arrays(), before_actor.arrays()):
        assert np.array_equal(a, b)
    for (_, a), (_, b) in zip(agent.critic.arrays(), before_critic.arrays()):
        assert np.array_equal(a, b)
    assert len(agent.buffer) == 0


def test_update_is_deterministic_given_rng():
    def run(seed):
        rng = np.random.default_rng(seed)
        agent = make_agent(rng, 3, 4, buffer_size=16)
        agent.buffer = fill_buffer(np.random.default_rng(99), 16)
        hyper = PPOHyper(learning_rate=0.01, buffer_size=16, batch_size=8)
        update_agent(agent, hyper, np.random.default_rng(7))
        return agent

    a, b = run(5), run(5)
    for (_, x), (_, y) in zip(a.actor.arrays(), b.actor.arrays()):
        assert np.array_equal(x, y)


def test_update_agents_order_invariant():
    def build(order_seed):
        rng = np.random.default_rng(3)
        h = make_agent(rng, 3, 4, buffer_size=8)
        m = make_agent(rng, 2, 2, buffer_size=8)
        h.buffer = fill_buffer(np.random.default_rng(1), 8, obs_dim=3, n_actions=4)
        m.buffer = fill_buffer(np.random.default_rng(2), 8, obs_dim=2, n_actions=2)
        agents = {"machine": m, "human": h} if order_seed else {"human": h, "machine": m}
        hyper = PPOHyper(learning_rate=0.01, buffer_size=8, batch_size=4)
        update_agents(agents, hyper, np.random.default_rng(11))
        return agents

    first, second = build(0), build(1)
    for key in ("human", "machine"):
        for (_, x), (_, y) in zip(first[key].actor.arrays(), second[key].actor.arrays()):
            assert np.array_equal(x, y)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    human = make_agent(rng, 5, 5, buffer_size=4)
    machine = make_agent(rng, 6, 2, buffer_size=4)
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, human, machine, meta={"setting": 2, "seed": 7})
    loaded = load_checkpoint(path)
    assert loaded["meta"]["setting"] == "2"
    for name, agent, attr in (
        ("human.actor", human, "actor"),
        ("human.critic", human, "critic"),
        ("machine.actor", machine, "actor"),
        ("machine.critic", machine, "critic"),
    ):
        for (_, a), (_, b) in zip(loaded[name].arrays(), getattr(agent, attr).arrays()):
            assert np.array_equal(a, b)


def test_hyper_validation():
    # PPOHyper's bounds are checked on its config keys, where values enter
    for bad in ({"hyper.gamma": 1.0}, {"hyper.clip": 0.0},
                {"hyper.batch_size": 128, "hyper.buffer_size": 64}):
        with pytest.raises(ValueError, match="config key '%s' must be" % next(iter(bad))):
            config_from_dict({"seed": 0, **bad})
