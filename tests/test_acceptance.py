"""Acceptance gate: ten checks covering math, learning and reproducibility.

Each test prints one ``criterion N: PASS/FAIL`` line with its measured
runtime; run ``pytest tests/test_acceptance.py -v -s`` to see them all.
The slow entries, marked ``slow``, are 7 (trains four settings at shipped
defaults), 8 (trains one setting twice) and 9 (sweeps setting 2 twice);
everything else finishes in seconds. ``pytest -m "not slow"`` leaves them out.
"""

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import ConstantPolicy, make_test_env
from pedalrl.bridge import Frame, PolicyServer, RemotePolicy, decode_frame, encode_frame
from pedalrl.cli import main
from pedalrl.episode import GreedyPolicy, experience, run_episode
from pedalrl.harness import (
    config_from_dict,
    evaluate_agents,
    make_env,
    mse_metrics,
    train_setting,
)
from pedalrl.nets import actor_forward, init_params, sample_action
from pedalrl.ppo import (
    PPOHyper,
    actor_grads,
    actor_loss_parts,
    clip_ratio,
    compute_advantages,
    critic_grads,
    critic_values,
    entropy_term,
    make_agent,
    train,
    update_agent,
)
from pedalrl.rewards import (
    RewardWeights,
    comfort_term,
    effort_term,
    machine_reward,
    shared_reward,
    tracking_term,
)


def _report(n, ok, detail, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    line = "criterion %d: %s - %s (%.2fs" % (n, verdict, detail, elapsed)
    line += ", budget %.0fs)" % budget if budget else ")"
    print(line)
    assert ok, "criterion %d failed: %s" % (n, detail)
    if budget is not None:
        assert elapsed < budget, "criterion %d over budget: %.2fs" % (n, elapsed)


def test_criterion_01_reward_terms_match_brute_force():
    # the machine reward's weights: squared error penalized, angular velocity not
    sigma, beta = -1.0, 0.0
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(3, 13))
        actual = rng.uniform(-0.6, 0.6, k + 1)
        reference = rng.uniform(-0.6, 0.6, k + 1)
        digits = rng.integers(-2, 3, k)
        omega = float(rng.normal())
        w_actual, w_reference = actual[1:], reference[1:]
        weights = RewardWeights(
            mu=float(rng.uniform(0.1, 8)),
            kappa=float(rng.uniform(0.1, 8)),
            rho=float(rng.uniform(0.1, 8)),
        )
        flag = 1.0 if digits[-1] != digits[-2] else 0.0
        pairs = (
            (tracking_term(w_actual, w_reference), oracles.tracking_sum(actual[1:], reference[1:])),
            (comfort_term(w_actual), oracles.comfort_sum(actual[1:])),
            (effort_term(digits), oracles.effort_value(list(digits), flag)),
            (
                machine_reward(actual, reference, omega, sigma, beta),
                oracles.machine_value(actual, reference, omega, sigma, beta),
            ),
            (
                shared_reward(w_actual, w_reference, digits, weights),
                oracles.human_value(
                    oracles.tracking_sum(actual[1:], reference[1:]),
                    oracles.comfort_sum(actual[1:]),
                    oracles.effort_value(list(digits), flag),
                    weights.mu, weights.kappa, weights.rho,
                ),
            ),
        )
        for got, want in pairs:
            worst = max(worst, oracles.relative_error(got, want))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-12, "1000 windows, worst rel err %.2e" % worst, elapsed, 1.0)


def test_criterion_02_advantages_match_double_loop():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    critic = init_params(rng, 3, 1)
    worst = 0.0
    for _ in range(100):
        rows = []
        for i in range(10):
            rows.append((
                rng.uniform(-1, 1, 3),
                int(rng.integers(4)),
                -1.0,
                float(rng.normal()),
                rng.uniform(-1, 1, 3),
                bool(rng.random() < 0.2) or i == 9,
            ))
        obs, _, _, rewards, next_obs, terminals = map(np.array, zip(*rows))  # rows to columns
        gamma = float(rng.uniform(0.05, 0.999))
        got = compute_advantages(
            rewards, critic_values(critic, obs), critic_values(critic, next_obs), terminals, gamma
        )
        want = oracles.advantage_double_loop(
            rewards.tolist(),
            critic_values(critic, obs).tolist(),
            critic_values(critic, next_obs).tolist(),
            terminals.tolist(),
            gamma,
        )
        for g, w in zip(got, want):
            worst = max(worst, oracles.relative_error(g, w))
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-12, "100 buffers, worst rel err %.2e" % worst, elapsed, 1.0)


def test_criterion_03_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in (31, 32, 33):
        rng = np.random.default_rng(seed)
        critic = init_params(rng, 4, 1, hidden=10)
        obs = rng.uniform(-1, 1, (6, 4))
        returns = rng.normal(size=6)

        def c_loss():
            out = critic_values(critic, obs)
            return float(((returns - out) ** 2).sum() / (2.0 * len(returns)))

        _, grads = critic_grads(critic, obs, returns)
        for (_, g), (_, arr) in zip(grads.arrays(), critic.arrays()):
            fd = oracles.central_difference(c_loss, arr, h=3e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(np.max(np.abs(g - fd) / denom)))

        actor = init_params(rng, 3, 5, hidden=10)
        a_obs = rng.uniform(-1, 1, (6, 3))
        actions = rng.integers(5, size=6)
        # stored log-probs close to the live policy keep every ratio well
        # inside the clip band, where the surrogate is differentiable
        logp_old = np.array(
            [actor_forward(actor, o).log_probabilities[a] for o, a in zip(a_obs, actions)]
        ) + rng.uniform(-0.05, 0.05, 6)
        adv = rng.normal(size=6)
        hyper = PPOHyper(entropy_weight=0.01)

        def a_loss():
            return actor_loss_parts(actor, a_obs, actions, logp_old, adv, hyper)[0]

        _, grads = actor_grads(actor, a_obs, actions, logp_old, adv, hyper)
        for (_, g), (_, arr) in zip(grads.arrays(), actor.arrays()):
            fd = oracles.central_difference(a_loss, arr, h=3e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(np.max(np.abs(g - fd) / denom)))
    elapsed = time.perf_counter() - start
    _report(
        3, worst < 1e-5, "3 nets, critic+actor, worst rel err %.2e" % worst, elapsed, 30.0
    )


def test_criterion_04_clip_and_entropy_invariants():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    ratios = np.exp(rng.normal(0.0, 2.0, 1_000_000))
    eps = 0.2
    clipped = clip_ratio(ratios, eps)
    in_band = float(clipped.min()) >= 1 - eps and float(clipped.max()) <= 1 + eps

    y = 5
    uniform = np.full(y, 1.0 / y)
    uniform_err = abs(entropy_term(uniform) - np.log(y))
    delta = 1e-8
    hot = np.full(y, delta / (y - 1))
    hot[0] = 1.0 - delta
    hot_ent = entropy_term(hot)
    ok = (
        in_band
        and uniform_err <= 1e-12
        and 0.0 < hot_ent < 1e-6
        and 0.0 <= entropy_term(uniform) <= np.log(y) + 1e-15
    )
    elapsed = time.perf_counter() - start
    _report(
        4,
        ok,
        "1e6 ratios in band; uniform err %.1e; near-one-hot %.1e" % (uniform_err, hot_ent),
        elapsed,
    )


ARMS = (0.0, 0.2, 0.4, 0.6, 1.0)


def _bandit_updates_to_converge(seed, max_updates=200):
    hyper = PPOHyper(gamma=0.0, buffer_size=200, batch_size=50, learning_rate=0.1)
    init_s, roll_s, up_s = np.random.SeedSequence(seed).spawn(3)
    r_roll = np.random.default_rng(roll_s)
    agent = make_agent(np.random.default_rng(init_s), 1, len(ARMS), buffer_size=200)
    r_up = np.random.default_rng(up_s)
    obs = np.ones(1)
    best = int(np.argmax(ARMS))
    for update in range(1, max_updates + 1):
        batch = []
        while len(batch) < 200:
            dist = actor_forward(agent.actor, obs)
            a, logp = sample_action(dist, r_roll)
            batch.append((obs, a, logp, ARMS[a], True))
        agent.buffer.extend(experience(*zip(*batch)))  # rows to columns
        update_agent(agent, hyper, r_up)
        if actor_forward(agent.actor, obs).probabilities[best] > 0.9:
            return update
    return None


def test_criterion_05_bandit_convergence():
    start = time.perf_counter()
    converged = {seed: _bandit_updates_to_converge(seed) for seed in (0, 1, 2)}
    elapsed = time.perf_counter() - start
    ok = all(u is not None for u in converged.values())
    detail = "updates to >0.9 on best arm: %s" % (
        ", ".join("seed %d: %s" % (s, u) for s, u in converged.items())
    )
    _report(5, ok, detail, elapsed, 120.0)


def test_criterion_06_stronger_pid_tracks_better():
    start = time.perf_counter()

    def tracking(machine_index):
        env = make_test_env(setting_id=1, n_decisions=60)
        res = run_episode(
            env,
            ConstantPolicy(0),  # passive human: digit 0 throughout
            ConstantPolicy(machine_index),
            np.random.default_rng(66),
        )
        return mse_metrics(res.trace, env.human.unit_torque).tracking_error_mse

    hi = tracking(0)  # gains (24, 2.4, 24)
    lo = tracking(1)  # gains (12, 1.2, 12)
    elapsed = time.perf_counter() - start
    _report(6, hi < lo, "tracking MSE %.3e (hi) < %.3e (lo)" % (hi, lo), elapsed, 10.0)


@pytest.mark.slow
def test_criterion_07_training_reproduces_setting_orderings():
    start = time.perf_counter()
    tracking = {}
    action = {}
    for sid in (2, 4, 6, 8):
        cfg = config_from_dict({"setting": sid, "seed": 7})
        _, mean, _ = train_setting(cfg)
        tracking[sid] = mean.tracking_error_mse
        action[sid] = mean.human_action_mse
    track_68 = (tracking[6] + tracking[8]) / 2
    track_24 = (tracking[2] + tracking[4]) / 2
    act_24 = (action[2] + action[4]) / 2
    act_68 = (action[6] + action[8]) / 2
    ok = track_68 < track_24 and act_24 > act_68
    elapsed = time.perf_counter() - start
    detail = (
        "tracking {6,8} %.3e vs {2,4} %.3e; action {2,4} %.1f vs {6,8} %.1f"
        % (track_68, track_24, act_24, act_68)
    )
    _report(7, ok, detail, elapsed, 1800.0)


@pytest.mark.slow
def test_criterion_08_effort_weight_monotonicity():
    start = time.perf_counter()

    def action_mse(rho):
        # train_setting on setting 4, with the reward weights swapped out
        cfg = config_from_dict({"setting": 4, "seed": 7})
        env = make_env(cfg)
        weights = RewardWeights(mu=1.0, kappa=1.0, rho=rho)
        env = replace(env, setting=replace(env.setting, weights=weights))
        result = train(env, cfg.hyper, cfg.seed, cfg.n_updates)
        mean, _ = evaluate_agents(
            result.human.actor, result.machine.actor, env, cfg.eval_episodes, cfg.seed
        )
        return mean.human_action_mse

    low = action_mse(1.0)
    high = action_mse(5.0)
    elapsed = time.perf_counter() - start
    _report(
        8,
        high >= low,
        "human-action MSE %.2f at rho=1 -> %.2f at rho=5" % (low, high),
        elapsed,
    )


@pytest.mark.slow
def test_criterion_09_sweep_is_byte_deterministic(tmp_path):
    start = time.perf_counter()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", "--settings", "2", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["sweep", "--settings", "2", "--seed", "7", "--out", str(out_b)]) == 0
    names_a = sorted(f for f in os.listdir(out_a) if f.endswith(".csv"))
    names_b = sorted(f for f in os.listdir(out_b) if f.endswith(".csv"))
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    elapsed = time.perf_counter() - start
    _report(
        9, identical, "%d CSV files byte-identical across runs" % len(names_a), elapsed
    )


def test_criterion_10_bridge_loopback_bit_for_bit():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    actors = {0: init_params(rng, 5, 5), 1: init_params(rng, 6, 2)}
    env = make_test_env(setting_id=2)
    human = GreedyPolicy(actors[0])
    local = run_episode(env, human, GreedyPolicy(actors[1]), np.random.default_rng(7))

    server = PolicyServer(("127.0.0.1", 0), actors)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    try:
        host, port = server.server_address
        with RemotePolicy(host, port, agent_id=1) as remote:
            wired = run_episode(env, human, remote, np.random.default_rng(7))
    finally:
        server.shutdown()
        thread.join()
        server.server_close()

    fields = ("time", "reference", "position", "omega", "tau_machine", "tau_human",
              "digit", "machine_action", "reward")
    traces_equal = all(
        np.array_equal(getattr(local.trace, f), getattr(wired.trace, f)) for f in fields
    )

    frame_rng = np.random.default_rng(1010)
    round_trips = 0
    for _ in range(1000):
        payload = tuple(
            int(frame_rng.integers(-99, 99)) if frame_rng.random() < 0.3
            else float(frame_rng.normal() * 10.0 ** frame_rng.integers(-12, 12))
            for _ in range(int(frame_rng.integers(0, 7)))
        )
        frame = Frame(
            kind=("OBS", "ACT", "ERR", "BYE")[int(frame_rng.integers(4))],
            step=int(frame_rng.integers(0, 10**9)),
            agent=int(frame_rng.integers(2)),
            payload=payload,
        )
        round_trips += decode_frame(encode_frame(frame)) == frame
    elapsed = time.perf_counter() - start
    ok = traces_equal and round_trips == 1000
    _report(
        10,
        ok,
        "episode trace bit-identical over the wire; %d/1000 frames round-trip" % round_trips,
        elapsed,
    )
