"""The benchmark's tracing hooks and inputs still find what they use in pedalrl.

``perfbench/layers.py`` wraps functions by the names their callers look up
and counts kernel substeps from the kernel's last argument;
``perfbench/workloads.py`` builds the bridge replay from each episode's
``transitions_*[i].obs``. A refactor that renames one of them, moves
``n_sub`` or changes how often a wrapped name is called, breaks the
benchmark; these tests catch that in the unit suite.
"""

import socket
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pedalrl import bridge, harness, ppo  # noqa: E402
from pedalrl.episode import OBS_DIM_HUMAN, OBS_DIM_MACHINE  # noqa: E402
from pedalrl.harness import config_from_dict, make_env  # noqa: E402
from pedalrl.nets import init_params  # noqa: E402


def test_train_hooks_count_substeps():
    cfg = config_from_dict(
        {"seed": 0, "setting": 2, "hyper.buffer_size": 120, "hyper.batch_size": 60}
    )
    env = make_env(cfg)
    tracer = tracing.Tracer()
    layers.install_train(tracer)
    try:
        ppo.train(env, cfg.hyper, 0, 1)
    finally:
        tracer.restore()
    episodes = sum(1 for span in tracer.spans if span[0] == "episode.run_episode")
    assert episodes == 2  # two 60-decision episodes fill the 120-transition buffer
    assert tracer.counts["kernels.substeps"] == (
        episodes * env.n_decisions * env.decision_interval
    )
    assert tracer.counts["ppo.transitions_collected"] > 0
    # both agents act once per decision, one observation row per call
    assert tracer.counts["nets.calls"] == 2 * episodes * env.n_decisions
    assert tracer.counts["nets.rows"] == tracer.counts["nets.calls"]
    # the per-layer PPO metrics read these spans: one update per agent, and
    # one actor and one critic gradient call per minibatch
    # (2 agents x 4 epochs x 120 / 60 minibatches)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["ppo.update_agent"] == 2
    assert calls["ppo.compute_advantages"] == 2
    assert calls["ppo.buffer_arrays"] == 2
    assert calls["ppo.actor_grads"] == 16
    assert calls["ppo.critic_grads"] == 16


def test_sweep_hooks_count_spans(tmp_path):
    cfg = config_from_dict({"seed": 0, "train.n_updates": 0, "eval.episodes": 2})
    tracer = tracing.Tracer()
    layers.install_sweep(tracer)
    try:
        harness.sweep([2, 6], cfg, out_dir=str(tmp_path))
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["harness.sweep"] == 1
    assert calls["harness.train_setting"] == 2
    assert calls["harness.evaluate_agents"] == 2
    assert calls["episode.run_episode"] == 4  # 2 settings x 2 evaluation episodes
    assert calls["harness.save_checkpoint"] == 2
    assert calls["harness.export_results"] == 1
    assert calls["harness.trace_to_csv"] == 4  # one call per exported trace
    assert tracer.counts["kernels.substeps"] == 4 * cfg.n_decisions * cfg.decision_interval


def test_bridge_inputs_replay_both_agents(tmp_path):
    frames = workloads.bridge_inputs(3, tmp_path / "b.ckpt")
    assert len(frames) == 4 * 60 * 2  # episodes x decisions x agents
    dims = {0: OBS_DIM_HUMAN, 1: OBS_DIM_MACHINE}
    n_actions = {0: ppo.HUMAN_ACTIONS, 1: ppo.MACHINE_ACTIONS}
    assert [agent for agent, _, _ in frames[:4]] == [0, 1, 0, 1]
    for agent, payload, action in frames:
        assert len(payload) == dims[agent]
        assert 0 <= action < n_actions[agent]


def test_server_hooks_count_frames():
    # the client writes and reads raw bytes, so every span below is the
    # server's own
    n = 6
    rng = np.random.default_rng(0)
    actors = {0: init_params(rng, OBS_DIM_HUMAN, 5), 1: init_params(rng, OBS_DIM_MACHINE, 2)}
    tracer = tracing.Tracer(op=-1)
    layers.install_server(tracer)
    try:
        with bridge.PolicyServer(("127.0.0.1", 0), actors) as srv:
            srv.timeout = 10  # handle_request gives up if nobody connects
            thread = threading.Thread(target=srv.handle_request)
            thread.start()
            try:
                with socket.create_connection(srv.server_address, timeout=10) as sock:
                    with sock.makefile("rb") as rfile:
                        for step in range(n):
                            agent = step % 2
                            obs = ",".join(["0.25"] * (OBS_DIM_HUMAN + agent))
                            sock.sendall(b"OBS,%d,%d,%s\n" % (step, agent, obs.encode()))
                            assert rfile.readline().startswith(b"ACT,%d,%d," % (step, agent))
                        sock.sendall(b"BYE,%d,0\n" % n)
                        assert rfile.readline() == b"BYE,%d,0\n" % n
            finally:
                thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["bridge.respond"] == n
    assert calls["bridge.server_decode_frame"] == n + 1  # the BYE frame too
    assert calls["bridge.server_encode_frame"] == n + 1
    assert calls["nets.actor_forward"] == n
    assert tracer.counts["nets.calls"] == tracer.counts["nets.rows"] == n
    # each decoded frame starts the next op, numbered from 0
    ops = [span[4] for span in tracer.spans if span[0] == "bridge.respond"]
    assert ops == list(range(n))
