"""The benchmark's tracing hooks and inputs still find what they use in pedalrl.

``perfbench/layers.py`` wraps functions by the names their callers look up
and counts kernel substeps from the kernel's last argument;
``perfbench/workloads.py`` builds the bridge replay from each episode's
``transitions_*[i].obs``. A refactor that renames one of them, moves
``n_sub`` or stops calling a wrapped name, breaks the benchmark; these tests
catch that in the unit suite.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pedalrl import ppo  # noqa: E402
from pedalrl.episode import OBS_DIM_HUMAN, OBS_DIM_MACHINE  # noqa: E402
from pedalrl.harness import config_from_dict, make_env  # noqa: E402


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
    # the per-layer PPO metrics read these spans: one update per agent, and
    # one actor and one critic gradient call per minibatch
    # (2 agents x 4 epochs x 120 / 60 minibatches)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["ppo.update_agent"] == 2
    assert calls["ppo.compute_advantages"] == 2
    assert calls["ppo.buffer_arrays"] == 2
    assert calls["ppo.actor_grads"] == 16
    assert calls["ppo.critic_grads"] == 16


def test_bridge_inputs_replay_both_agents(tmp_path):
    frames = workloads.bridge_inputs(3, tmp_path / "b.ckpt")
    assert len(frames) == 4 * 60 * 2  # episodes x decisions x agents
    dims = {0: OBS_DIM_HUMAN, 1: OBS_DIM_MACHINE}
    n_actions = {0: ppo.HUMAN_ACTIONS, 1: ppo.MACHINE_ACTIONS}
    assert [agent for agent, _, _ in frames[:4]] == [0, 1, 0, 1]
    for agent, payload, action in frames:
        assert len(payload) == dims[agent]
        assert 0 <= action < n_actions[agent]
