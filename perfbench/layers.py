"""Where the traced run wraps pedalrl, and the per-layer metrics it reports.

Each ``install_*`` wraps the names a caller looks up, e.g. ``ppo.run_episode``
inside ``ppo.train`` and ``harness.run_episode`` inside
``harness.evaluate_agents``. The span name gives the layer (the module that
owns the code) and the function. ``bench.*`` spans are the benchmark's own
per-op root spans.
"""

import statistics
from collections import Counter

import numpy as np

import tracing
from pedalrl import bridge, episode, harness, kernels, ppo

LAYERS = ("kernels", "episode", "nets", "rewards", "ppo", "harness", "bridge", "bench")
SERVER_BUSY = ("bridge.server_decode_frame", "bridge.respond", "bridge.server_encode_frame")
CLIENT_BUSY = ("bridge.encode_frame", "bridge.decode_frame")


def _next_op(t, args):
    t.op += 1


def _rows(t, args):
    t.counts["nets.rows"] += 1 if np.ndim(args[1]) == 1 else len(args[1])
    t.counts["nets.calls"] += 1


def _substeps(t, args):
    t.counts["kernels.substeps"] += args[-1]  # the block length is the last argument


def _decisions(t, args):
    t.counts["episode.decisions"] += args[0].n_decisions


def _episode_op(t, args):
    _decisions(t, args)
    _next_op(t, args)


def _collected(t, args):
    buf = args[0].buffer
    t.counts["ppo.transitions_collected"] += len(buf)
    t.counts["ppo.buffer_capacity"] += buf.capacity


def _sweep_start(t, args):
    t.counts["sweep.first_op"] = t.op + 1
    t.counts["sweep.csv"] = 0


def _csv_op(t, args):
    # export_results writes traces in episode order, so the i-th CSV of a
    # sweep belongs to the sweep's i-th evaluated episode.
    t.op = t.counts["sweep.first_op"] + t.counts["sweep.csv"]
    t.counts["sweep.csv"] += 1


def _install_rollout(tracer, caller, before_episode):
    tracer.wrap(caller, "run_episode", "episode.run_episode", before=before_episode)
    tracer.wrap(episode, "actor_forward", "nets.actor_forward", before=_rows)
    tracer.wrap(episode, "shared_reward", "rewards.shared_reward")
    tracer.wrap(kernels, "run_substeps", "kernels.run_substeps", before=_substeps)


def install_train(tracer):
    """Op = one PPO update; ``ppo.train`` is the root span."""
    tracer.wrap(ppo, "train", "ppo.train")
    _install_rollout(tracer, ppo, _decisions)
    tracer.wrap(ppo, "update_agents", "ppo.update_agents", after=_next_op)
    tracer.wrap(ppo, "update_agent", "ppo.update_agent", before=_collected)
    tracer.wrap(ppo, "compute_advantages", "ppo.compute_advantages")
    tracer.wrap(ppo, "actor_grads", "ppo.actor_grads")
    tracer.wrap(ppo, "critic_grads", "ppo.critic_grads")
    tracer.wrap(ppo.ExperienceBuffer, "arrays", "ppo.buffer_arrays")


def install_sweep(tracer):
    """Op = one evaluated episode with its CSV; ``harness.sweep`` is the root."""
    tracer.wrap(harness, "sweep", "harness.sweep", before=_sweep_start)
    tracer.wrap(harness, "train_setting", "harness.train_setting")
    tracer.wrap(harness, "train", "ppo.train")
    tracer.wrap(harness, "evaluate_agents", "harness.evaluate_agents")
    _install_rollout(tracer, harness, _episode_op)
    tracer.wrap(harness, "save_checkpoint", "harness.save_checkpoint")
    tracer.wrap(harness, "export_results", "harness.export_results")
    tracer.wrap(harness, "trace_to_csv", "harness.trace_to_csv", before=_csv_op)


def install_client(tracer, client):
    """Op = one frame; ``client.round_trip`` is the root span."""
    tracer.wrap(client, "round_trip", "bench.round_trip")
    tracer.wrap(bridge, "encode_frame", "bridge.encode_frame")
    tracer.wrap(bridge, "decode_frame", "bridge.decode_frame")


def install_setup(tracer):
    tracer.wrap(harness, "config_from_dict", "config.config_from_dict")


def install_server(tracer):
    """Server side of ``bridge``: op = one received frame, numbered from 0."""
    tracer.wrap(bridge, "load_checkpoint", "ppo.load_checkpoint")
    tracer.wrap(bridge, "decode_frame", "bridge.server_decode_frame", before=_next_op)
    tracer.wrap(bridge, "encode_frame", "bridge.server_encode_frame")
    tracer.wrap(bridge.PolicyServer, "respond", "bridge.respond")
    tracer.wrap(bridge, "actor_forward", "nets.actor_forward", before=_rows)


def server_report(tracer):
    """JSON-able spans summary of one server process.

    Op -1 is start-up, op 0 the set-up frame, ops from 1 the measured frames.
    """
    spans = tracer.spans
    setup = tracing.summarize(spans, lambda s: s[4] < 0)
    ops = tracing.summarize(spans, lambda s: s[4] >= 1)
    busy = tracing.busy_by_op(spans, SERVER_BUSY)
    return {
        "setup": {name: e["self_s"] for name, e in setup.items()},
        "ops": {name: [e["calls"], e["self_s"]] for name, e in ops.items()},
        "busy": {str(op): s for op, s in busy.items() if op >= 1},
        "rows": tracer.counts["nets.rows"],
        "calls": tracer.counts["nets.calls"],
        "spans": len(spans),
    }


def setup_report(tracer):
    return {name: e["self_s"] for name, e in tracing.summarize(tracer.spans).items()}


def _q(values, q):
    """q-th percentile (0..100) by linear interpolation; 0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, wall, setup_reports, server=None):
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    spans, counts = tracer.spans, tracer.counts
    summary = tracing.summarize(spans)
    calls = Counter({n: e["calls"] for n, e in summary.items()})
    own = Counter({n: e["self_s"] for n, e in summary.items()})
    rows, nets_calls = counts["nets.rows"], counts["nets.calls"]
    server_busy = {}
    if server is not None:
        for name, (c, s) in server["ops"].items():
            calls[name] += c
            own[name] += s
        rows += server["rows"]
        nets_calls += server["calls"]
        server_busy = {int(op): s for op, s in server["busy"].items()}

    def dur(name):
        return summary[name]["durations"] if name in summary else []

    def setup_median(name):
        vals = [r.get(name, 0.0) for r in setup_reports]
        return statistics.median(vals) if vals else 0.0

    # Straggler ratio: per sweep, slowest setting over mean setting time.
    per_sweep = {}
    for name, t0, t1, parent, _ in spans:
        if name == "harness.train_setting":
            per_sweep.setdefault(parent, []).append(t1 - t0)
    stragglers = [max(d) / statistics.mean(d) for d in per_sweep.values()]

    # Socket and scheduler wait per frame: round trip minus busy time on both ends.
    client_busy = tracing.busy_by_op(spans, CLIENT_BUSY)
    trips = [(t1 - t0, op) for name, t0, t1, _, op in spans if name == "bench.round_trip"]
    waits = [rtt - client_busy[op] - server_busy.get(op, 0.0) for rtt, op in trips]

    layer = Counter()
    for name, s in own.items():
        layer[name.split(".", 1)[0]] += s
    # The server works while the client's round trip span waits for it.
    layer["bench"] -= sum(server_busy.get(op, 0.0) for _, op in trips)
    shares = {"share." + n: (_ratio(layer[n], wall), "ratio") for n in LAYERS}
    shares["share.untraced"] = (1.0 - sum(v for v, _ in shares.values()), "ratio")

    out = {
        "kernels.run_substeps.calls": (calls["kernels.run_substeps"], "count"),
        "kernels.run_substeps.self_s": (own["kernels.run_substeps"], "s"),
        "kernels.substeps": (counts["kernels.substeps"], "count"),
        "kernels.substeps_per_s": (
            _ratio(counts["kernels.substeps"], own["kernels.run_substeps"]), "1/s"),
        "episode.run_episode.calls": (calls["episode.run_episode"], "count"),
        "episode.run_episode.self_s": (own["episode.run_episode"], "s"),
        "episode.decisions": (counts["episode.decisions"], "count"),
        "episode.run_episode.ms_p50": (_q(dur("episode.run_episode"), 50) * 1e3, "ms"),
        "episode.run_episode.ms_p95": (_q(dur("episode.run_episode"), 95) * 1e3, "ms"),
        "nets.actor_forward.calls": (calls["nets.actor_forward"], "count"),
        "nets.actor_forward.self_s": (own["nets.actor_forward"], "s"),
        "nets.actor_forward.rows_per_call": (_ratio(rows, nets_calls), "rows/call"),
        "rewards.shared_reward.calls": (calls["rewards.shared_reward"], "count"),
        "rewards.shared_reward.self_s": (own["rewards.shared_reward"], "s"),
        "ppo.update_agent.calls": (calls["ppo.update_agent"], "count"),
        "ppo.update_agent.self_s": (own["ppo.update_agent"], "s"),
        "ppo.compute_advantages.self_s": (own["ppo.compute_advantages"], "s"),
        "ppo.actor_grads.self_s": (own["ppo.actor_grads"], "s"),
        "ppo.critic_grads.self_s": (own["ppo.critic_grads"], "s"),
        "ppo.buffer_arrays.self_s": (own["ppo.buffer_arrays"], "s"),
        "ppo.minibatches": (calls["ppo.actor_grads"], "count"),
        "ppo.transitions_collected": (counts["ppo.transitions_collected"], "count"),
        "ppo.collected_over_capacity": (
            _ratio(counts["ppo.transitions_collected"], counts["ppo.buffer_capacity"]), "ratio"),
        "harness.evaluate_agents.self_s": (own["harness.evaluate_agents"], "s"),
        "harness.trace_to_csv.calls": (calls["harness.trace_to_csv"], "count"),
        "harness.trace_to_csv.self_s": (own["harness.trace_to_csv"], "s"),
        "harness.export_results.self_s": (own["harness.export_results"], "s"),
        "harness.export_bytes": (counts["harness.export_bytes"], "B"),
        "harness.save_checkpoint.self_s": (own["harness.save_checkpoint"], "s"),
        "harness.setting_s_max_over_mean": (
            statistics.median(stragglers) if stragglers else 0.0, "ratio"),
        "bridge.encode_frame.self_s": (own["bridge.encode_frame"], "s"),
        "bridge.decode_frame.self_s": (own["bridge.decode_frame"], "s"),
        "bridge.respond.calls": (calls["bridge.respond"], "count"),
        "bridge.respond.self_s": (own["bridge.respond"], "s"),
        "bridge.server_codec.self_s": (
            own["bridge.server_decode_frame"] + own["bridge.server_encode_frame"], "s"),
        "bridge.err_frames": (counts["bridge.err_frames"], "count"),
        "bridge.wait_us_p50": (_q(waits, 50) * 1e6, "us"),
        "config.config_from_dict.self_s": (setup_median("config.config_from_dict"), "s"),
        "ppo.load_checkpoint.self_s": (setup_median("ppo.load_checkpoint"), "s"),
        "trace.spans": (len(spans) + (server["spans"] if server else 0), "count"),
    }
    out.update(shares)
    return out
