"""The three workloads: train, sweep_eval and bridge.

``run(name, seed, seconds, tracer)`` sets the workload up, measures it for
``seconds``, checks its outputs and returns an ``Outcome``. All inputs come
from ``seed``. With a tracer, spans cover the measured ops only; set-up runs
in probe and server processes, which trace themselves and report back.

``setup_s`` is the median time of ``SETUP_SAMPLES`` fresh processes from
spawn until the first op could run: imports, config, env and agents
(``probe.py``), or a policy server answering its first frame
(``server.py``). Op times are medians over the run's ops. Every set-up
sample and op is scaled to reference host speed (``hostspeed.py``); the
unscaled figures are returned in ``info["raw_end_to_end"]``.
"""

import hashlib
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import layers
from checkout import OUT, script
from hostspeed import HostClock
from pedalrl import bridge, episode, harness, ppo

SETUP_SAMPLES = 7
TRAIN_SETTING = 2
UPDATES_PER_OP = 1  # train: each ppo.train call runs this many updates
SWEEP_SETTINGS = tuple(range(1, 9))
BRIDGE_EPISODES = 4  # bridge: episodes whose observations are replayed as frames
CHUNK_FRAMES = 2000  # bridge: frames between two reference runs
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Outcome:
    metrics: dict  # end-to-end metric name -> (value, unit)
    attempted: int
    failed: int
    checks: dict  # check name -> passed
    digests: dict
    info: dict
    layers: dict = field(default_factory=dict)  # traced runs: per-layer name -> (value, unit)

    @property
    def correct(self):
        return all(self.checks.values()) and self.failed == 0


def rep_seed(seed, k):
    """Seed of the k-th op of a run: distinct per op, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def peak_rss_mb():
    """Peak resident memory so far; read when the measured loop ends, before checks."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(samples, rate=False):
    """Samples given as (values, scales) at reference host speed."""
    values, scales = (np.asarray(v, dtype=np.float64) for v in samples)
    return values / scales if rate else values * scales


def end_to_end(setup, rss_mb, rates, op_s):
    """(metrics, unscaled figures) from (values, scales) sample pairs."""
    metrics = {
        "setup_s": (float(np.median(scaled(setup))), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decisions_per_s": (float(np.median(scaled(rates, rate=True))), "1/s"),
        "op_ms_p50": (float(np.median(scaled(op_s))) * 1e3, "ms"),
    }
    raw = {
        "setup_s": statistics.median(setup[0]),
        "decisions_per_s": statistics.median(rates[0]),
        "op_ms_p50": float(np.median(op_s[0])) * 1e3,
    }
    return metrics, raw


def _finish(proc):
    """Read a child's remaining stdout and reap it; kill it past the timeout."""
    # communicate() would lose lines already buffered by an earlier readline().
    killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("%s exited with code %s" % (proc.args, proc.returncode))
    return out


# -- set-up ----------------------------------------------------------------


def train_keys(seed):
    return {"setting": TRAIN_SETTING, "subject": "subject_1", "seed": seed}


def sweep_keys(seed):
    # eval.episodes keeps its shipped default; no training, only evaluate and export.
    return {"subject": "subject_1", "seed": seed, "train.n_updates": 0}


def setup_train(seed):
    cfg = harness.config_from_dict(train_keys(seed))
    env = harness.make_env(cfg)
    rng = np.random.default_rng(seed)
    ppo.make_agent(rng, episode.OBS_DIM_HUMAN, ppo.HUMAN_ACTIONS, cfg.hyper.buffer_size)
    ppo.make_agent(rng, episode.OBS_DIM_MACHINE, ppo.MACHINE_ACTIONS, cfg.hyper.buffer_size)
    return cfg, env


def setup_sweep(seed):
    cfg = harness.config_from_dict(sweep_keys(seed))
    for sid in SWEEP_SETTINGS:
        harness.make_env(harness.config_from_dict(dict(sweep_keys(seed), setting=sid)))
    return cfg


SETUPS = {"train": setup_train, "sweep_eval": setup_sweep}


def probe_setup(workload, seed, traced):
    """(set-up times, their scales) of fresh probe processes, and span reports."""
    clock = HostClock()
    times, scales, reports = [], [], []
    for _ in range(SETUP_SAMPLES):
        cmd = script("probe.py") + [workload, str(seed)] + (["--trace"] if traced else [])
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            times.append(perf_counter() - t0)
        finally:
            rest = _finish(proc)
        scales.append(clock.mark())
        if first != "ready\n":
            raise RuntimeError("set-up probe printed %r" % first)
        if traced:
            reports.append(json.loads(rest))
    return (times, scales), reports


# -- train -----------------------------------------------------------------


def train_digest(result):
    h = hashlib.sha256(np.asarray(result.value_curve, dtype=np.float64).tobytes())
    losses = [
        v
        for update in result.loss_traces
        for name in sorted(update)
        for pair in update[name]
        for v in pair
    ]
    h.update(np.asarray(losses, dtype=np.float64).tobytes())
    return h.hexdigest(), bool(np.all(np.isfinite(losses)))


def run_train(seed, seconds, tracer):
    """Op = one PPO update of ``ppo.train`` on setting 2 at shipped PPOHyper."""
    setup, setup_reports = probe_setup("train", seed, tracer is not None)
    cfg, env = setup_train(seed)
    if tracer is not None:
        layers.install_train(tracer)
    op_s, rates, scales, digests, failed = [], [], [], [], 0
    try:
        clock = HostClock()
        start = perf_counter()
        while True:
            t0 = perf_counter()
            result = ppo.train(env, cfg.hyper, rep_seed(seed, len(op_s)), UPDATES_PER_OP)
            t1 = perf_counter()
            scales.append(clock.mark())
            op_s.append((t1 - t0) / UPDATES_PER_OP)
            rates.append(len(result.value_curve) * env.n_decisions / (t1 - t0))
            digest, finite = train_digest(result)
            digests.append(digest)
            failed += 0 if finite else UPDATES_PER_OP
            if perf_counter() - start >= seconds:
                break
        wall = perf_counter() - start - clock.marked_s
        rss_mb = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.restore()
    rerun, _ = train_digest(ppo.train(env, cfg.hyper, rep_seed(seed, 0), UPDATES_PER_OP))
    checks = {"losses_finite": failed == 0, "rerun_digest_equal": rerun == digests[0]}
    failed += 0 if checks["rerun_digest_equal"] else UPDATES_PER_OP
    metrics, raw = end_to_end(setup, rss_mb, (rates, scales), (op_s, scales))
    out = Outcome(
        metrics=metrics,
        attempted=len(op_s) * UPDATES_PER_OP,
        failed=failed,
        checks=checks,
        digests={"first_op_value_curve_and_losses": digests[0]},
        info={"updates_per_op": UPDATES_PER_OP, "ops": len(op_s), "setting": TRAIN_SETTING,
              "raw_end_to_end": raw, "reference_ms_p50": clock.reference_ms_p50},
    )
    if tracer is not None:
        out.layers = layers.metrics(tracer, wall, setup_reports)
    return out


# -- sweep_eval ------------------------------------------------------------


def check_sweep(out_dir, n_settings):
    """(ok, manifest file hashes, exported bytes) of one sweep directory."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        hashes = json.load(fh)["files"]
    ok = True
    exported = os.path.getsize(os.path.join(out_dir, "manifest.json"))
    for name, want in hashes.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        ok = ok and hashlib.sha256(data).hexdigest() == want
        exported += len(data)
    with open(os.path.join(out_dir, "value_table.csv")) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
    ok = ok and len(rows) == n_settings
    ok = ok and all(np.isfinite(float(v)) for row in rows for v in row[1:])
    ckpts = [n for n in os.listdir(out_dir) if n.endswith(".ckpt")]
    return ok and len(ckpts) == n_settings, hashes, exported


def run_sweep_eval(seed, seconds, tracer):
    """Op = one evaluated and exported episode of ``harness.sweep`` over settings 1..8."""
    setup, setup_reports = probe_setup("sweep_eval", seed, tracer is not None)
    cfg = setup_sweep(seed)
    episodes = len(SWEEP_SETTINGS) * cfg.eval_episodes
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
    op_s, rates, scales, failed, first = [], [], [], 0, None
    try:
        if tracer is not None:
            layers.install_sweep(tracer)
        try:
            clock = HostClock()
            start = perf_counter()
            while True:
                k = len(op_s)
                run_cfg = harness.config_from_dict(sweep_keys(rep_seed(seed, k)))
                out_dir = os.path.join(work, "op%d" % k)
                t0 = perf_counter()
                harness.sweep(SWEEP_SETTINGS, run_cfg, out_dir)
                t1 = perf_counter()
                scales.append(clock.mark())
                op_s.append((t1 - t0) / episodes)
                rates.append(episodes * cfg.n_decisions / (t1 - t0))
                ok, hashes, exported = check_sweep(out_dir, len(SWEEP_SETTINGS))
                failed += 0 if ok else episodes
                if tracer is not None:
                    tracer.counts["harness.export_bytes"] += exported
                if first is None:
                    first = hashes
                shutil.rmtree(out_dir)
                if perf_counter() - start >= seconds:
                    break
            wall = perf_counter() - start - clock.marked_s
            rss_mb = peak_rss_mb()
        finally:
            if tracer is not None:
                tracer.restore()
        rerun_dir = os.path.join(work, "rerun")
        harness.sweep(SWEEP_SETTINGS, harness.config_from_dict(sweep_keys(rep_seed(seed, 0))), rerun_dir)
        _, rerun, _ = check_sweep(rerun_dir, len(SWEEP_SETTINGS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = {"outputs_match_manifest": failed == 0, "rerun_manifest_equal": rerun == first}
    failed += 0 if checks["rerun_manifest_equal"] else episodes
    manifest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    metrics, raw = end_to_end(setup, rss_mb, (rates, scales), (op_s, scales))
    out = Outcome(
        metrics=metrics,
        attempted=len(op_s) * episodes,
        failed=failed,
        checks=checks,
        digests={"first_op_manifest_files": manifest},
        info={"episodes_per_sweep": episodes, "sweeps": len(op_s),
              "raw_end_to_end": raw, "reference_ms_p50": clock.reference_ms_p50},
    )
    if tracer is not None:
        out.layers = layers.metrics(tracer, wall, setup_reports)
    return out


# -- bridge ----------------------------------------------------------------


def bridge_inputs(seed, ckpt):
    """Write a checkpoint of seeded networks; return replay frames.

    Each frame is (agent, observation payload, expected action), where the
    expected action is the in-process GreedyPolicy argmax.
    """
    cfg = harness.config_from_dict(train_keys(seed))
    rng = np.random.default_rng(seed)
    hsize = cfg.hyper.buffer_size
    human = ppo.make_agent(rng, episode.OBS_DIM_HUMAN, ppo.HUMAN_ACTIONS, hsize)
    machine = ppo.make_agent(rng, episode.OBS_DIM_MACHINE, ppo.MACHINE_ACTIONS, hsize)
    ppo.save_checkpoint(ckpt, human, machine, meta={"seed": seed})
    actors = bridge.actors_from_checkpoint(ckpt)
    greedy = {agent: episode.GreedyPolicy(params) for agent, params in actors.items()}
    env = harness.make_env(cfg)
    frames = []
    for _ in range(BRIDGE_EPISODES):
        res = episode.run_episode(
            env, episode.SamplingPolicy(actors[0]), episode.SamplingPolicy(actors[1]), rng
        )
        for th, tm in zip(res.transitions_human, res.transitions_machine):
            for agent, obs in ((0, th.obs), (1, tm.obs)):
                payload = tuple(float(v) for v in obs)
                frames.append((agent, payload, greedy[agent].act(np.array(payload), None)[0]))
    return frames


def round_trip(sock, rfile, step, agent, payload):
    """Send one OBS frame and read its reply: one frame in flight."""
    frame = bridge.Frame("OBS", step, agent, payload)
    sock.sendall(bridge.encode_frame(frame).encode("ascii"))
    return bridge.decode_frame(rfile.readline())


def reply_ok(reply, step, agent, want):
    return reply == bridge.Frame("ACT", step, agent, (want,))


class Connection:
    """A policy server process and the single client connection to it."""

    def __init__(self, ckpt, traced):
        cmd = script("server.py") + [ckpt] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            port = int(self.proc.stdout.readline())
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=SUBPROCESS_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.rfile = self.sock.makefile("r", encoding="ascii", newline="\n")

    def close(self, step):
        """Say BYE, close the socket and return the server's report line."""
        try:
            self.sock.sendall(bridge.encode_frame(bridge.Frame("BYE", step, 0)).encode("ascii"))
            self.rfile.readline()
        finally:
            self.rfile.close()
            self.sock.close()
        return _finish(self.proc)


def start_servers(ckpt, frames, traced):
    """Start SETUP_SAMPLES servers in turn, each until its first ACT; keep the last.

    Returns ((set-up times, their scales), server start-up span reports, open
    connection).
    """
    clock = HostClock()
    times, scales, reports = [], [], []
    agent, payload, want = frames[0]
    for i in range(SETUP_SAMPLES):
        t0 = perf_counter()
        conn = Connection(ckpt, traced)
        try:
            reply = round_trip(conn.sock, conn.rfile, 0, agent, payload)
            times.append(perf_counter() - t0)
            if not reply_ok(reply, 0, agent, want):
                raise RuntimeError("set-up frame answered with %r" % (reply,))
        except BaseException:
            conn.close(1)
            raise
        scales.append(clock.mark())
        if i == SETUP_SAMPLES - 1:
            return (times, scales), reports, conn
        report = conn.close(1)
        if traced:
            reports.append(json.loads(report)["setup"])


def run_bridge(seed, seconds, tracer):
    """Op = one OBS/ACT round trip to a policy server process, closed loop."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="bridge-", dir=OUT)
    try:
        ckpt = os.path.join(work, "policy.ckpt")
        frames = bridge_inputs(seed, ckpt)
        with open(ckpt, "rb") as fh:
            ckpt_digest = hashlib.sha256(fh.read()).hexdigest()
        setup, setup_reports, conn = start_servers(ckpt, frames, tracer is not None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Op = one frame; the reference runs after each chunk of CHUNK_FRAMES
    # frames, and a chunk's frames share its scale.
    rtts, rtt_scales, rates, scales, errs, wrong = array("d"), array("d"), [], [], 0, 0
    step = 1
    try:
        if tracer is not None:
            layers.install_client(tracer, sys.modules[__name__])
        try:
            clock = HostClock()
            start = perf_counter()
            while True:
                c0 = perf_counter()
                for _ in range(CHUNK_FRAMES):
                    agent, payload, want = frames[step % len(frames)]
                    if tracer is not None:
                        tracer.op = step
                    t0 = perf_counter()
                    reply = round_trip(conn.sock, conn.rfile, step, agent, payload)
                    rtts.append(perf_counter() - t0)
                    if reply.kind == "ERR":
                        errs += 1
                    elif not reply_ok(reply, step, agent, want):
                        wrong += 1
                    step += 1
                rates.append(CHUNK_FRAMES / (perf_counter() - c0))
                scales.append(clock.mark())
                rtt_scales.extend([scales[-1]] * CHUNK_FRAMES)
                if perf_counter() - start >= seconds:
                    break
            wall = perf_counter() - start - clock.marked_s
            rss_mb = peak_rss_mb()
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        report = conn.close(step)
    actions = hashlib.sha256(json.dumps([f[2] for f in frames]).encode()).hexdigest()
    metrics, raw = end_to_end(setup, rss_mb, (rates, scales), (rtts, rtt_scales))
    p99 = float(np.percentile(scaled((rtts, rtt_scales)), 99))
    raw["rtt_us_p99"] = float(np.percentile(rtts, 99)) * 1e6
    out = Outcome(
        metrics=metrics,
        attempted=len(rtts),
        failed=errs + wrong,
        checks={"no_err_frames": errs == 0, "acts_equal_greedy": wrong == 0},
        digests={"checkpoint": ckpt_digest, "expected_actions": actions},
        info={"frames": len(rtts), "rtt_us_p99": p99 * 1e6, "distinct_frames": len(frames),
              "raw_end_to_end": raw, "reference_ms_p50": clock.reference_ms_p50},
    )
    if tracer is not None:
        tracer.counts["bridge.err_frames"] = errs
        server = json.loads(report)
        out.layers = layers.metrics(tracer, wall, setup_reports + [server["setup"]], server)
    return out


WORKLOADS = {"train": run_train, "sweep_eval": run_sweep_eval, "bridge": run_bridge}
