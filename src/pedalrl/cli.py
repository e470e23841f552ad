"""Command-line entry points: train, eval, sweep, bridge-serve, bench."""

import argparse
import os
import sys
import time

import numpy as np

from . import kernels
from .bridge import PolicyServer, actors_from_checkpoint, parse_endpoint
from .config import apply_overrides, load_config, write_utf8
from .controllers import SETTING_RANGE, SETTINGS
from .harness import (
    CHECKPOINT_KEYS,
    CONFIG_KEYS,
    MAX_SUBSTEPS,
    config_from_dict,
    evaluate_agents,
    make_env,
    save_setting_checkpoint,
    sweep,
    train_setting,
)
from .ppo import load_checkpoint


def parse_settings(text: str) -> list:
    """Setting selections: '3', '2,4,6' or an inclusive range '1..8'.

    Every id is checked here, before a sweep trains anything.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split("..", 1))
        else:
            ids = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError("--settings %r: expected ids like 3, 2,4,6 or 1..8" % text) from None
    if ".." in text:
        # Check a range's bounds before building its list: it can be huge.
        first, last = min(SETTINGS), max(SETTINGS)
        outside = [
            (a, b) for a, b in ((lo, min(hi, first - 1)), (max(lo, last + 1), hi)) if a <= b
        ]
        if outside:
            spans = ", ".join(str(a) if a == b else "%d..%d" % (a, b) for a, b in outside)
            raise ValueError(
                "--settings %r: unknown setting ids %s (expected %s)" % (text, spans, SETTING_RANGE)
            )
        ids = list(range(lo, hi + 1))
    if not ids:
        raise ValueError("--settings %r: no settings" % text)
    unknown = [sid for sid in ids if sid not in SETTINGS]
    if unknown:
        raise ValueError(
            "--settings %r: unknown setting ids %s (expected %s)" % (text, unknown, SETTING_RANGE)
        )
    repeated = [sid for sid in sorted(set(ids)) if ids.count(sid) > 1]
    if repeated:
        raise ValueError("--settings %r: repeated setting ids %s" % (text, repeated))
    return ids


def _config_dict(args) -> dict:
    """The flat config as text: file < ``--set`` pairs < the flags named by their key."""
    cfg = load_config(args.config) if args.config else {}
    cfg = apply_overrides(cfg, args.set or [])
    flags = ((key, getattr(args, key, None)) for key in CONFIG_KEYS)
    cfg.update((key, value) for key, value in flags if value is not None)
    return cfg


def cmd_train(args) -> int:
    cfg = config_from_dict(_config_dict(args))
    result, mean, traces = train_setting(cfg)
    ckpt = save_setting_checkpoint(cfg, result, cfg.output_dir)
    curve = ["episode,value"]
    curve.extend("%d,%s" % (i, repr(float(v))) for i, v in enumerate(result.value_curve))
    curve_path = os.path.join(cfg.output_dir, "value_curve_setting%d.csv" % cfg.setting_id)
    write_utf8(curve_path, "\n".join(curve) + "\n")
    print("setting %d  subject %s  seed %d" % (cfg.setting_id, cfg.subject, cfg.seed))
    print(
        "value %.4f  human_action_mse %.4f  tracking_error_mse %.6f"
        % (mean.value, mean.human_action_mse, mean.tracking_error_mse)
    )
    print("checkpoint: %s" % ckpt)
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    meta = ckpt.get("meta", {})
    cfg_dict = _config_dict(args)
    for key in CHECKPOINT_KEYS:
        if key not in cfg_dict and key in meta:
            cfg_dict[key] = meta[key]
    cfg = config_from_dict(cfg_dict)
    env = make_env(cfg)
    mean, _ = evaluate_agents(
        ckpt["human.actor"], ckpt["machine.actor"], env, cfg.eval_episodes, cfg.seed
    )
    print(
        "episodes %d  value %.4f  human_action_mse %.4f  tracking_error_mse %.6f"
        % (cfg.eval_episodes, mean.value, mean.human_action_mse, mean.tracking_error_mse)
    )
    return 0


def cmd_sweep(args) -> int:
    ids = parse_settings(args.settings)
    cfg = config_from_dict(_config_dict(args))
    reports = sweep(ids, cfg, out_dir=cfg.output_dir)
    print("setting  value        human_action_mse  tracking_error_mse")
    for sid in sorted(reports):
        mean = reports[sid]
        print(
            "%7d  %-11.4f  %-16.4f  %.6f"
            % (sid, mean.value, mean.human_action_mse, mean.tracking_error_mse)
        )
    print("results: %s" % cfg.output_dir)
    return 0


def cmd_bridge_serve(args) -> int:
    endpoint = parse_endpoint(args.endpoint)
    actors = actors_from_checkpoint(args.checkpoint)
    with PolicyServer(endpoint, actors, args.stochastic) as server:
        host, port = server.server_address[:2]
        print("serving %s:%d from %s" % (host, port, args.checkpoint), flush=True)
        server.serve_forever()
    return 0


def cmd_bench(args) -> int:
    """Time the fused substep kernel: compiled backend vs pure Python."""
    # Shipped plant, reference, human and decision interval; setting 1,
    # machine sub-controller 0.
    env = make_env(config_from_dict({"seed": 0, "setting": 1}))
    interval = env.decision_interval if args.interval is None else args.interval
    for flag, value in (("--blocks", args.blocks), ("--interval", interval)):
        if value < 1:
            raise ValueError("%s must be >= 1, got %d" % (flag, value))
    if args.blocks * interval > MAX_SUBSTEPS:
        raise ValueError(
            "--blocks * --interval must be <= %d substeps, got %d * %d"
            % (MAX_SUBSTEPS, args.blocks, interval)
        )
    noise = memoryview(np.zeros(interval))
    constants, bank = kernels.pack(env)

    def run(fn, blocks):
        # the buffers run_episode hands the kernel
        block, sim, queue, rows = kernels.buffers(env.human.reaction_delay, blocks * interval)
        start = time.perf_counter()
        for b in range(blocks):
            digit = (-2, -1, 0, 1, 2)[b % 5]
            fn(sim, queue, digit, 0, constants, bank, noise, rows, b * interval, interval)
        elapsed = time.perf_counter() - start
        # every trace row, the final state and the delay line, as bytes
        return elapsed, (block.tobytes(), sim.tobytes(), queue.tobytes())

    blocks = args.blocks
    if kernels.NUMBA_ENABLED:
        run(kernels.run_substeps, 1)  # compile once so the timing excludes it
        jit_time, jit_state = run(kernels.run_substeps, blocks)
    else:
        jit_time, jit_state = None, None
    py_time, py_state = run(kernels.run_substeps_python, blocks)

    steps = blocks * interval
    print("substeps: %d (blocks=%d, interval=%d)" % (steps, blocks, interval))
    print("python backend: %.4f s  (%.0f steps/s)" % (py_time, steps / py_time))
    if jit_time is None:
        print("numba backend: unavailable (not installed)")
    else:
        print("numba backend:  %.4f s  (%.0f steps/s)" % (jit_time, steps / jit_time))
        print("speedup: %.1fx" % (py_time / jit_time))
        same = jit_state == py_state
        print("backends bit-identical: %s" % same)
        if not same:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedalrl",
        description="Dual-agent RL lab for robot-assisted ankle rehabilitation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="config override (repeatable)",
        )
        # Config flags carry text, which config_from_dict types like any
        # other value; each flag's dest is the config key it sets.
        p.add_argument("--subject", help="subject profile name")
        p.add_argument("--seed", required=seed_required)

    p_train = sub.add_parser("train", help="train one setting")
    p_train.add_argument("--setting", required=True)
    common(p_train, seed_required=True)
    p_train.add_argument("--out", dest="output_dir", help="output directory (sets output_dir)")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--setting")
    common(p_eval)
    p_eval.add_argument("--episodes", dest="eval.episodes", metavar="N")
    p_eval.set_defaults(fn=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train and compare settings")
    p_sweep.add_argument("--settings", required=True, help="e.g. 1..8 or 2,4")
    common(p_sweep, seed_required=True)
    p_sweep.add_argument("--out", dest="output_dir", help="output directory (sets output_dir)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_serve = sub.add_parser("bridge-serve", help="serve policies over a socket")
    p_serve.add_argument("--endpoint", required=True, help="HOST:PORT")
    p_serve.add_argument("--checkpoint", required=True)
    p_serve.add_argument("--stochastic", action="store_true")
    p_serve.set_defaults(fn=cmd_bridge_serve)

    p_bench = sub.add_parser("bench", help="compare kernel backends")
    p_bench.add_argument("--blocks", type=int, default=20000)
    p_bench.add_argument("--interval", type=int, help="default: the decision interval")
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
