"""Experiment orchestration: subject profiles, metrics, sweeps, CSV export.

Every run is pinned by (config, seed): training, evaluation episodes and
the exported CSVs are byte-reproducible. Evaluation keeps the stochastic
policies (actions sampled, not argmaxed) so the action-dispersion metric
reflects the learned distribution rather than its mode; the evaluation
seeds are fixed and shared across settings so rows stay comparable.
"""

import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from .config import coerce, write_utf8
from .controllers import SETTING_RANGE, SETTINGS
from .episode import EnvParams, EpisodeTrace, SamplingPolicy, run_episode
from .human import HumanParams
from .plant import PlantParams, ReferenceTrajectory
from .ppo import PPOHyper, save_checkpoint, train

# Synthetic subject profiles: a moderate baseline and a strong-biofeedback
# variant (doubled commanded torque per digit).
SUBJECTS = {
    "subject_1": HumanParams(),
    "subject_13": HumanParams(unit_torque=10.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, fully resolved. The field defaults are the shipped values."""

    seed: int
    plant: PlantParams
    reference: ReferenceTrajectory
    human: HumanParams
    hyper: PPOHyper
    setting_id: int = 2
    subject: str = "subject_1"
    window: int = 10  # k: decision steps per reward window
    decision_interval: int = 10  # plant substeps per decision
    n_decisions: int = 60
    # Desk-scale training schedule. The small learning rate (PPOHyper)
    # matters: it keeps probability ratios off the clip boundary, so the
    # per-setting reward-weight differences translate into proportionally
    # different policy speeds instead of being equalized by the clip. 130
    # updates is past the point where the comfort-weighted settings have
    # stopped wandering (their residual wander otherwise dominates tracking
    # error), and each setting trains in ~30 s.
    n_updates: int = 130
    eval_episodes: int = 10
    output_dir: str = "runs"


# Flat config key -> ExperimentConfig field, for the keys outside a section.
CONFIG_KEYS = {
    "seed": "seed",
    "setting": "setting_id",
    "subject": "subject",
    "episode.window": "window",
    "episode.decision_interval": "decision_interval",
    "episode.n_decisions": "n_decisions",
    "train.n_updates": "n_updates",
    "eval.episodes": "eval_episodes",
    "output_dir": "output_dir",
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# The sections: the ExperimentConfig fields that hold a parameter dataclass.
# Each field of one is set by the key ``section.field``.
SECTIONS = {name: kind for name, kind in _FIELD_TYPES.items() if is_dataclass(kind)}
# Every settable flat key -> (section, or None at the top level; field; type).
KEYS = {key: (None, name, _FIELD_TYPES[name]) for key, name in CONFIG_KEYS.items()}
KEYS.update(
    ("%s.%s" % (section, f.name), (section, f.name, f.type))
    for section, kind in SECTIONS.items()
    for f in fields(kind)
)

CHECKPOINT_KEYS = ("setting", "seed", "subject")  # checkpoint meta, read back by eval

# The most plant substeps an episode or the reaction-delay line may hold: a
# size that allocates fails at the config boundary, naming its key.
MAX_SUBSTEPS = 10**7

# The tracking error mse_metrics squares is at most max(|angle_min|,
# |angle_max|) + |offset| + amplitude; with each of those three terms in
# this bound, MAX_SUBSTEPS squares of their sum stay finite.
_REACH = (lambda v: math.isfinite(MAX_SUBSTEPS * (3 * v) * (3 * v)),
          "small enough that %d * (3 * |value|)**2 is finite" % MAX_SUBSTEPS)
# Every |value| _REACH accepts is below REACH_MAX, about 1.41e150. Angle
# observations divide the pedal angle, the reference or their difference,
# each below 3 * REACH_MAX, by the amplitude (the upper stop for a flat
# reference).
REACH_MAX = math.sqrt(sys.float_info.max / MAX_SUBSTEPS) / 3
_ANGLE_DIVISOR = (lambda v: math.isfinite(3 * REACH_MAX / v),
                  "large enough that the angle observations, up to 3 * %.3g / value, are finite"
                  % REACH_MAX)
# numpy's standard normal draws stay below 14 in magnitude: its ziggurat tail
# adds at most 53 * ln(2) / r = 10.05 to r = 3.654.
NORMAL_DRAW_MAX = 14

# Config key -> (test, rule), checked by ``config_from_dict`` on the resolved config.
BOUNDS = {
    "seed": (lambda v: v >= 0, ">= 0"),  # numpy seeds are non-negative
    "setting": (lambda v: v in SETTINGS, "in " + SETTING_RANGE),
    "plant.inertia": (lambda v: v > 0, "> 0"),
    "plant.damping": (lambda v: v >= 0, ">= 0"),
    "plant.torque_limit": (lambda v: v > 0, "> 0"),
    "plant.dt": (lambda v: v > 0, "> 0"),
    "plant.angle_min": _REACH,
    "plant.angle_max": _REACH,
    "plant.omega_max": (lambda v: v > 0, "> 0"),
    "reference.amplitude": (
        lambda v: v == 0 or (v > 0 and _REACH[0](v) and _ANGLE_DIVISOR[0](v)),
        "0, or > 0, %s and %s" % (_REACH[1], _ANGLE_DIVISOR[1])),
    "reference.period": (lambda v: v > 0, "> 0"),
    "reference.offset": _REACH,
    # mse_metrics sums up to MAX_SUBSTEPS squared deviations of the commanded
    # torque, each at most (4 * unit_torque)**2 for digits in -2..2
    "human.unit_torque": (lambda v: v > 0 and math.isfinite(MAX_SUBSTEPS * (4 * v) * (4 * v)),
        "> 0 and small enough that %d * (4 * unit_torque)**2 is finite" % MAX_SUBSTEPS),
    "human.reaction_delay": (lambda v: 0 <= v <= MAX_SUBSTEPS, "in 0..%d" % MAX_SUBSTEPS),
    "human.lag_time_constant": (lambda v: v >= 0, ">= 0"),
    # each substep's noise is a standard normal draw times noise_std
    "human.noise_std": (lambda v: v >= 0 and math.isfinite(NORMAL_DRAW_MAX * v),
        ">= 0 and small enough that %d * noise_std is finite" % NORMAL_DRAW_MAX),
    "hyper.gamma": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "hyper.clip": (lambda v: 0 < v < 1, "in (0, 1)"),
    "hyper.batch_size": (lambda v: v >= 1, ">= 1"),
    "hyper.learning_rate": (lambda v: v >= 0, ">= 0"),
    "hyper.update_epochs": (lambda v: v >= 1, ">= 1"),
    "episode.window": (lambda v: v >= 3, ">= 3"),  # the effort term divides by k - 2
    "episode.decision_interval": (lambda v: v >= 1, ">= 1"),
    "episode.n_decisions": (lambda v: v >= 1, ">= 1"),
    # Zero updates is a valid run (evaluate the initial policies); zero
    # evaluation episodes would average an empty list into NaN metrics.
    "train.n_updates": (lambda v: v >= 0, ">= 0"),
    "eval.episodes": (lambda v: v >= 1, ">= 1"),
    "output_dir": (lambda v: v != "", "non-empty"),
}
# The cross-field rules, whose errors name both keys: (key, test, rule, other
# key). A test takes both keys' values and the setting's ``SettingConfig``.
PAIRED_BOUNDS = (
    ("plant.angle_min", lambda v, w, _: v < w, "<", "plant.angle_max"),
    ("hyper.batch_size", lambda v, w, _: v <= w, "<=", "hyper.buffer_size"),
    # a flat reference scales angle observations by the upper stop
    ("plant.angle_max", lambda v, w, _: w > 0 or (v > 0 and _ANGLE_DIVISOR[0](v)),
     "> 0 and %s at a zero" % _ANGLE_DIVISOR[1], "reference.amplitude"),
    # the trace holds one column per substep
    ("episode.n_decisions", lambda v, w, _: v * w <= MAX_SUBSTEPS,
     "<= %d substeps /" % MAX_SUBSTEPS, "episode.decision_interval"),
    # math.sin rejects an infinite reference phase 2*pi*t/period; plant.clock's
    # t is at most MAX_SUBSTEPS steps of dt, doubled for its running sum's rounding
    ("reference.period",
     lambda v, w, _: math.isfinite(2.0 * math.pi * (2 * MAX_SUBSTEPS * w) / v),
     "long enough that 2*pi*t/period stays finite for t up to 2 * %d substeps of"
     % MAX_SUBSTEPS, "plant.dt"),
    # The human lag's Euler step: with x the applied torque minus its setpoint
    # and a PD pair held, x[n+1] = (1 - a - b) x[n] + b x[n-1], where
    # a = L kp, b = L kd / dt and L = dt / (lag + dt) * dt. The recurrence
    # converges iff dt (kp dt + 2 kd) < 2 (lag + dt), which also gives b < 1.
    ("plant.dt",
     lambda v, w, s: all(v * (g.kp * v + 2 * g.kd) < 2 * (w + v) for g in s.human_pd),
     "small enough that the human lag's Euler step converges, dt * (kp * dt + 2 * kd) <"
     " 2 * (lag + dt) for both of the setting's human PD pairs, at",
     "human.lag_time_constant"),
    # The human PD derivative: a digit change moves the PD error by up to
    # 4 * unit_torque in one substep, which the kernel divides by dt. An
    # infinite derivative times the lag step, which then underflows to 0, is nan.
    ("plant.dt",
     lambda v, w, s: all(math.isfinite(g.kd * (4 * w / v)) for g in s.human_pd),
     "large enough that the human PD derivative kd * (4 * unit_torque / dt) is finite for"
     " both of the setting's human PD pairs, at", "human.unit_torque"),
)


def config_from_dict(cfg: dict) -> ExperimentConfig:
    """Resolve a flat key-value dict into a full ExperimentConfig.

    Precedence: dataclass defaults < subject profile < caller-supplied keys
    (file, ``--set`` pairs and flags already merged). One pass over ``KEYS``
    rejects every unknown key in one error, coerces each value to its
    field's type once and places it; the resolved values are then checked
    against ``BOUNDS`` and ``PAIRED_BOUNDS``. Every error is a ValueError
    naming its key.
    """
    unknown = sorted(key for key in cfg if key not in KEYS)
    if unknown:
        raise ValueError("; ".join("config key %r is unknown" % key for key in unknown))
    if "seed" not in cfg:
        raise ValueError("seed is mandatory (set seed = N or pass --seed)")
    placed = {section: {} for section in (None, *SECTIONS)}
    for key, value in cfg.items():
        section, name, kind = KEYS[key]
        placed[section][name] = coerce(key, value, kind)
    top = placed.pop(None)
    subject = top.get("subject", ExperimentConfig.subject)
    if subject not in SUBJECTS:
        raise ValueError(
            "config key 'subject': unknown subject %r (have: %s)"
            % (subject, ", ".join(sorted(SUBJECTS)))
        )
    # Each section's keys override its defaults; the human's come from the subject.
    bases = {section: kind() for section, kind in SECTIONS.items()}
    bases["human"] = SUBJECTS[subject]
    config = ExperimentConfig(
        **top, **{section: replace(bases[section], **kw) for section, kw in placed.items()}
    )
    values = {
        key: getattr(getattr(config, section) if section else config, name)
        for key, (section, name, _) in KEYS.items()
    }
    for key, (ok, rule) in BOUNDS.items():
        if not ok(values[key]):
            raise ValueError("config key %r must be %s, got %r" % (key, rule, values[key]))
    setting = SETTINGS[config.setting_id]
    for key, ok, rule, other in PAIRED_BOUNDS:
        if not ok(values[key], values[other], setting):
            got = (key, rule, other, values[key], values[other])
            raise ValueError("config key %r must be %s config key %r, got %r and %r" % got)
    return config


def make_env(cfg: ExperimentConfig) -> EnvParams:
    """The env of ``cfg``'s setting, whose id ``config_from_dict`` has checked."""
    return EnvParams(
        plant=cfg.plant,
        reference=cfg.reference,
        human=cfg.human,
        setting=SETTINGS[cfg.setting_id],
        window=cfg.window,
        decision_interval=cfg.decision_interval,
        n_decisions=cfg.n_decisions,
    )


@dataclass(frozen=True)
class MetricsReport:
    human_action_mse: float
    tracking_error_mse: float
    value: float  # cumulative shared reward of the episode


def mse_metrics(trace: EpisodeTrace, unit_torque: float) -> MetricsReport:
    """Tracking MSE over plant steps, action dispersion over decision steps.

    The action metric measures activity: the variance of the commanded
    torque (digit * unit_torque) about its episode mean. A constant digit
    scores 0 however large the torque.
    """
    err = trace.position - trace.reference
    tracking = float((err * err).mean())
    scaled = trace.digit * unit_torque
    action = float(((scaled - scaled.mean()) ** 2).mean())
    # Summed at plant rate: numpy's pairwise sum groups the decision rewards alone differently.
    reward = np.zeros(len(trace))
    reward[trace.decision_interval - 1 :: trace.decision_interval] = trace.reward
    return MetricsReport(
        human_action_mse=action,
        tracking_error_mse=tracking,
        value=float(reward.sum()),
    )


def eval_seeds(base_seed: int, n_episodes: int) -> list:
    """Per-episode evaluation seeds; depend only on the base seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(base_seed).spawn(n_episodes)]


def evaluate_agents(human_actor, machine_actor, env: EnvParams, n_episodes: int, base_seed: int):
    """Run evaluation episodes; returns (mean MetricsReport, traces).

    A ValueError from an episode names it: ``evaluation episode i of N``.
    """
    traces = []
    reports = []
    for i, s in enumerate(eval_seeds(base_seed, n_episodes), 1):
        rng = np.random.default_rng(s)
        try:
            res = run_episode(
                env, SamplingPolicy(human_actor), SamplingPolicy(machine_actor), rng
            )
        except ValueError as exc:
            raise ValueError("evaluation episode %d of %d: %s" % (i, n_episodes, exc)) from None
        traces.append(res.trace)
        reports.append(mse_metrics(res.trace, env.human.unit_torque))
    mean = MetricsReport(
        human_action_mse=float(np.mean([r.human_action_mse for r in reports])),
        tracking_error_mse=float(np.mean([r.tracking_error_mse for r in reports])),
        value=float(np.mean([r.value for r in reports])),
    )
    return mean, traces


def train_setting(cfg: ExperimentConfig):
    """Train one setting and evaluate it; returns (TrainResult, MetricsReport, traces)."""
    env = make_env(cfg)
    result = train(env, cfg.hyper, cfg.seed, cfg.n_updates)
    mean, traces = evaluate_agents(
        result.human.actor, result.machine.actor, env, cfg.eval_episodes, cfg.seed
    )
    return result, mean, traces


TRACE_COLUMNS = (
    "t", "reference", "position", "omega", "tau_machine", "tau_human",
    "digit", "machine_action", "reward",
)


@functools.lru_cache(maxsize=2)
def _column_reprs(data: bytes) -> tuple:
    """``repr`` of each float64 of a column, given as its bytes.

    The key is the bytes, not the values: ``-0.0 == 0.0``, but their
    ``repr``s differ. Two entries hold a sweep's time and reference columns;
    a tuple, since every caller is handed the same one.
    """
    return tuple(map(repr, np.frombuffer(data).tolist()))


def trace_to_csv(trace: EpisodeTrace) -> str:
    """Exact-precision CSV, one row per plant substep.

    Each column is rendered once (``repr`` of each float, ``str`` of each
    int), then joined row by row. Each decision's digit and machine action
    are rendered once and written on every row of its block, its reward on
    the block's last row and ``0.0`` above it. The time and reference
    columns depend only on the env, never on the policy or the noise, so
    every trace of a sweep has the same two, and ``_column_reprs`` renders
    each once. The other columns are not cached. They repeat across
    settings only when nothing is trained (every setting then starts from
    the same networks and evaluation seeds), and a real sweep does not
    repeat them. A column of the wrong length raises ValueError.
    """
    interval = trace.decision_interval
    tails = []
    decisions = (trace.digit.tolist(), trace.machine_action.tolist(), trace.reward.tolist())
    for d, a, r in zip(*decisions, strict=True):
        head = "%s,%s," % (d, a)
        tails += [head + "0.0"] * (interval - 1)
        tails.append(head + repr(r))
    columns = (
        _column_reprs(trace.time.tobytes()),
        _column_reprs(trace.reference.tobytes()),
        map(repr, trace.position.tolist()),
        map(repr, trace.omega.tolist()),
        map(repr, trace.tau_machine.tolist()),
        map(repr, trace.tau_human.tolist()),
        tails,
    )
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(map(",".join, zip(*columns, strict=True)))
    return "\n".join(lines) + "\n"


def _write(out_dir, name, text: str) -> str:
    """Write ``text`` to ``out_dir/name``; returns the sha256 of its bytes."""
    return hashlib.sha256(write_utf8(os.path.join(out_dir, name), text)).hexdigest()


def export_traces(sid: int, traces, out_dir) -> dict:
    """Write one setting's evaluation traces, one CSV per episode in order.

    Each CSV is written as soon as it is rendered, so one text at a time is
    held. Returns {filename: sha256}.
    """
    hashes = {}
    for i, trace in enumerate(traces):
        name = "trace_setting%d_ep%d.csv" % (sid, i)
        hashes[name] = _write(out_dir, name, trace_to_csv(trace))
    return hashes


def export_results(reports: dict, hashes: dict, out_dir, run_info: dict) -> dict:
    """Write the value table, then the manifest that hashes it and ``hashes``.

    ``reports`` maps setting id -> MetricsReport; ``hashes`` maps each file
    already written to ``out_dir`` (the trace CSVs) to its sha256. The
    manifest is written last, so a directory holding one is complete.
    Checkpoints are not hashed. Returns {filename: sha256} as written to the
    manifest.
    """
    table_lines = ["setting,value,human_action_mse,tracking_error_mse"]
    for sid in sorted(reports):
        r = reports[sid]
        table_lines.append(
            "%d,%s,%s,%s"
            % (sid, repr(r.value), repr(r.human_action_mse), repr(r.tracking_error_mse))
        )
    table = "\n".join(table_lines) + "\n"
    hashes = {**hashes, "value_table.csv": _write(out_dir, "value_table.csv", table)}

    manifest = json.dumps({"run": run_info, "files": hashes}, indent=2, sort_keys=True)
    write_utf8(os.path.join(out_dir, "manifest.json"), manifest + "\n")
    return hashes


def save_setting_checkpoint(cfg: ExperimentConfig, result, out_dir) -> str:
    """Write ``result``'s networks to ``out_dir/setting<id>.ckpt``; returns the path."""
    path = os.path.join(out_dir, "setting%d.ckpt" % cfg.setting_id)
    meta = {key: getattr(cfg, CONFIG_KEYS[key]) for key in CHECKPOINT_KEYS}
    save_checkpoint(path, result.human, result.machine, meta=meta)
    return path


def _sweep_setting(cfg: ExperimentConfig, out_dir, hashes: dict):
    """Train, evaluate and export one setting of a sweep.

    Returns its MetricsReport; the TrainResult, traces and CSV texts die on
    return, so a sweep holds one setting's at a time.
    """
    result, mean, traces = train_setting(cfg)
    hashes.update(export_traces(cfg.setting_id, traces, out_dir))
    save_setting_checkpoint(cfg, result, out_dir)
    return mean


def sweep(settings, cfg: ExperimentConfig, out_dir) -> dict:
    """Train and evaluate each setting with identical seeds; export results.

    Returns {setting id: MetricsReport}. Each setting's trace CSVs and
    checkpoint are written to ``out_dir`` as soon as it is evaluated, and
    the value table and manifest after the last setting, so a sweep that
    stops part-way leaves no manifest. The env's time and reference columns
    are rendered once for every trace CSV (``trace_to_csv``). The
    manifest's run block is ``cfg`` as a dict, without ``output_dir`` and
    ``setting_id``, plus ``settings``. A ValueError from a setting names
    it: ``setting s``.
    """
    reports = {}
    hashes = {}
    for sid in settings:
        try:
            reports[sid] = _sweep_setting(replace(cfg, setting_id=sid), out_dir, hashes)
        except ValueError as exc:
            raise ValueError("setting %d: %s" % (sid, exc)) from None
    run_info = asdict(cfg)
    del run_info["output_dir"], run_info["setting_id"]
    export_results(reports, hashes, out_dir, {**run_info, "settings": list(settings)})
    return reports
