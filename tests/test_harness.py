import errno
import gc
import hashlib
import json
import os
import weakref
from dataclasses import MISSING, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ConstantPolicy, make_test_env
from pedalrl import harness
from pedalrl.config import apply_overrides, coerce, parse_config_text, write_utf8
from pedalrl.episode import EpisodeTrace, SamplingPolicy, run_episode
from pedalrl.harness import (
    CONFIG_KEYS,
    SUBJECTS,
    TRACE_COLUMNS,
    ExperimentConfig,
    MetricsReport,
    config_from_dict,
    eval_seeds,
    evaluate_agents,
    export_results,
    export_traces,
    make_env,
    mse_metrics,
    sweep,
    trace_to_csv,
)
from pedalrl.nets import init_params


def test_coerce_types_text_by_field():
    assert coerce("k", "3", int) == 3 and isinstance(coerce("k", "3", int), int)
    assert coerce("k", "3", float) == 3.0 and isinstance(coerce("k", "3", float), float)
    assert coerce("k", "0.5", float) == 0.5
    assert coerce("k", "1e-3", float) == 1e-3
    assert coerce("k", "1e3", int) == 1000 and coerce("k", "-0", float) == 0.0
    # a str field keeps the text as written
    for text in ("007", "1e3", "true", "off", "subject_13"):
        assert coerce("k", text, str) == text
    for text, kind in (("true", int), ("off", float), ("0.5", int), ("nan", float), ("", int)):
        with pytest.raises(ValueError, match="'k'"):
            coerce("k", text, kind)
    for kind in (int, float, str):
        with pytest.raises(ValueError, match="'k'"):
            coerce("k", True, kind)


def test_parse_config_text():
    text = "\n".join(
        (
            "# comment line",
            "setting = 4",
            "",
            "hyper.gamma = 0.9  # inline comment",
            "subject = subject_13",
        )
    )
    cfg = parse_config_text(text)
    assert cfg == {"setting": "4", "hyper.gamma": "0.9", "subject": "subject_13"}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("= 3\n")


def test_parse_config_rejects_a_repeated_key_naming_both_lines():
    text = "seed = 1\n# seed = 3 in a comment is no key\ntrain.n_updates = 0\nseed = 2\n"
    with pytest.raises(ValueError) as err:
        parse_config_text(text, "dup.cfg")
    assert str(err.value) == "dup.cfg: line 4 repeats key 'seed' from line 1"
    # a key is its stripped text, so spacing does not hide a repeat
    with pytest.raises(ValueError, match="line 2 repeats key 'seed' from line 1"):
        parse_config_text("seed = 1\n  seed=1\n")


def test_apply_overrides():
    cfg = {"setting": 1, "seed": 3}
    out = apply_overrides(cfg, ["setting=5", "hyper.clip = 0.1"])
    assert out == {"setting": "5", "seed": 3, "hyper.clip": "0.1"}
    assert cfg["setting"] == 1  # original untouched
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["no-equals-sign"])
    for pair in ("=5", " = 5"):
        with pytest.raises(ValueError, match="^override %r has an empty key$" % pair):
            apply_overrides(cfg, [pair])


def test_config_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        config_from_dict({"setting": 2})


def test_config_defaults_and_shipped_schedule():
    cfg = config_from_dict({"seed": 7})
    assert cfg.setting_id == 2
    assert cfg.subject == "subject_1"
    assert cfg.n_updates == 130
    assert cfg.eval_episodes == 10
    assert cfg.hyper.buffer_size == 2048
    assert cfg.human == SUBJECTS["subject_1"]
    # the ExperimentConfig field defaults are the only table of defaults
    for seed in (0, 7):
        cfg = config_from_dict({"seed": seed})
        assert cfg.seed == seed
        for f in fields(ExperimentConfig):
            if f.default is not MISSING:
                assert getattr(cfg, f.name) == f.default, f.name


def test_config_precedence_chain():
    # subject profile beats the dataclass default
    cfg = config_from_dict({"seed": 1, "subject": "subject_13"})
    assert cfg.human.unit_torque == 10.0
    # caller keys beat the subject profile
    cfg = config_from_dict(
        {"seed": 1, "subject": "subject_13", "human.unit_torque": 3.0}
    )
    assert cfg.human.unit_torque == 3.0
    # caller keys beat the shipped schedule
    cfg = config_from_dict({"seed": 1, "train.n_updates": 2, "eval.episodes": 1})
    assert cfg.n_updates == 2 and cfg.eval_episodes == 1
    cfg = config_from_dict({"seed": 1, "hyper.gamma": 0.5, "plant.inertia": 0.2})
    assert cfg.hyper.gamma == 0.5 and cfg.plant.inertia == 0.2


# Keys that break one cross-field rule together (with the other key at its
# default, each alone breaks it too); the error names both keys.
BAD_PAIRS = [
    {"plant.angle_min": 0.6, "plant.angle_max": -0.6},
    {"hyper.batch_size": 4096, "hyper.buffer_size": 32},
    {"episode.n_decisions": 10**6 + 1, "episode.decision_interval": 10**6},
    # each alone overflows the reference phase 2*pi*t/period
    {"reference.period": 1e-320, "plant.dt": 1e308},
]
# A flat reference scales angle observations by the upper stop, so a stop at
# or below zero is rejected only with a zero amplitude (each alone is fine).
FLAT_REFERENCE_STOPS = [0.0, -0.0, -0.1]

# (key, value) pairs each config_from_dict must reject with an error naming the key
BAD_VALUES = [
    ("hyper.batch_size", "abc"),
    ("plant.dt", "abc"),
    ("episode.window", 12.7),
    ("plant.inertia", float("nan")),
    ("human.noise_std", float("inf")),
    ("plant.dt", 10**400),  # an int beyond the float range
    ("setting", True),
    ("setting", "true"),
    ("hyper.gamma", "off"),
    ("eval.episodes", 0),
    ("train.n_updates", -1),
    ("seed", -1),
    # one out-of-bound value per BOUNDS key
    ("setting", 9),
    ("plant.inertia", 0.0),
    ("plant.damping", -1.0),
    ("plant.torque_limit", -1),
    ("plant.dt", 0),
    ("plant.omega_max", 0),
    ("reference.amplitude", -0.1),
    ("reference.period", 0),
    ("human.unit_torque", 0),
    ("human.reaction_delay", -1),
    ("human.reaction_delay", harness.MAX_SUBSTEPS + 1),
    ("human.lag_time_constant", -0.1),
    ("human.noise_std", -0.5),
    ("hyper.gamma", 1.0),
    ("hyper.clip", 0.0),
    ("hyper.clip", 1.0),
    ("hyper.batch_size", 0),
    ("hyper.learning_rate", -1),
    ("hyper.update_epochs", 0),
    ("episode.window", 2),
    ("episode.decision_interval", 0),
    ("episode.n_decisions", 0),
    ("output_dir", ""),
    ("subject", "x"),
] + [(key, value) for bad in BAD_PAIRS for key, value in bad.items()]


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"seed": 1, "plant.bogus": 2.0})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"seed": 1, "typo_key": 1})
    with pytest.raises(ValueError, match="unknown subject"):
        config_from_dict({"seed": 1, "subject": "subject_99"})
    for key, value in BAD_VALUES:
        with pytest.raises(ValueError, match="'%s'" % key):
            config_from_dict({"seed": 1, key: value})
    # one message format for every bound
    with pytest.raises(ValueError, match=r"^config key 'plant.inertia' must be > 0, got 0\.0$"):
        config_from_dict({"seed": 1, "plant.inertia": 0.0})
    # integral floats are accepted for int keys
    assert config_from_dict({"seed": 1, "episode.window": 12.0}).window == 12


def test_every_bound_has_a_bad_value():
    assert set(harness.BOUNDS) <= {key for key, _ in BAD_VALUES}
    for key, _, _, other in harness.PAIRED_BOUNDS:
        assert {key, other} in [set(bad) for bad in BAD_PAIRS] + [
            {"plant.angle_max", "reference.amplitude"}
        ]


def test_cross_field_errors_name_both_keys():
    for bad in BAD_PAIRS:
        for cfg in [bad] + [{key: value} for key, value in bad.items()]:
            with pytest.raises(ValueError) as info:
                config_from_dict({"seed": 1, **cfg})
            assert all("'%s'" % key in str(info.value) for key in bad), info.value


def test_sizes_up_to_the_substep_cap_are_accepted():
    cap = harness.MAX_SUBSTEPS
    cfg = config_from_dict({"seed": 1, "episode.n_decisions": cap // 10})
    assert cfg.n_decisions * cfg.decision_interval == cap
    assert config_from_dict({"seed": 1, "human.reaction_delay": cap}).human.reaction_delay == cap


def test_flat_reference_needs_a_positive_upper_stop():
    flat = {"seed": 1, "reference.amplitude": 0.0, "plant.angle_min": -1.0}
    for stop in FLAT_REFERENCE_STOPS:
        with pytest.raises(ValueError) as info:
            config_from_dict({**flat, "plant.angle_max": stop})
        message = str(info.value)
        assert "'plant.angle_max'" in message and "'reference.amplitude'" in message
        # the same stop under a moving reference, and a flat one under a positive stop
        config_from_dict({"seed": 1, "plant.angle_min": -1.0, "plant.angle_max": stop})
    config_from_dict({**flat, "plant.angle_max": 0.1})


# Config text: lines of known or arbitrary keys with numeric, boolean, odd or
# free-text values, or any text at all.
_section_keys = [
    "%s.%s" % (f.name, g.name)
    for f in fields(ExperimentConfig)
    if is_dataclass(f.type)
    for g in fields(f.type)
]
_config_keys = st.one_of(
    st.sampled_from(sorted(CONFIG_KEYS) + _section_keys), st.text(max_size=12)
)
_config_values = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(("true", "off", "-0", "nan", "-inf", "1e400", "1" + "0" * 400)),
    st.text(max_size=8),
)
_config_texts = st.one_of(
    st.text(),
    st.lists(
        st.builds("{} = {}".format, _config_keys, _config_values), max_size=6
    ).map("\n".join),
)


@settings(max_examples=500, deadline=None)
@given(_config_texts)
def test_config_text_raises_only_value_error(text):
    try:
        cfg = parse_config_text(text)
        cfg.setdefault("seed", 0)
        config_from_dict(cfg)
    except ValueError:
        pass


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(sorted(CONFIG_KEYS) + _section_keys),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
              _config_values),
)
def test_any_single_key_is_accepted_or_named(key, value):
    try:
        config_from_dict({"seed": 0, key: value})
    except ValueError as exc:
        assert "'%s'" % key in str(exc)


def _typed(key, value, kind):
    """(type, repr) of ``coerce``'s result, or ValueError if it rejects the value."""
    try:
        got = coerce(key, value, kind)
    except ValueError:
        return ValueError
    return type(got), repr(got)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_config_values, _config_texts))
def test_coerce_text_matches_reference_typing(text):
    # typing the text by its field gives what typing the old guess gave
    for kind in (int, float):
        want = _typed("k", oracles.reference_parse_scalar(text), kind)
        assert _typed("k", text.strip(), kind) == want, kind


def test_make_env_wiring():
    cfg = config_from_dict({"seed": 1, "setting": 6})
    env = make_env(cfg)
    assert env.setting.setting_id == 6
    assert env.setting.weights.kappa == 8.0


def trace_from_csv(text: str, decision_interval: int) -> EpisodeTrace:
    lines = text.strip().splitlines()
    if lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError("unexpected trace CSV header: %r" % lines[0])
    cols = [[] for _ in TRACE_COLUMNS]
    for ln in lines[1:]:
        for slot, val in zip(cols, ln.split(",")):
            slot.append(val)
    as_f = lambda c: np.array([float(v) for v in c])
    as_i = lambda c: np.array([int(v) for v in c], dtype=np.int64)
    return EpisodeTrace(
        time=as_f(cols[0]), reference=as_f(cols[1]), position=as_f(cols[2]),
        omega=as_f(cols[3]), tau_machine=as_f(cols[4]), tau_human=as_f(cols[5]),
        digit=as_i(cols[6]), machine_action=as_i(cols[7]), reward=as_f(cols[8]),
        decision_interval=decision_interval,
    )


def trace_to_csv_rows(trace: EpisodeTrace) -> str:
    """The per-row renderer ``trace_to_csv`` must equal byte for byte."""
    lines = [",".join(TRACE_COLUMNS)]
    for i in range(len(trace)):
        lines.append(
            ",".join(
                (
                    repr(float(trace.time[i])),
                    repr(float(trace.reference[i])),
                    repr(float(trace.position[i])),
                    repr(float(trace.omega[i])),
                    repr(float(trace.tau_machine[i])),
                    repr(float(trace.tau_human[i])),
                    str(int(trace.digit[i])),
                    str(int(trace.machine_action[i])),
                    repr(float(trace.reward[i])),
                )
            )
        )
    return "\n".join(lines) + "\n"


def hand_trace():
    n = 5
    return EpisodeTrace(
        time=np.arange(1, n + 1) * 0.01,
        reference=np.ones(n),
        position=np.array([2.0, 1.0, 2.0, 1.0, 2.0]),
        omega=np.zeros(n),
        tau_machine=np.zeros(n),
        tau_human=np.zeros(n),
        digit=np.array([0, 1, 0, 1, 0], dtype=np.int64),
        machine_action=np.zeros(n, dtype=np.int64),
        reward=np.array([0.0, 0.0, 0.25, -0.5, 1.0]),
        decision_interval=1,
    )


def test_mse_metrics_hand_values():
    report = mse_metrics(hand_trace(), unit_torque=5.0)
    # tracking: errors (1,0,1,0,1) -> mean of squares 0.6
    assert report.tracking_error_mse == pytest.approx(0.6, rel=1e-15)
    # action: torques (0,5,0,5,0), mean 2 -> (4+9+4+9+4)/5 = 6
    assert report.human_action_mse == pytest.approx(6.0, rel=1e-15)
    assert report.value == pytest.approx(0.75, rel=1e-15)


def test_mse_metrics_constant_digit_scores_zero():
    trace = hand_trace()
    trace.digit[:] = 2
    assert mse_metrics(trace, unit_torque=50.0).human_action_mse == 0.0


def test_trace_csv_round_trip_is_exact():
    env = make_test_env(n_decisions=8)
    res = run_episode(
        env, ConstantPolicy(3), ConstantPolicy(1), np.random.default_rng(2)
    )
    text = trace_to_csv(res.trace, {})
    back = trace_from_csv(text, env.decision_interval)
    for field in (
        "time", "reference", "position", "omega",
        "tau_machine", "tau_human", "digit", "machine_action", "reward",
    ):
        assert np.array_equal(getattr(back, field), getattr(res.trace, field)), field
    a = mse_metrics(res.trace, env.human.unit_torque)
    b = mse_metrics(back, env.human.unit_torque)
    assert a == b


def test_trace_from_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        trace_from_csv("a,b,c\n1,2,3\n", 10)


def test_trace_csv_equals_row_oracle_on_episodes():
    shared = {}
    for setting_id, seed in ((2, 0), (5, 1), (8, 2)):
        env = make_test_env(setting_id)
        rng = np.random.default_rng(seed)
        human = SamplingPolicy(init_params(rng, 5, 5))
        machine = SamplingPolicy(init_params(rng, 6, 2))
        trace = run_episode(env, human, machine, rng).trace
        expected = trace_to_csv_rows(trace)
        assert trace_to_csv(trace, {}) == expected
        assert trace_to_csv(trace, shared) == expected
    # every trace of the shipped env shares one time and one reference column
    assert len(shared) == 2


def special_trace():
    """Float columns holding values whose repr is easy to get wrong."""
    values = [-0.0, 1e-05, 1e16, 5e-324, float("inf"), float("nan"), 0.0, -1e-310]
    n = len(values)
    col = np.array(values)
    return EpisodeTrace(
        time=col.copy(), reference=col[::-1].copy(), position=col.copy(),
        omega=-col, tau_machine=col[::-1].copy(), tau_human=col.copy(),
        digit=np.arange(-3, n - 3, dtype=np.int64),
        machine_action=np.arange(n, dtype=np.int64) % 2,
        reward=col.copy(), decision_interval=1,
    )


def test_trace_csv_equals_row_oracle_on_special_values():
    trace = special_trace()
    expected = trace_to_csv_rows(trace)
    assert "-0.0," in expected and "5e-324" in expected and "nan" in expected
    assert trace_to_csv(trace, {}) == expected
    shared = {}
    assert trace_to_csv(trace, shared) == expected
    assert trace_to_csv(trace, shared) == expected  # served from ``shared``


def test_export_shares_columns_by_bytes_not_values(tmp_path):
    # two traces whose time columns differ only in the sign of one zero:
    # equal as values, different as text
    a = special_trace()
    b = special_trace()
    a.time[:] = np.arange(len(a)) * 0.01
    b.time[:] = a.time
    b.time[0] = -0.0
    assert np.array_equal(a.time, b.time)
    report = mse_metrics(hand_trace(), unit_torque=1.0)
    shared = {}  # one dict across both settings, as in a sweep
    hashes = export_traces(2, [a, b], tmp_path, shared)
    hashes.update(export_traces(6, [b, a], tmp_path, shared))
    export_results({2: report, 6: report}, hashes, tmp_path, {})
    for name, trace in (
        ("trace_setting2_ep0.csv", a), ("trace_setting2_ep1.csv", b),
        ("trace_setting6_ep0.csv", b), ("trace_setting6_ep1.csv", a),
    ):
        assert (tmp_path / name).read_text() == trace_to_csv_rows(trace), name


def test_write_utf8_replaces_the_file_whole(tmp_path):
    path = tmp_path / "new" / "dir" / "out.csv"
    assert write_utf8(path, "r\u00e9glage\n") == "r\u00e9glage\n".encode("utf-8")
    assert path.read_bytes() == b"r\xc3\xa9glage\n"
    assert write_utf8(str(path), "b\n") == b"b\n" and path.read_bytes() == b"b\n"
    assert os.listdir(path.parent) == ["out.csv"]


def test_write_utf8_keeps_the_old_bytes_when_the_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    path.write_bytes(b"old\n")

    def failing_replace(src, dst):
        assert os.path.exists(src) and src.endswith(".tmp")  # the new bytes were written
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError) as err:
        write_utf8(path, "new\n")
    assert err.value.errno == errno.EIO and err.value.filename == str(path)
    assert str(path) in str(err.value)
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_write_utf8_removes_its_temporary_file_on_any_failure(tmp_path, monkeypatch):
    # a failure that is not an OSError passes through unchanged
    def interrupted(src, dst):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_utf8(tmp_path / "a.csv", "x\n")
    assert os.listdir(tmp_path) == []
    # a real failure: a directory already holds the name
    (tmp_path / "d.csv").mkdir()
    with pytest.raises(IsADirectoryError) as err:
        write_utf8(tmp_path / "d.csv", "x\n")
    assert err.value.filename == str(tmp_path / "d.csv")
    assert os.listdir(tmp_path) == ["d.csv"] and os.listdir(tmp_path / "d.csv") == []


def test_eval_seeds_deterministic_and_distinct():
    a = eval_seeds(7, 6)
    b = eval_seeds(7, 6)
    assert a == b
    assert len(set(a)) == 6
    assert eval_seeds(8, 6) != a


def test_evaluate_agents_mean_matches_traces():
    env = make_test_env(n_decisions=20)
    rng = np.random.default_rng(0)
    h = init_params(rng, 5, 5)
    m = init_params(rng, 6, 2)
    mean, traces = evaluate_agents(h, m, env, n_episodes=4, base_seed=11)
    assert len(traces) == 4
    per = [mse_metrics(t, env.human.unit_torque) for t in traces]
    assert mean.value == pytest.approx(np.mean([r.value for r in per]), rel=1e-12)
    assert mean.tracking_error_mse == pytest.approx(
        np.mean([r.tracking_error_mse for r in per]), rel=1e-12
    )
    # the evaluation seeds depend only on the base seed
    mean2, _ = evaluate_agents(h, m, env, 4, 11)
    assert mean2 == mean


def test_export_results_stable_and_hashed(tmp_path):
    env = make_test_env(n_decisions=6)
    res = run_episode(
        env, ConstantPolicy(0), ConstantPolicy(0), np.random.default_rng(5)
    )
    report = mse_metrics(res.trace, env.human.unit_torque)
    reports = {2: report, 6: report}
    traces = {2: [res.trace], 6: [res.trace]}
    info = {"settings": [2, 6], "seed": 7}

    def export(out):
        shared, hashes = {}, {}
        for sid in sorted(traces):
            hashes.update(export_traces(sid, traces[sid], out, shared))
        return export_results(reports, hashes, out, info)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    hashes_a = export(out_a)
    hashes_b = export(out_b)
    assert hashes_a == hashes_b
    for name, digest in hashes_a.items():
        data_a = (out_a / name).read_bytes()
        assert hashlib.sha256(data_a).hexdigest() == digest
        assert data_a == (out_b / name).read_bytes()

    table = (out_a / "value_table.csv").read_text().splitlines()
    assert table[0] == "setting,value,human_action_mse,tracking_error_mse"
    assert len(table) == 3 and table[1].startswith("2,") and table[2].startswith("6,")

    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["files"] == hashes_a
    assert manifest["run"]["seed"] == 7


def light_config(seed=3):
    return config_from_dict(
        {
            "seed": seed,
            "train.n_updates": 2,
            "eval.episodes": 2,
            "hyper.buffer_size": 120,
            "hyper.batch_size": 60,
        }
    )


def test_sweep_deterministic_and_exports(tmp_path):
    cfg = light_config()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rows_a = sweep([2, 6], cfg, out_dir=out_a)
    rows_b = sweep([2, 6], cfg, out_dir=out_b)
    assert set(rows_a) == {2, 6}
    for sid in (2, 6):
        assert rows_a[sid] == rows_b[sid]
        assert (out_a / ("setting%d.ckpt" % sid)).exists()
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_sweep_seed_changes_results(tmp_path):
    rows_a = sweep([2], light_config(seed=3), tmp_path / "a")
    rows_b = sweep([2], light_config(seed=4), tmp_path / "b")
    assert rows_a[2] != rows_b[2]


def test_sweep_holds_one_setting_at_a_time(tmp_path, monkeypatch):
    # nothing a setting's training and evaluation returned outlives it; only
    # its MetricsReport does
    real_train_setting = harness.train_setting
    refs = []

    def train_setting(cfg, *args):
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == [], cfg.setting_id
        result, mean, traces = real_train_setting(cfg, *args)
        refs.extend(weakref.ref(obj) for obj in [result, *traces])
        return result, mean, traces

    monkeypatch.setattr(harness, "train_setting", train_setting)
    cfg = light_config()
    reports = sweep([2, 6, 3], cfg, out_dir=tmp_path)
    assert len(refs) == 3 * (1 + cfg.eval_episodes)
    assert all(isinstance(r, MetricsReport) for r in reports.values())
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def eval_only_config(episodes):
    return config_from_dict(
        {"seed": 5, "train.n_updates": 0, "eval.episodes": episodes, "episode.n_decisions": 12}
    )


def test_sweep_stopped_part_way_leaves_no_manifest(tmp_path, monkeypatch):
    cfg = eval_only_config(2)
    sweep([2, 6], cfg, out_dir=tmp_path / "full")
    real_train_setting = harness.train_setting

    def train_setting(cfg, *args):
        if cfg.setting_id == 6:
            raise RuntimeError("stopped at setting 6")
        return real_train_setting(cfg, *args)

    monkeypatch.setattr(harness, "train_setting", train_setting)
    out = tmp_path / "part"
    with pytest.raises(RuntimeError, match="stopped at setting 6"):
        sweep([2, 6], cfg, out_dir=out)
    # the first setting's files are complete, and there is no manifest
    names = ["setting2.ckpt", "trace_setting2_ep0.csv", "trace_setting2_ep1.csv"]
    assert sorted(os.listdir(out)) == names
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_sweep_manifest_hashes_every_exported_csv(tmp_path):
    # eleven episodes: two-digit episode numbers sort between ep1 and ep2
    cfg = eval_only_config(11)
    sweep([2, 6], cfg, out_dir=tmp_path)
    on_disk = set(os.listdir(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    csvs = {name for name in on_disk if name.endswith(".csv")}
    assert len(csvs) == 2 * 11 + 1 and "trace_setting6_ep10.csv" in csvs
    assert set(manifest["files"]) == csvs
    assert on_disk == csvs | {"manifest.json", "setting2.ckpt", "setting6.ckpt"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert manifest["run"]["eval_episodes"] == 11
