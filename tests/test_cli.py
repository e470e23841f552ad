import errno
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pedalrl
from conftest import run_at_blas_threads
from pedalrl import cli, kernels
from pedalrl.cli import main, parse_settings
from pedalrl.config import load_config
from pedalrl.controllers import SETTING_RANGE, SETTINGS
from pedalrl.harness import config_from_dict
from pedalrl.ppo import load_checkpoint, make_agent, save_checkpoint


def test_parse_settings_forms():
    assert parse_settings("3") == [3]
    assert parse_settings("2,4,6") == [2, 4, 6]
    assert parse_settings("1..8") == [1, 2, 3, 4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        parse_settings(",")
    with pytest.raises(ValueError, match=r"--settings '2,4,2': repeated setting ids \[2\]"):
        parse_settings("2,4,2")


def test_setting_range_text_comes_from_the_table():
    # every message naming the valid setting ids writes the table's range
    assert SETTING_RANGE == "%d..%d" % (min(SETTINGS), max(SETTINGS)) == "1..8"
    expected = re.escape("(expected %s)" % SETTING_RANGE)
    for bad in (lambda: parse_settings("0..3"), lambda: parse_settings("2,9")):
        with pytest.raises(ValueError, match=expected):
            bad()
    rule = re.escape("'setting' must be in %s, got 9" % SETTING_RANGE)
    with pytest.raises(ValueError, match=rule):
        config_from_dict({"seed": 0, "setting": 9})


FAST = [
    "--set", "train.n_updates=1",
    "--set", "eval.episodes=1",
    "--set", "hyper.buffer_size=120",
    "--set", "hyper.batch_size=60",
]


def test_train_then_eval_round_trip(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(["train", "--setting", "3", "--seed", "5", "--out", out] + FAST)
    assert rc == 0
    shown = capsys.readouterr().out
    assert "setting 3" in shown and "seed 5" in shown
    ckpt = tmp_path / "setting3.ckpt"
    assert ckpt.exists()
    assert (tmp_path / "value_curve_setting3.csv").exists()
    # every file is written under a temporary name and renamed; none is left
    assert sorted(os.listdir(tmp_path)) == ["setting3.ckpt", "value_curve_setting3.csv"]
    meta = load_checkpoint(ckpt)["meta"]
    assert meta["setting"] == "3" and meta["seed"] == "5"

    rc = main(["eval", "--checkpoint", str(ckpt), "--episodes", "1"] + FAST)
    assert rc == 0
    assert "value" in capsys.readouterr().out


def test_sweep_writes_value_table(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["sweep", "--settings", "2", "--seed", "7", "--out", out] + FAST)
    assert rc == 0
    table = (tmp_path / "run" / "value_table.csv").read_text().splitlines()
    assert table[0] == "setting,value,human_action_mse,tracking_error_mse"
    assert len(table) == 2
    assert (tmp_path / "run" / "manifest.json").exists()


def test_bad_input_exits_2(tmp_path, capsys):
    assert main(["train", "--setting", "9", "--seed", "1"] + FAST) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "plant.dt=abc"]) == 2
    assert "'plant.dt'" in capsys.readouterr().err
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "=5"]) == 2
    assert capsys.readouterr().err == "error: override '=5' has an empty key\n"
    unknown = ["--set", "typo=1", "--set", "plant.bogus=1"]
    assert main(["train", "--setting", "2", "--seed", "1"] + unknown) == 2
    assert capsys.readouterr().err == (
        "error: config key 'plant.bogus' is unknown; config key 'typo' is unknown\n"
    )
    assert main(["train", "--setting", "2", "--seed", "-1"] + FAST) == 2
    assert "'seed'" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt")]) == 2
    capsys.readouterr()
    # the server announces itself only once it has loaded and bound
    serve = ["bridge-serve", "--endpoint", "127.0.0.1:0"]
    assert main(serve + ["--checkpoint", str(tmp_path / "missing.ckpt")]) == 2
    shown = capsys.readouterr()
    assert shown.out == "" and "missing.ckpt" in shown.err
    assert main(["train", "--setting", "2", "--seed", "1", "--out", str(tmp_path)] + FAST) == 0
    ckpt = str(tmp_path / "setting2.ckpt")
    for flags in (["--episodes", "0"], ["--set", "eval.episodes=0"]):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt] + flags) == 2
        assert "'eval.episodes'" in capsys.readouterr().err
    for key in ("episode.window=2", "episode.n_decisions=0", "episode.decision_interval=0"):
        assert main(["train", "--setting", "2", "--seed", "1", "--set", key]) == 2
        assert key.split("=")[0] in capsys.readouterr().err
    # bad settings fail before the sweep trains or checkpoints anything
    sweep_out = tmp_path / "sweep"
    for settings in ("1..9", "a..3", "2,2"):
        args = ["sweep", "--settings", settings, "--seed", "7", "--out", str(sweep_out)]
        assert main(args + FAST) == 2
        assert "--settings" in capsys.readouterr().err
    assert not sweep_out.exists()
    for flags in (["--blocks", "0"], ["--blocks", "-1"], ["--interval", "-3"],
                  ["--interval", "0", "--blocks", "5"]):
        assert main(["bench"] + flags) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and "error: %s must be >= 1" % flags[0] in shown.err
    # the size is bounded before the noise and trace buffers are allocated
    assert main(["bench", "--blocks", "20000", "--interval", "1000000"]) == 2
    shown = capsys.readouterr()
    assert shown.out == "" and shown.err == (
        "error: --blocks * --interval must be <= 10000000 substeps, got 20000 * 1000000\n"
    )


def test_bad_values_exit_2_naming_their_key(tmp_path, capsys):
    train = ["train", "--setting", "2", "--seed", "1"]
    # the last two would allocate terabytes if they passed the config
    for pair in ("hyper.learning_rate=-1", "hyper.update_epochs=0",
                 "plant.torque_limit=-1", "plant.omega_max=0",
                 "episode.n_decisions=1000000000000", "human.reaction_delay=1000000000000"):
        assert main(train + ["--set", pair]) == 2
        shown = capsys.readouterr()
        assert "error: config key '%s' must be" % pair.split("=")[0] in shown.err
        assert "Traceback" not in shown.err
    assert main(["train", "--setting", "9", "--seed", "1"]) == 2
    assert "error: config key 'setting' must be in 1..8, got 9" in capsys.readouterr().err
    rng = np.random.default_rng(3)
    ckpt = str(tmp_path / "agents.ckpt")
    save_checkpoint(ckpt, make_agent(rng, 5, 5, 4), make_agent(rng, 6, 2, 4), meta={"seed": 1})
    assert main(["eval", "--checkpoint", ckpt, "--setting", "0"]) == 2
    assert "error: config key 'setting' must be in 1..8, got 0" in capsys.readouterr().err


def test_flat_reference_with_no_upper_stop_exits_2(capsys):
    # obs_divisors would divide every angle observation by the zero stop
    args = ["train", "--setting", "2", "--seed", "1", "--set", "reference.amplitude=0",
            "--set", "plant.angle_max=0", "--set", "train.n_updates=0",
            "--set", "eval.episodes=1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "'plant.angle_max'" in err and "'reference.amplitude'" in err
    assert "Traceback" not in err


def test_overflowing_reference_phase_exits_2_naming_both_keys(capsys):
    # math.sin would get an infinite phase 2*pi*t/period: a subnormal period
    # overflows the quotient, a huge dt the time itself
    config_from_dict({"seed": 1})  # the shipped period and dt pass
    args = ["train", "--setting", "2", "--seed", "1", "--set", "train.n_updates=0",
            "--set", "eval.episodes=1"]
    for pair in ("reference.period=1e-320", "plant.dt=1e308"):
        assert main(args + ["--set", pair]) == 2
        shown = capsys.readouterr()
        assert shown.err.startswith("error: config key 'reference.period' must be "), pair
        assert "config key 'plant.dt'" in shown.err and "Traceback" not in shown.err, pair


def test_failed_rollout_or_evaluation_names_where(tmp_path, capsys):
    # a dt this large makes every reward non-finite from the first window on
    fail = ["--set", "plant.dt=1e300", "--set", "eval.episodes=1", "--out", str(tmp_path)]
    row = "experience row 9: non-finite reward\n"
    for command, where in (
        (["train", "--setting", "2", "--set", "train.n_updates=1"],
         "PPO update 1 of 1, rollout episode 1: "),
        (["train", "--setting", "2", "--set", "train.n_updates=0"],
         "evaluation episode 1 of 1: "),
        (["sweep", "--settings", "1..3", "--set", "train.n_updates=1"],
         "setting 1: PPO update 1 of 1, rollout episode 1: "),
    ):
        assert main(command + ["--seed", "1"] + fail) == 2
        assert capsys.readouterr().err == "error: " + where + row, command


def test_memory_error_exits_2(monkeypatch, capsys):
    # a command that cannot allocate stops like any bad input; nothing is
    # allocated here, the command raises as numpy would
    def no_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_bench", no_memory)
    assert main(["bench"]) == 2
    shown = capsys.readouterr()
    assert shown.err == "error: out of memory\n" and "Traceback" not in shown.err


def test_string_keys_keep_their_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "output_dir=007"] + FAST) == 0
    assert (tmp_path / "007" / "setting2.ckpt").exists()
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "subject=1e3"]) == 2
    assert "unknown subject '1e3'" in capsys.readouterr().err


def test_empty_output_dir_exits_2_before_training(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in (["train", "--setting", "2"], ["sweep", "--settings", "2"]):
        for flags in (["--out", ""], ["--set", "output_dir="]):
            assert main(command + ["--seed", "1"] + flags + FAST) == 2
            shown = capsys.readouterr()
            assert "error: config key 'output_dir' must be non-empty" in shown.err
            assert shown.out == "" and os.listdir(tmp_path) == []


def test_out_wins_over_the_output_dir_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["train", "--setting", "2", "--seed", "1", "--out", "D", "--set", "output_dir=E"]
    assert main(args + FAST) == 0
    assert os.listdir(tmp_path) == ["D"]
    assert (tmp_path / "D" / "setting2.ckpt").exists()


def test_config_file_loses_to_set_pairs_and_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# a desk run\nseed = 3\nsetting = 4\nsubject = subject_13\noutput_dir = F\n"
        "train.n_updates = 0\neval.episodes = 1\nhyper.gamma = 0.5  # discount\n"
    )
    train = ["train", "--config", str(cfg_file), "--setting", "5", "--seed", "1.0"]
    sets = ["--set", "hyper.gamma=0.6", "--set", "hyper.gamma=0.7", "--set", "output_dir=E"]
    cfg = config_from_dict(cli._config_dict(cli.build_parser().parse_args(train + sets)))
    assert (cfg.setting_id, cfg.seed, cfg.subject, cfg.n_updates) == (5, 1, "subject_13", 0)
    assert cfg.hyper.gamma == 0.7 and cfg.output_dir == "E"
    assert main(train + sets + ["--out", "D"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["D", "run.cfg"]
    ckpt = tmp_path / "D" / "setting5.ckpt"
    assert load_checkpoint(ckpt)["meta"] == {"seed": "1", "setting": "5", "subject": "subject_13"}
    # eval: the checkpoint's meta fills only keys that the file, pairs and flags leave out
    evals = ["eval", "--checkpoint", str(ckpt), "--config", str(cfg_file)]
    for flags, episodes in (([], 1), (["--set", "eval.episodes=2"], 2),
                            (["--set", "eval.episodes=2", "--episodes", "3"], 3)):
        capsys.readouterr()
        assert main(evals + flags) == 0
        assert capsys.readouterr().out.startswith("episodes %d " % episodes)


def test_config_file_errors_exit_2_naming_the_file(tmp_path, capsys):
    train = ["train", "--setting", "2", "--seed", "1", "--config"]
    missing = tmp_path / "missing.cfg"
    assert main(train + [str(missing)]) == 2
    shown = capsys.readouterr()
    assert shown.out == "" and str(missing) in shown.err and "Traceback" not in shown.err
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\nnot a pair  # comment\n")
    assert main(train + [str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s: line 2 'not a pair' is not key = value\n" % bad
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\ntrain.n_updates = 0\nseed = 2\n")
    assert main(train + [str(dup)]) == 2
    assert capsys.readouterr().err == "error: %s: line 3 repeats key 'seed' from line 1\n" % dup


def test_config_file_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys):
    # read as bytes and decoded as UTF-8, so UTF-8 text loads whatever the
    # locale, and a stray byte is reported like a bad checkpoint byte
    good = tmp_path / "good.cfg"
    good.write_bytes("# r\u00e9glage\nseed = 1\nsetting = 2\n".encode("utf-8"))
    assert load_config(good) == {"seed": "1", "setting": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n\xff = 2\n")
    assert main(["train", "--setting", "2", "--seed", "1", "--config", str(bad)]) == 2
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err == "error: %s: line 2: not UTF-8 text\n" % bad


def test_config_flags_are_typed_by_their_key(tmp_path, capsys):
    # a flag's text is typed like a --set value: 1.0 is seed 1, abc no seed at all
    runs = {}
    for seed in ("1", "1.0"):
        out = tmp_path / seed
        assert main(["train", "--setting", "2", "--seed", seed, "--out", str(out)] + FAST) == 0
        runs[seed] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["1"] == runs["1.0"]
    assert main(["train", "--setting", "2", "--seed", "abc"]) == 2
    assert capsys.readouterr().err.endswith("error: config key 'seed': expected int, got 'abc'\n")
    assert main(["train", "--setting", "2.5", "--seed", "1"]) == 2
    assert "error: config key 'setting': expected int, got 2.5\n" in capsys.readouterr().err


def test_sweep_manifest_records_the_resolved_config(tmp_path):
    keys = {"human.noise_std": "0.9", "hyper.learning_rate": "0.5",
            "train.n_updates": "0", "eval.episodes": "1", "episode.n_decisions": "12"}
    sets = [arg for key, value in keys.items() for arg in ("--set", "%s=%s" % (key, value))]
    out = tmp_path / "run"
    assert main(["sweep", "--settings", "2,5", "--seed", "7", "--out", str(out)] + sets) == 0
    run = json.loads((out / "manifest.json").read_text())["run"]
    assert run["human"]["noise_std"] == 0.9 and run["hyper"]["learning_rate"] == 0.5
    want = asdict(config_from_dict({"seed": 7, **keys}))
    del want["output_dir"], want["setting_id"]
    assert run == {**want, "settings": [2, 5]}


def test_mismatched_checkpoint_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(3)
    human, machine = make_agent(rng, 5, 5, 4), make_agent(rng, 6, 2, 4)
    seven = make_agent(rng, 5, 7, 4)  # a human actor with 7 outputs
    for name, agents in (("seven.ckpt", (seven, machine)), ("swapped.ckpt", (machine, human))):
        path = str(tmp_path / name)
        save_checkpoint(path, *agents, meta={"seed": 1})
        for args in (["eval", "--episodes", "1"], ["bridge-serve", "--endpoint", "127.0.0.1:0"]):
            assert main(args + ["--checkpoint", path]) == 2
            shown = capsys.readouterr()
            assert shown.out == "" and "Traceback" not in shown.err
            assert "%s: section human.actor has " % path in shown.err


# Line 2 is "meta seed 1", lines 3-10 the human.actor section (4 is its mlp
# header, 5 its w1 row) and 34 the last line. Each case edits the lines and
# says what the error names after the path.
MALFORMED = {
    "cut_meta": (lambda ls: ls[:1] + ["meta seed"] + ls[2:], "line 2: bad meta line"),
    "short_w1": (
        lambda ls: ls[:4] + [ls[4][:20]] + ls[5:],
        "human.actor: line 5: w1 has 1 values, expected 320",
    ),
    # encoded with surrogateescape, "\udcff" is the byte 0xff
    "not_utf8": (lambda ls: ls[:4] + [ls[4] + "\udcff"] + ls[5:], "line 5: not UTF-8 text"),
    "cut_header": (
        lambda ls: ls[:3] + ["mlp 5 64"] + ls[4:], "human.actor: line 4: bad checkpoint header"
    ),
    "not_a_number": (
        lambda ls: ls[:4] + [ls[4].replace(" ", " x", 1)] + ls[5:],
        "human.actor: line 5: could not convert",
    ),
    "unknown_section": (
        lambda ls: ls + ["section bogus.net"] + ls[3:10], "line 35: unknown section 'bogus.net'"
    ),
    "repeated_section": (lambda ls: ls + ls[2:10], "line 35: repeated section 'human.actor'"),
    "repeated_array": (
        lambda ls: ls[:5] + ls[4:], "human.actor: line 6: repeated checkpoint array 'w1'"
    ),
    "blank_file": (lambda ls: [], "not a recognized checkpoint file"),
    "wrong_header": (
        lambda ls: ["pedalrl-checkpoint 2"] + ls[1:], "not a recognized checkpoint file"
    ),
    "stray_line": (
        lambda ls: ls[:2] + ["w1 1 2"] + ls[2:], "line 3: expected a meta or section line"
    ),
    # lines 27-34 are the machine.critic section
    "missing_section": (lambda ls: ls[:26], "missing sections: ['machine.critic']"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_names_file_and_line(tmp_path, capsys, case):
    edit, names = MALFORMED[case]
    rng = np.random.default_rng(3)
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 4), make_agent(rng, 6, 2, 4), meta={"seed": 1})
    lines = edit(path.read_text().splitlines())
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match="^" + re.escape("%s: %s" % (path, names))):
        load_checkpoint(path)
    for args in (["eval", "--episodes", "1"], ["bridge-serve", "--endpoint", "127.0.0.1:0"]):
        assert main(args + ["--checkpoint", str(path)]) == 2
        shown = capsys.readouterr()
        assert shown.out == "" and "Traceback" not in shown.err
        assert shown.err.startswith("error: %s: %s" % (path, names))


@pytest.mark.parametrize("learning_rate", ["1e3", "1e2"])
def test_divergence_exits_2_naming_the_failed_step(tmp_path, learning_rate):
    # in a fresh process, so that stderr shows what a user sees: 1e3 overflows
    # a loss, 1e2 a gradient
    src = str(Path(pedalrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = [
        sys.executable, "-m", "pedalrl.cli", "train", "--setting", "2", "--seed", "1",
        "--set", "hyper.learning_rate=" + learning_rate, "--set", "train.n_updates=6",
        "--set", "hyper.buffer_size=120", "--set", "hyper.batch_size=60",
        "--out", str(tmp_path),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(
        r"error: PPO update \d of 6 diverged: agent (human|machine), "
        r"epoch \d of 4, minibatch \d of 2: non-finite \S.*\n",
        proc.stderr,
    ), proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_failed_rerun_leaves_no_torn_file(tmp_path):
    # a rerun over an earlier run's directory that may not write its first CSV
    # whole fails naming that file, and leaves every file the manifest lists intact
    src = str(Path(pedalrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "D"
    args = [sys.executable, "-m", "pedalrl", "sweep", "--settings", "2",
            "--set", "train.n_updates=0", "--set", "eval.episodes=1", "--out", str(out)]
    first = subprocess.run(args + ["--seed", "7"], capture_output=True, text=True, env=env,
                           timeout=300)
    assert first.returncode == 0, first.stderr
    csv = out / "trace_setting2_ep0.csv"
    before = csv.read_bytes()
    limit = 40960  # bytes per file in the child; too few for the CSV
    assert len(before) > limit
    proc = subprocess.run(
        args + ["--seed", "8"], capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    efbig = "[Errno %d] %s" % (errno.EFBIG, os.strerror(errno.EFBIG))
    assert proc.stderr == "error: %s: %r\n" % (efbig, str(csv))
    assert csv.read_bytes() == before
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert sorted(os.listdir(out)) == sorted([*manifest["files"], "manifest.json", "setting2.ckpt"])


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a 10000-row buffer is valued in blocks: one product over all of its rows
    # can give other bits at two BLAS threads than at one
    args = ["sweep", "--settings", "2", "--seed", "7", "--set", "train.n_updates=2",
            "--set", "episode.n_decisions=61", "--set", "hyper.buffer_size=10000",
            "--set", "eval.episodes=2"]
    cli_main = "import sys; from pedalrl.cli import main; sys.exit(main(sys.argv[1:]))"
    files = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_at_blas_threads(threads, cli_main, *args, "--out", out)
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert "setting2.ckpt" in files[1]
    assert files[1] == files[2]


def test_huge_settings_range_fails_before_allocating(tmp_path, capsys):
    # the range's bounds are checked before its list is built
    out = tmp_path / "sweep"
    args = ["sweep", "--settings", "1..1000000000000", "--seed", "7", "--out", str(out)]
    assert main(args + FAST) == 2
    err = capsys.readouterr().err
    assert "--settings" in err and "9..1000000000000" in err
    assert not out.exists()
    with pytest.raises(ValueError, match=r"unknown setting ids 0, 9\.\.100 "):
        parse_settings("0..100")
    assert parse_settings("3..5") == [3, 4, 5]


def test_bench_smoke(capsys):
    rc = main(["bench", "--blocks", "50", "--interval", "10"])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "python backend" in shown
    # without --interval a block is the shipped decision interval
    assert main(["bench", "--blocks", "5"]) == 0
    interval = config_from_dict({"seed": 0}).decision_interval
    assert "(blocks=5, interval=%d)" % interval in capsys.readouterr().out


@pytest.mark.parametrize("slot", ["none", "sim", "queue"])
def test_bench_compares_final_state_across_backends(monkeypatch, capsys, slot):
    # a stand-in compiled backend whose last block leaves the positions alone
    # but moves one value of the final state or delay line must be caught
    def fake_compiled(sim, queue, digit, m_idx, constants, bank, noise, out, start, n_sub):
        kernels.run_substeps_python(
            sim, queue, digit, m_idx, constants, bank, noise, out, start, n_sub
        )
        if start + n_sub == len(out[0]):
            if slot == "sim":
                sim[kernels.SIM_H_PREV_ERR] += 1.0
            elif slot == "queue":
                queue[0] += 1

    monkeypatch.setattr(kernels, "NUMBA_ENABLED", True)
    monkeypatch.setattr(kernels, "run_substeps", fake_compiled)
    rc = main(["bench", "--blocks", "20"])
    shown = capsys.readouterr().out
    assert rc == (0 if slot == "none" else 1)
    assert "backends bit-identical: %s" % (slot == "none") in shown
