import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pedalrl
from pedalrl.cli import main, parse_settings
from pedalrl.ppo import load_checkpoint, make_agent, save_checkpoint


def test_parse_settings_forms():
    assert parse_settings("3") == [3]
    assert parse_settings("2,4,6") == [2, 4, 6]
    assert parse_settings("1..8") == [1, 2, 3, 4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        parse_settings(",")
    with pytest.raises(ValueError, match=r"--settings '2,4,2': repeated setting ids \[2\]"):
        parse_settings("2,4,2")


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


def test_string_keys_keep_their_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "output_dir=007"] + FAST) == 0
    assert (tmp_path / "007" / "setting2.ckpt").exists()
    assert main(["train", "--setting", "2", "--seed", "1", "--set", "subject=1e3"]) == 2
    assert "unknown subject '1e3'" in capsys.readouterr().err


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
