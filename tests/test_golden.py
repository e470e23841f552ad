"""The shipped bytes, pinned: a change to any output file fails Tier-1.

``tests/golden/shipped_bytes.json`` holds the sha256 of every file that

    pedalrl sweep --settings 1..8 --seed 7 --set train.n_updates=2

writes (trace CSVs, value table, manifest, checkpoints), and of the
``setting5.ckpt`` of a ``pedalrl train`` whose buffer does not fill a whole
number of episodes, so the critic values its last rows in a short block.
It also records the environment that produced them. A change that means to
alter the output regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pedalrl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "shipped_bytes.json"
COMMANDS = {
    "sweep": ["sweep", "--settings", "1..8", "--seed", "7", "--set", "train.n_updates=2"],
    "train": [
        "train", "--setting", "5", "--seed", "11", "--set", "train.n_updates=2",
        "--set", "hyper.buffer_size=6001", "--set", "eval.episodes=1",
    ],
}
PINNED = {"sweep": None, "train": ("setting5.ckpt",)}  # None: every file written


def environment() -> dict:
    """What the pinned bytes may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        numba_present = True
    except ImportError:
        numba_present = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "numba_present": numba_present,
    }


def digests(root: Path) -> dict:
    """Run each pinned command in its own directory under ``root``.

    Returns {command: {file name: sha256}}.
    """
    out = {}
    for name, argv in COMMANDS.items():
        run_dir = root / name
        assert main(argv + ["--out", str(run_dir)]) == 0, name
        files = PINNED[name] or sorted(p.name for p in run_dir.iterdir())
        out[name] = {f: hashlib.sha256((run_dir / f).read_bytes()).hexdigest() for f in files}
    return out


def test_shipped_bytes_match_the_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    capsys.readouterr()  # the commands' own reports
    differ = [
        "%s: %s" % (name, f)
        for name in COMMANDS
        for f in sorted(set(golden["files"][name]) | set(got[name]))
        if golden["files"][name].get(f) != got[name].get(f)
    ]
    if differ:
        now = environment()
        side_by_side = "\n".join(
            "  %-14s recorded %-28s now %s" % (key, golden["environment"].get(key), now[key])
            for key in now
        )
        raise AssertionError(
            "%d file(s) differ from %s:\n  %s\nenvironment:\n%s"
            % (len(differ), GOLDEN.name, "\n  ".join(differ), side_by_side)
        )


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        files = digests(Path(tmp))
    record = {
        "what": "sha256 of the files the pinned commands write; see tests/test_golden.py",
        "regenerate": "PYTHONPATH=src python tests/test_golden.py",
        "commands": {name: "pedalrl " + " ".join(argv) for name, argv in COMMANDS.items()},
        "environment": environment(),
        "files": files,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %s (%d files)" % (GOLDEN, sum(map(len, files.values()))), file=sys.stderr)


if __name__ == "__main__":
    regenerate()
