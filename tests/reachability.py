"""Which ``src/pedalrl`` statements do the shipped paths reach?

Drives the CLI at small sizes under ``sys.settrace`` and prints each
statement of ``src/pedalrl`` that none of the runs reached, skipping
``raise`` statements:

- ``train`` on a buffer of 540 rows, so ``ppo.critic_values`` values them in
  more than one block, with a ``--config`` file holding a float value and
  an integral float for an int key;
- ``eval`` of that checkpoint;
- ``sweep`` over a range of settings, and over a list with a reaction delay
  longer than a decision;
- ``bench``, through ``python -m pedalrl`` and ``python -m pedalrl.cli``
  (run in this process with ``runpy``);
- one episode with a ``RemotePolicy`` machine agent against a greedy and
  against a stochastic ``PolicyServer`` of the trained checkpoint.

A statement counts as reached when a line of its own (for a compound
statement, its header and decorators) runs; docstrings run no code and are
left out. pytest does not collect this file; run it by hand:

    PYTHONPATH=src python tests/reachability.py

``unreached_functions`` gives the same check at function granularity: a
function or method counts as reached when any line of its body after the
docstring runs. tests/test_reachability.py runs it in a fresh process, so
that the imports run under the tracer.
"""

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pedalrl"


def is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def statement_lines(path: Path) -> dict:
    """{statement's first line: the lines whose running reaches it}, raise statements left out."""
    lines = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        if is_docstring(node):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines[node.lineno] = range(first, max(first, last) + 1)
    return lines


def function_bodies(path: Path) -> dict:
    """{``module.qualified.name``: its body's lines} of each function and method in ``path``.

    The body's lines run from its first statement after the docstring to its
    end, those of the functions nested in it included.
    """
    bodies = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if is_docstring(child.body[0]) else child.body
                bodies[prefix + child.name] = range(body[0].lineno, child.end_lineno + 1)
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return bodies


def unreached_functions() -> list:
    """``module.qualified.name`` of each function none of the runs entered, in file order."""
    hit = trace_runs()
    return [
        name
        for path in sorted(SRC.glob("*.py"))
        for name, body in function_bodies(path).items()
        if not any((path.name, at) in hit for at in body)
    ]


def trace_runs() -> set:
    """(file name, line) of every ``src/pedalrl`` line the runs below executed."""
    hit = set()
    ours = {}  # code file name -> its name in SRC, or None outside SRC

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = path.name if path.parent == SRC else None
        name = ours[filename]
        if name is None:
            return None
        if event == "line":
            hit.add((name, frame.f_lineno))
        return tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            run_shipped_paths(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def run_shipped_paths(tmp: Path):
    # imported under the tracer, so module-level statements count
    import runpy
    import warnings

    import numpy as np

    from pedalrl.bridge import PolicyServer, RemotePolicy, actors_from_checkpoint, parse_endpoint
    from pedalrl.cli import main
    from pedalrl.episode import GreedyPolicy, SamplingPolicy, run_episode
    from pedalrl.harness import config_from_dict, make_env

    def cli(*argv):
        if main(list(argv)) != 0:
            raise SystemExit("pedalrl %s failed" % " ".join(argv))

    config = tmp / "run.cfg"
    config.write_text("hyper.gamma = 0.98\ntrain.n_updates = 1.0  # typed by the key\n")
    small = ["--set", "eval.episodes=1", "--set", "hyper.batch_size=128"]
    cli("train", "--setting", "2", "--seed", "1", "--config", str(config),
        "--set", "hyper.buffer_size=512", "--out", str(tmp / "train"), *small)
    ckpt = str(tmp / "train" / "setting2.ckpt")
    cli("eval", "--checkpoint", ckpt, "--episodes", "1")
    for settings, extra in (("1..2", []), ("3,5", ["--set", "human.reaction_delay=12"])):
        cli("sweep", "--settings", settings, "--seed", "2", "--set", "train.n_updates=0",
            "--out", str(tmp / ("sweep" + settings)), *small, *extra)
    for module in ("pedalrl", "pedalrl.cli"):
        sys.argv = [module, "bench", "--blocks", "20"]
        with warnings.catch_warnings(), contextlib.suppress(SystemExit):
            warnings.simplefilter("ignore", RuntimeWarning)  # pedalrl.cli is imported
            runpy.run_module(module, run_name="__main__", alter_sys=True)

    env = make_env(config_from_dict({"seed": 1, "setting": 2}))
    actors = actors_from_checkpoint(ckpt)
    for stochastic, human in ((False, GreedyPolicy), (True, SamplingPolicy)):
        # as bridge-serve builds its server, which then blocks in serve_forever
        with PolicyServer(parse_endpoint("127.0.0.1:0"), actors, stochastic) as server:
            thread = threading.Thread(target=server.serve_forever, args=(0.02,))
            thread.start()
            try:
                with RemotePolicy(*server.server_address[:2], agent_id=1) as machine:
                    run_episode(env, human(actors[0]), machine, np.random.default_rng(7))
            finally:
                server.shutdown()
                thread.join()


def main():
    hit = trace_runs()
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, reach in sorted(statement_lines(path).items()):
            if not any((path.name, at) in hit for at in reach):
                print("%s:%d: %s" % (path.name, line, source[line - 1].strip()))
                missed += 1
    print("%d statements not reached" % missed, file=sys.stderr)


if __name__ == "__main__":
    main()
