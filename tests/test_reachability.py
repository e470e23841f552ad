from pathlib import Path

from conftest import run_at_blas_threads

# The functions and methods of src/pedalrl that no run of reachability.py
# enters, each with the reason it stays.
UNREACHED = {
    "bridge.ProtocolError.__init__": "error path: only a frame that breaks the protocol builds one",
    "cli.cmd_bridge_serve": "blocks in serve_forever; the runs build its server as it does",
    "nets.MLPParams.__reduce__": "copy.deepcopy, and pickling for worker processes",
    "ppo.ExperienceBuffer.__len__": "an error message, and perfbench's traced hook",
}


def test_every_function_is_reached_or_listed():
    # a fresh process, so that pedalrl's imports run under the tracer
    code = "import sys; sys.path.insert(0, %r); import reachability; " % str(Path(__file__).parent)
    code += "print(*reachability.unreached_functions(), sep='\\n')"
    unreached = set(run_at_blas_threads(1, code).decode().split())
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no shipped path"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but reached"
