"""Policy server process for the bridge workload.

    python3 perfbench/server.py CHECKPOINT [--trace]

Serves the checkpoint's actors with ``bridge.PolicyServer`` on an ephemeral
localhost port, prints the port, answers one connection until it ends, and
exits. With ``--trace`` it then prints a JSON line of its spans summary.
"""

import json
import sys

from checkout import use_checkout_source

use_checkout_source()

import layers  # noqa: E402
import tracing  # noqa: E402
from pedalrl import bridge  # noqa: E402

ACCEPT_TIMEOUT_S = 60


def main(argv):
    ckpt, traced = argv[0], "--trace" in argv[1:]
    tracer = tracing.Tracer(op=-1)
    if traced:
        layers.install_server(tracer)
    server = bridge.PolicyServer(("127.0.0.1", 0), bridge.actors_from_checkpoint(ckpt))
    server.timeout = ACCEPT_TIMEOUT_S
    with server:
        print(server.server_address[1], flush=True)
        server.handle_request()
    if traced:
        tracer.restore()
        print(json.dumps(layers.server_report(tracer)))


if __name__ == "__main__":
    main(sys.argv[1:])
