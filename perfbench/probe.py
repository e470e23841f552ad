"""Set-up probe: one fresh process that sets a workload up, then exits.

    python3 perfbench/probe.py WORKLOAD SEED [--trace]

Prints ``ready`` once the workload's first op could run; the parent times
spawn to that line. With ``--trace`` it then prints a JSON line with the
self time of each set-up span.
"""

import json
import sys

from checkout import use_checkout_source

use_checkout_source()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), "--trace" in argv[2:]
    tracer = tracing.Tracer()
    if traced:
        layers.install_setup(tracer)
    workloads.SETUPS[workload](seed)
    print("ready", flush=True)
    if traced:
        tracer.restore()
        print(json.dumps(layers.setup_report(tracer)))


if __name__ == "__main__":
    main(sys.argv[1:])
