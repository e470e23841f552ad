"""pedalrl benchmark: three workloads, every metric by name and unit.

    python3 perfbench/run.py --workload {train,sweep_eval,bridge} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` measures untraced for S/2 seconds, then traced for S/2 seconds
in a fresh process, and reports the per-layer metrics plus the tracing
overhead on each end-to-end metric. The last line of stdout is the JSON
result; the lines before it give the environment, output checks, digests and
sample counts. The same record goes to ``.perfbench_out/result_<workload>.json``
and the traced run's spans to ``.perfbench_out/spans_<workload>.csv``.

The benchmark runs on one CPU, with one BLAS thread per process, and gives
every timed figure at reference host speed (``hostspeed.py``).
"""

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import subprocess
import sys

from checkout import OUT, ROOT, script, use_checkout_source

use_checkout_source()
# One BLAS thread per process, unless set otherwise: bridge runs a client and
# a server process on a 2-vCPU host, and pedalrl's matrices are small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from pedalrl import kernels  # noqa: E402

OPENBLAS_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads():
    """(thread count, None) of the loaded OpenBLAS, or (None, reason)."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query(), None
    return None, "no loaded OpenBLAS library exports a thread-count query"


def git_state():
    """(commit, dirty, None) of the checkout, or (None, None, reason)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(
            ("git",) + args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )

    try:
        head = git("rev-parse", "HEAD")
    except OSError as exc:
        return None, None, "git is not runnable: %s" % exc
    if head.returncode != 0:
        return None, None, "the checkout is not a git repository"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip() != ""
    return head.stdout.strip(), dirty, None


def environment():
    unavailable = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError) as exc:
        blas_name = None
        unavailable["blas"] = "numpy does not report its BLAS: %r" % exc
    threads, why = blas_threads()
    if why:
        unavailable["blas_threads"] = why
    commit, dirty, why = git_state()
    if why:
        unavailable["git"] = why
    numba_present = importlib.util.find_spec("numba") is not None
    if not kernels.NUMBA_ENABLED:
        unavailable["kernels.numba_backend"] = (
            "PEDALRL_DISABLE_NUMBA is set" if numba_present else "numba is not installed"
        ) + "; the pure-Python kernel is measured"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_present": numba_present,
        "numba_enabled": kernels.NUMBA_ENABLED,
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
        "unavailable": unavailable,
    }


def pin_to_one_cpu(env):
    """Run this process and every process it starts on one CPU.

    Left to the scheduler, the bridge client and server ran on one CPU or on
    two for a whole run, and throughput differed by 0.1 between the two;
    and an op that moves to another CPU is not timed on the CPU its
    host-speed reference ran on.
    """
    cpu = max(os.sched_getaffinity(0))  # CPU 0 takes most interrupts
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu


def as_dict(outcome):
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "info": outcome.info,
    }


def traced_child(args):
    """Measure with tracing in this process; print the outcome as JSON."""
    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    tracer.write_csv(os.path.join(OUT, "spans_%s.csv" % args.workload))
    print(json.dumps(as_dict(outcome)))


def traced(args):
    """Untraced half here, traced half in a fresh process; per-layer metrics."""
    half = args.seconds / 2.0
    base = as_dict(workloads.WORKLOADS[args.workload](args.seed, half, None))
    cmd = script("run.py") + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(half), "--trace", "1", "--traced-child",
    ]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    if child.returncode != 0:
        raise RuntimeError("traced run exited with code %d" % child.returncode)
    spans = json.loads(child.stdout.splitlines()[-1])
    metrics = dict(spans["layers"])
    for name, (value, _) in base["metrics"].items():
        traced_value = spans["metrics"][name][0]
        metrics["trace.overhead." + name] = ((traced_value - value) / value * 100.0, "%")
    attempted = base["attempted"] + spans["attempted"]
    failed = base["failed"] + spans["failed"]
    metrics["failed_ops_frac"] = (failed / attempted, "ratio")
    metrics["bridge.rtt_us_p99"] = (base["info"].get("rtt_us_p99", 0.0), "us")
    metrics["host.reference_ms"] = (base["info"]["reference_ms_p50"], "ms")
    for name, unit in (("setup_s", "s"), ("decisions_per_s", "1/s"), ("op_ms_p50", "ms")):
        metrics["raw." + name] = (base["info"]["raw_end_to_end"][name], unit)
    metrics["bridge.rtt_samples"] = (base["info"].get("frames", 0), "count")
    return {
        "correct": base["correct"] and spans["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": {"untraced": base["checks"], "traced": spans["checks"]},
        "digests": {"untraced": base["digests"], "traced": spans["digests"]},
        "info": {
            "untraced": base["info"],
            "traced": spans["info"],
            "untraced_end_to_end": base["metrics"],
            "traced_end_to_end": spans["metrics"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.traced_child:
        traced_child(args)
        return 0

    env = environment()
    pin_to_one_cpu(env)
    if args.trace:
        record = traced(args)
    else:
        record = as_dict(workloads.WORKLOADS[args.workload](args.seed, args.seconds, None))
        del record["layers"]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result_%s.json" % args.workload), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key in ("environment", "checks", "digests", "info"):
        print("%s: %s" % (key, json.dumps(record[key], sort_keys=True)))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
