"""Host speed: a fixed reference loop, timed next to every measured op.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 1.8x within seconds to minutes, with no steal time the guest can see and
no performance counters. Ten runs of the same code then spread by 0.1 to 0.5
of their median. So every run times ``reference()``, a fixed mix of the two
kinds of work pedalrl does, before the first op and after each op, and
reports each op at reference speed: its wall time times ``REFERENCE_S`` over
the mean of the two reference times around it, or a rate divided by that
scale. The reference is a pure-Python float recurrence with a method call
and attribute updates per step, reading a table larger than a core's own caches
(like the kernel and episode loops), plus small numpy matrix-vector
products (like the actor forward). Of the references tried, it tracked the
drift of all three workloads best. It uses none of pedalrl, so a change to
pedalrl moves the reported figures in full; the raw wall-clock figures are
reported next to them.
"""

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.1  # figures are reported for a host that runs reference() in this time
SIM_STEPS = 105_000
NP_STEPS = 4_500
TABLE_LEN = 200_000
STRIDE = 7919  # prime: consecutive steps read far-apart table entries
_table = []  # built on first use, so that importing this module stays cheap
_W = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
_X = np.random.default_rng(1).standard_normal(64)


class _State:
    __slots__ = ("a", "b", "c")

    def __init__(self):
        self.a, self.b, self.c = 0.1, 0.2, 0.3

    def step(self, u):
        self.a += 0.01 * (u - self.a * self.b)
        self.b = math.tanh(self.b + 1e-3 * self.c)
        return self.a


def reference():
    """Wall time of one fixed run of pure-Python and small-numpy work."""
    if not _table:
        _table.extend(i * 1e-3 for i in range(TABLE_LEN))
    t0 = perf_counter()
    state, table, acc = _State(), _table, 0.0
    for i in range(SIM_STEPS):
        acc += state.step(table[i * STRIDE % TABLE_LEN])
    x = _X
    for _ in range(NP_STEPS):
        x = np.tanh(_W @ x)
    return perf_counter() - t0


class HostClock:
    """Reference times taken between ops, and the scale of each op."""

    def __init__(self):
        self.times = [reference()]

    def mark(self):
        """Time the reference after an op; return the op's scale.

        An op's wall time times its scale, or its rate divided by it, is its
        value on a host that runs ``reference()`` in ``REFERENCE_S``.
        """
        self.times.append(reference())
        return REFERENCE_S * 2.0 / (self.times[-2] + self.times[-1])

    @property
    def marked_s(self):
        """Time spent in the reference runs after ops."""
        return sum(self.times[1:])

    @property
    def reference_ms_p50(self):
        return float(np.median(self.times)) * 1e3
