"""In-memory spans around pedalrl's layer entry points.

A span is ``(name, start, end, parent index, op id)``. ``Tracer.wrap``
replaces a function on the object its caller looks it up through (for
example ``episode.actor_forward``, not ``nets.actor_forward``), so the
program itself is unchanged; ``restore`` puts every original back. Spans
stay in a list until the run ends and ``write_csv`` saves them.

A span's self time is its duration minus the durations of its direct
children, so self times of all spans sum to the time covered by root spans.
"""

import csv
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, op=0):
        self.spans = []
        self.counts = Counter()
        self.op = op  # id of the op in progress; workloads advance it
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(tracer, args)`` and ``after(tracer, args)`` update counts or
        the op id at the same boundary.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
                if after is not None:
                    after(self, args)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent", "op"))
            out.writerows(self.spans)


def self_times(spans):
    """Self time of every span, in span order."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans, keep=lambda span: True):
    """{name: {"calls", "self_s", "durations"}} over the spans ``keep`` accepts."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        if not keep(span):
            continue
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(span[2] - span[1])
    return out


def busy_by_op(spans, names):
    """{op id: summed duration of the named spans of that op}."""
    busy = Counter()
    for name, t0, t1, _, op in spans:
        if name in names:
            busy[op] += t1 - t0
    return busy
