"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, job): the layer it times, its
perf_counter interval, the index of the span that was open when it
started, and the job it belongs to.  Counters are (job, name, value)
triples recorded at the same call boundaries.  Nothing is written until
the run ends.  With tracing off every call is a no-op, so the untraced
run that gives the end-to-end metrics pays only a function call per
layer boundary.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# counters that combine by maximum within a round; all others are summed
MAX_COUNTERS = frozenset({"analysis.ring_exhaustive_peak_mb"})


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = []
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, value):
        if self.enabled:
            self.counts.append((self.job, name, value))

    def adopt(self, child, job):
        """Merge spans and counts recorded by a child process for one
        job; the child's root spans become children of the open span."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, start, end, cparent, _ in child["spans"]:
            self.spans.append([name, start, end,
                               parent if cparent is None else base + cparent,
                               job])
        for _, name, value in child["counts"]:
            self.counts.append((job, name, value))

    def export(self):
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.
    Children of one span never overlap, since every job is sequential."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[0], s[4], s[2] - s[1] - child[i]) for i, s in enumerate(spans)]


def layer_totals(tracer, job_ids):
    """Sum of self times and counters per layer over the given jobs."""
    job_ids = set(job_ids)
    out = {}
    for name, job, dt in self_times(tracer.spans):
        if job in job_ids:
            key = name + "_s"
            out[key] = out.get(key, 0.0) + dt
    for job, name, value in tracer.counts:
        if job in job_ids:
            if name in MAX_COUNTERS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def median_totals(per_round):
    """Median over rounds of each per-round total; a key missing from a
    round counts as zero there."""
    keys = set().union(*per_round) if per_round else set()
    return {k: statistics.median(r.get(k, 0) for r in per_round) for k in keys}
