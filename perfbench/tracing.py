"""Spans and per-call statistics for the benchmark's calls into oqsident.

Every public call the benchmark makes goes through `Recorder.call`.  A plain
recorder only notes which call raised.  A traced one also keeps a span per
call (name, start, end, parent span, instance id) and the call count, busy
time and raise count per name.  A memory recorder instead measures each
call's tracemalloc peak; tracemalloc slows small-array code several times
over, so it runs in its own untimed pass.  Spans stay in memory until
`write` dumps them once, at the end of the run.
"""

import json
import time
import tracemalloc
from contextlib import contextmanager


class Recorder:
    def __init__(self, traced=False, memory=False):
        self.traced = traced
        self.memory = memory
        self.spans = []  # (span_id, name, start, end, parent_id, instance)
        self.stats = {}  # name -> [calls, busy_s, raised]
        self.peaks = {}  # name -> largest tracemalloc peak in bytes
        self.raised_in = None  # name of the call that raised last
        self._parent = None
        self._tag = None
        self._next_id = 0

    @contextmanager
    def root(self, name, tag):
        """Span that parents every call made inside it; yields a dict that
        holds the span's "start", "end" and "elapsed" once the block exits."""
        self._next_id += 1
        self._parent, self._tag, self.raised_in = self._next_id, tag, None
        timing = {}
        if self.memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing.update(start=start, end=end, elapsed=end - start)
            if self.memory:
                tracemalloc.stop()
            if self.traced:
                self.spans.append((self._parent, name, start, end, None, tag))
            self._parent = self._tag = None

    def call(self, name, fn, *args, **kwargs):
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised_in = name
            if self.traced:
                self.stats.setdefault(name, [0, 0.0, 0])[2] += 1
            raise
        finally:
            end = time.perf_counter()
            if self.memory:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks.get(name, 0), peak)
            if self.traced:
                self._next_id += 1
                self.spans.append((self._next_id, name, start, end, self._parent, self._tag))
                st = self.stats.setdefault(name, [0, 0.0, 0])
                st[0] += 1
                st[1] += end - start

    def write(self, path, extra):
        keys = ("id", "name", "start", "end", "parent", "instance")
        doc = dict(extra, spans=[dict(zip(keys, s)) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
