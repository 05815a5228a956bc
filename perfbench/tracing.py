"""Spans recorded from outside the program by wrapping module attributes.

A wrapped attribute is replaced by a function that times each call and
hands it on. Calls nest, per thread, so every span knows how much of its
interval its wrapped callees covered; that gives self time. Spans stay in
memory as per-name totals and are read out once the workload ends.

An attribute that no longer exists is recorded as missing, never as an
error: the metrics built on it are reported as not measured.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self._requested = set()
        self._targets = []      # (owner, attr, span name, original)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.on_return = {}     # span name -> callback(result, args, t0, t1)

    def add(self, owner, attr: str, name: str) -> None:
        self._requested.add(name)
        original = getattr(owner, attr, None)
        if callable(original):
            self._targets.append((owner, attr, name, original))

    @property
    def missing(self) -> set:
        """Span names none of whose attributes exist any more."""
        return self._requested - {name for _, _, name, _ in self._targets}

    def _wrap(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            if not hasattr(local, "stack"):
                local.stack, local.active = [], set()
            if name in local.active:
                # a recursive call belongs to the outermost span
                return original(*args, **kwargs)
            stack = local.stack
            local.active.add(name)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                local.active.discard(name)
                child = stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    st = tracer.stats[name]
                    st.calls += 1
                    st.total_s += elapsed
                    st.self_s += elapsed - child
            callback = tracer.on_return.get(name)
            if callback is not None:
                callback(result, args, t0, t1)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for owner, attr, name, original in self._targets:
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, _name, original in self._targets:
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: (s.calls, s.total_s, s.self_s)
                    for name, s in self.stats.items()}
