"""What every workload shares: the run context, checks, and per-layer
metric helpers."""

from __future__ import annotations

import contextlib
import math
import resource
import time

import numpy as np


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: its arguments, timings, checks and results."""

    def __init__(self, root, seed, seconds, tracer, t_start):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self._t_start = t_start
        self._generating_s = 0.0
        self.setup_s = None
        self.peak_rss_mb = None
        self.checks = []
        self.layer = {}
        self.details = {}
        self.stats_setup = {}
        self.phase_stats = {}
        self.op_ms = []
        self.attempted = 0
        self.failed = 0
        self.units = 0

    @contextlib.contextmanager
    def generating(self):
        """Time spent making the benchmark's own inputs, which is not the
        program's set-up and is taken out of setup_s."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._generating_s += time.perf_counter() - t0

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self._t_start - self._generating_s
        if self.tracer is not None:
            self.stats_setup = self.tracer.snapshot()

    def measured_done(self) -> None:
        self.peak_rss_mb = peak_rss_mib()
        if self.tracer is not None:
            self.phase_stats = delta(self.tracer.snapshot(), self.stats_setup)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def finite_simplex(p, tol=1e-9) -> bool:
    p = np.asarray(p, dtype=np.float64)
    return bool(np.all(np.isfinite(p)) and p.min() >= 0.0
                and abs(p.sum() - 1.0) <= tol)


def leaves(tree):
    """The arrays of a nested parameter dict."""
    for v in tree.values():
        if isinstance(v, dict):
            yield from leaves(v)
        else:
            yield v


def delta(after: dict, before: dict) -> dict:
    out = {}
    for name, (calls, total, own) in after.items():
        c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
        if calls - c0:
            out[name] = (calls - c0, total - t0, own - s0)
    return out


def self_ms(stats: dict, name: str, scale: float = 1000.0) -> float:
    """Mean self time per call; 0.0 when the workload made no call."""
    calls, _total, own = stats.get(name, (0, 0.0, 0.0))
    return own / calls * scale if calls else 0.0


def total_ms(stats: dict, name: str) -> float:
    """Mean inclusive time per call; 0.0 when the workload made no call."""
    calls, total, _own = stats.get(name, (0, 0.0, 0.0))
    return total / calls * 1000.0 if calls else 0.0


def calls_per(stats: dict, name: str, units: int) -> float:
    calls = stats.get(name, (0, 0.0, 0.0))[0]
    return calls / units if units else 0.0


def overhead_pct(traced, untraced) -> float:
    if not traced or not untraced:
        return math.nan
    return (median(traced) / median(untraced) - 1.0) * 100.0
