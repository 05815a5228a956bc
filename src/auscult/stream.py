"""Dual-thread streaming inference: a producer feeds a 60-minute ring buffer
in 10 ms units while a consumer decodes consecutive 10 s windows.

The ring buffer is single-producer/single-consumer. Reads use a snapshot
protocol: copy the span, then confirm the writer has not advanced far enough
to have touched it; a failed check means the copy may be torn, so the reader
retries (freshest-window reads) or skips forward (scheduled reads).

`replay_offline` computes the identical window schedule synchronously and is
the equivalence oracle for the threaded path. Both paths quantize the source
to float32, mirroring the buffer storage, so their inference inputs match
bit for bit.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotReadyError, ProducerError, StaleWindowError
from .frontend import AudioSignal, FrontendConfig
from .fusion import ProbabilityVector
from .model import rene_forward

POLL_S = 0.0005
# a consumer waiting on a live producer whose cursor has not moved for this
# long (or two unit periods, at slow replay rates) gives up on it
STALL_S = 5.0


class RingBuffer:
    """Fixed-capacity circular store of float32 samples with an absolute,
    monotonically increasing write cursor."""

    def __init__(self, sample_rate: int, buffer_min: float = 60.0,
                 frame_unit_ms: float = 10.0):
        if sample_rate <= 0 or buffer_min <= 0 or frame_unit_ms <= 0:
            raise InvalidInputError("sample_rate, buffer_min, frame_unit_ms > 0")
        self.sample_rate = sample_rate
        self.capacity = int(round(buffer_min * 60.0 * sample_rate))
        self.unit_samples = int(round(sample_rate * frame_unit_ms / 1000.0))
        if self.unit_samples < 1 or self.capacity % self.unit_samples != 0:
            raise InvalidInputError("capacity must be a whole number of units")
        self._data = np.zeros(self.capacity, dtype=np.float32)
        self._cursor = 0

    @property
    def write_cursor(self) -> int:
        return self._cursor

    def push(self, unit) -> int:
        """Write one 10 ms unit; returns the advanced cursor. Producer only."""
        unit = np.asarray(unit)
        if unit.shape != (self.unit_samples,):
            raise InvalidInputError(
                f"unit must hold {self.unit_samples} samples, got {unit.shape}"
            )
        pos = self._cursor % self.capacity
        # capacity is a multiple of the unit, so a unit never straddles the end
        self._data[pos:pos + self.unit_samples] = unit
        self._cursor += self.unit_samples
        return self._cursor

    def _copy_span(self, start: int, n: int) -> np.ndarray:
        lo = start % self.capacity
        if lo + n <= self.capacity:
            return self._data[lo:lo + n].astype(np.float64)
        head = self._data[lo:].astype(np.float64)
        tail = self._data[: n - len(head)].astype(np.float64)
        return np.concatenate([head, tail])

    def _stable_horizon(self, start: int) -> int:
        # a write may be in flight one unit past the published cursor
        return start + self.capacity - self.unit_samples

    def read_at(self, start: int, n: int) -> np.ndarray:
        """Copy absolute span [start, start + n); raises NotReadyError before
        the data arrives and StaleWindowError once it is overwritten."""
        if start < 0 or n < 1 or n > self.capacity:
            raise InvalidInputError("bad span")
        if self._cursor < start + n:
            raise NotReadyError(f"only {self._cursor} samples written")
        if self._cursor > self._stable_horizon(start):
            raise StaleWindowError(f"span starting at {start} was overwritten")
        out = self._copy_span(start, n)
        if self._cursor > self._stable_horizon(start):
            raise StaleWindowError(f"span starting at {start} overwritten mid-read")
        return out

    def read_window(self, duration_s: float):
        """Most recent duration_s of audio, unwrapped into chronological
        order; returns (samples, start_cursor)."""
        n = int(round(duration_s * self.sample_rate))
        if n < 1 or n > self.capacity - self.unit_samples:
            raise InvalidInputError("duration must fit inside the buffer")
        while True:
            cursor = self._cursor
            if cursor < n:
                raise NotReadyError(f"need {n} samples, have {cursor}")
            start = cursor - n
            out = self._copy_span(start, n)
            if self._cursor <= self._stable_horizon(start):
                return out, start
            # writer lapped us mid-copy; take a fresher snapshot


@dataclass(frozen=True)
class SessionConfig:
    source: object  # WAV path or AudioSignal
    window_s: float = 10.0
    frame_unit_ms: float = 10.0
    buffer_min: float = 60.0
    rate_factor: float = 1.0

    def __post_init__(self):
        if self.window_s <= 0 or self.frame_unit_ms <= 0 or self.buffer_min <= 0:
            raise InvalidInputError("durations must be positive")
        # one unit of slack: a window the full buffer long could never pass
        # the snapshot stability check once the writer wraps
        if self.window_s + self.frame_unit_ms / 1000.0 > self.buffer_min * 60.0:
            raise InvalidInputError("window exceeds buffer length")
        units = self.window_s * 1000.0 / self.frame_unit_ms
        if abs(units - round(units)) > 1e-9:
            raise InvalidInputError("frame unit must divide the window")
        if self.rate_factor <= 0:
            raise InvalidInputError("rate_factor must be positive")


@dataclass(frozen=True)
class StreamEvent:
    timestamp: float
    window_span: tuple
    probs: ProbabilityVector
    latency_ms: float

    def __post_init__(self):
        start, end = self.window_span
        if not 0 <= start < end:
            raise InvalidInputError("bad window span")


@dataclass(frozen=True)
class OverrunWarning:
    timestamp: float
    skipped_from: int
    skipped_to: int


def _as_signal(source) -> AudioSignal:
    if isinstance(source, AudioSignal):
        return source
    from .data import load_wav

    return load_wav(source)


def _default_labels(n_classes: int):
    return tuple(f"class_{i}" for i in range(n_classes))


def _decode_window(samples: np.ndarray, sample_rate: int, params, model_cfg,
                   frontend_cfg, labels) -> ProbabilityVector:
    signal = AudioSignal(samples=samples, sample_rate=sample_rate)
    output = rene_forward(signal, params, model_cfg, frontend_config=frontend_cfg)
    return ProbabilityVector(probs=output.probs, label_map=labels)


def _session_plan(cfg: SessionConfig, signal: AudioSignal):
    sr = signal.sample_rate
    unit = int(round(sr * cfg.frame_unit_ms / 1000.0))
    window = int(round(sr * cfg.window_s))
    samples32 = signal.samples.astype(np.float32)
    n_units = len(samples32) // unit
    total_windows = (n_units * unit) // window
    return sr, unit, window, samples32, n_units, total_windows


def run_session(cfg: SessionConfig, params, model_cfg, frontend_cfg=None,
                labels=None):
    """Threaded producer/consumer session over a simulated microphone.

    Returns (events, warnings). The producer paces 10 ms pushes at
    rate_factor x real time with drift-correcting deadlines; the consumer
    decodes each scheduled window as soon as it is complete, skipping ahead
    (with a warning) only when the buffer has already overwritten a window.
    Raises ProducerError if the producer dies before its last unit, or
    stops pushing for STALL_S while the consumer waits.
    """
    if frontend_cfg is None:
        frontend_cfg = FrontendConfig()
    signal = _as_signal(cfg.source)
    sr, unit, window, samples32, n_units, total_windows = _session_plan(cfg, signal)
    if labels is None:
        labels = _default_labels(model_cfg.n_classes)
    ring = RingBuffer(sr, cfg.buffer_min, cfg.frame_unit_ms)

    unit_wall_s = (cfg.frame_unit_ms / 1000.0) / cfg.rate_factor

    failure = []

    def produce():
        try:
            t0 = time.perf_counter()
            for k in range(n_units):
                delay = t0 + k * unit_wall_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                ring.push(samples32[k * unit:(k + 1) * unit])
        except Exception as exc:  # handed to the consumer, which re-raises it
            failure.append(exc)

    producer = threading.Thread(target=produce, name="recording", daemon=True)
    producer.start()

    events = []
    warnings = []
    m = 1
    stall_s = max(STALL_S, 2.0 * unit_wall_s)
    while m <= total_windows:
        seen, seen_at = ring.write_cursor, time.perf_counter()
        while ring.write_cursor < m * window:
            # a dead producer's cursor is final, so test it once more
            if not producer.is_alive() and ring.write_cursor < m * window:
                raise ProducerError(
                    f"recording stopped at sample {ring.write_cursor} of "
                    f"{n_units * unit}"
                ) from (failure[0] if failure else None)
            now = time.perf_counter()
            if ring.write_cursor != seen:
                seen, seen_at = ring.write_cursor, now
            elif now - seen_at > stall_s:
                raise ProducerError(
                    f"recording stalled at sample {seen} of {n_units * unit}: "
                    f"no audio for {stall_s:g} s"
                )
            time.sleep(POLL_S)
        try:
            data = ring.read_at((m - 1) * window, window)
        except StaleWindowError:
            freshest = ring.write_cursor // window
            warnings.append(OverrunWarning(
                timestamp=ring.write_cursor / sr,
                skipped_from=m,
                skipped_to=freshest,
            ))
            m = max(freshest, m)
            continue
        t_dec = time.perf_counter()
        probs = _decode_window(data, sr, params, model_cfg, frontend_cfg, labels)
        latency_ms = (time.perf_counter() - t_dec) * 1000.0
        events.append(StreamEvent(
            timestamp=m * cfg.window_s,
            window_span=((m - 1) * window, m * window),
            probs=probs,
            latency_ms=latency_ms,
        ))
        m += 1
    producer.join()
    return events, warnings


def replay_offline(cfg: SessionConfig, params, model_cfg, frontend_cfg=None,
                   labels=None):
    """Synchronous oracle: same schedule and inference, no threads."""
    if frontend_cfg is None:
        frontend_cfg = FrontendConfig()
    signal = _as_signal(cfg.source)
    sr, unit, window, samples32, n_units, total_windows = _session_plan(cfg, signal)
    if labels is None:
        labels = _default_labels(model_cfg.n_classes)

    events = []
    for m in range(1, total_windows + 1):
        data = samples32[(m - 1) * window: m * window].astype(np.float64)
        t_dec = time.perf_counter()
        probs = _decode_window(data, sr, params, model_cfg, frontend_cfg, labels)
        latency_ms = (time.perf_counter() - t_dec) * 1000.0
        events.append(StreamEvent(
            timestamp=m * cfg.window_s,
            window_span=((m - 1) * window, m * window),
            probs=probs,
            latency_ms=latency_ms,
        ))
    return events


def write_events_jsonl(events, sample_rate: int, path) -> None:
    """One JSON object per event: t, window in seconds, named probs, latency."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            start, end = e.window_span
            fh.write(json.dumps({
                "t": e.timestamp,
                "window": [start / sample_rate, end / sample_rate],
                "probs": {
                    name: float(p)
                    for name, p in zip(e.probs.label_map, e.probs.probs)
                },
                "latency_ms": e.latency_ms,
            }) + "\n")
