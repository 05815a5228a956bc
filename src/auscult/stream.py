"""Dual-thread streaming inference: a producer feeds a 60-minute ring buffer
in 10 ms units while a consumer decodes consecutive 10 s windows.

The ring buffer is single-producer/single-consumer. Reads use a snapshot
protocol: copy the span, then confirm the writer has not advanced far enough
to have touched it; a failed check means the copy may be torn, so the
consumer skips forward to the freshest complete window.

`replay_offline` computes the identical window schedule synchronously and is
the equivalence oracle for the threaded path. The ring rounds each unit to
float32 as it stores it and the replay rounds each window alike, so their
inference inputs match bit for bit without a float32 copy of the recording.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import load_wav
from .errors import InvalidInputError, NotReadyError, ProducerError, StaleWindowError
from .frontend import AudioSignal
from .fusion import ProbabilityVector
from .model import rene_forward

POLL_S = 0.0005
# a consumer waiting on a live producer whose cursor has not moved for this
# long gives up on it
STALL_S = 5.0


def _whole(count: float, what: str) -> int:
    """`count` as an int, refused unless it is a whole number of at least 1."""
    if round(count) < 1 or abs(count - round(count)) > 1e-9:
        raise InvalidInputError(f"{what} is {count:g}, not a whole number >= 1")
    return int(round(count))


def _unit_samples(sample_rate: int) -> int:
    """Samples in one frame unit, refused unless a whole number: the ring
    holds whole units of whole samples."""
    unit_ms = SessionConfig.frame_unit_ms
    return _whole(sample_rate * unit_ms / 1000.0,
                  f"samples per {unit_ms:g} ms unit at {sample_rate} Hz")


class RingBuffer:
    """Fixed-capacity circular store of float32 samples with an absolute,
    monotonically increasing write cursor. Raises InvalidInputError when a
    frame unit or the capacity is not a whole number of samples or units, or
    when the store cannot be allocated."""

    def __init__(self, sample_rate: int, buffer_min: float = 60.0):
        if sample_rate <= 0 or not 0.0 < buffer_min < np.inf:
            raise InvalidInputError("need sample_rate > 0 and a finite buffer_min > 0")
        unit_ms = SessionConfig.frame_unit_ms
        self.unit_samples = _unit_samples(sample_rate)
        self.capacity = self.unit_samples * _whole(
            buffer_min * 60.0 * 1000.0 / unit_ms, f"buffer_min in {unit_ms:g} ms units")
        try:
            self._data = np.zeros(self.capacity, dtype=np.float32)
        except MemoryError:
            raise InvalidInputError(
                f"cannot allocate a {buffer_min:g}-minute ring buffer "
                f"({self.capacity} samples)") from None
        self._cursor = 0

    @property
    def write_cursor(self) -> int:
        return self._cursor

    def push(self, unit) -> int:
        """Store one 10 ms unit as float32; returns the new cursor. Producer only."""
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
        # a span within one unit of the capacity could never pass the check
        if start < 0 or n < 1 or n > self.capacity - self.unit_samples:
            raise InvalidInputError("bad span")
        if self._cursor < start + n:
            raise NotReadyError(f"only {self._cursor} samples written")
        if self._cursor > self._stable_horizon(start):
            raise StaleWindowError(f"span starting at {start} was overwritten")
        out = self._copy_span(start, n)
        if self._cursor > self._stable_horizon(start):
            raise StaleWindowError(f"span starting at {start} overwritten mid-read")
        return out


@dataclass(frozen=True)
class SessionConfig:
    source: object  # WAV path or AudioSignal
    window_s: float = 10.0
    buffer_min: float = 60.0
    rate_factor: float = 1.0
    frame_unit_ms: ClassVar[float] = 10.0

    def __post_init__(self):
        for name in ("window_s", "buffer_min", "rate_factor"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be positive and finite")
        # below this rate two frame-unit periods outlast STALL_S, so the
        # stall guard could end a healthy recording
        min_rate = 2.0 * self.frame_unit_ms / 1000.0 / STALL_S
        if self.rate_factor < min_rate:
            raise InvalidInputError(f"rate_factor must be >= {min_rate:g}")
        # one unit of slack: a window the full buffer long could never pass
        # the snapshot stability check once the writer wraps
        if self.window_s + self.frame_unit_ms / 1000.0 > self.buffer_min * 60.0:
            raise InvalidInputError("window exceeds buffer length")
        for name, seconds in (("window_s", self.window_s),
                              ("buffer_min", self.buffer_min * 60.0)):
            _whole(seconds * 1000.0 / self.frame_unit_ms,
                   f"{name} in {self.frame_unit_ms:g} ms units")


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
    return load_wav(source)


def _decode_window(samples: np.ndarray, sample_rate: int, params, model_cfg,
                   labels) -> ProbabilityVector:
    signal = AudioSignal(samples=samples, sample_rate=sample_rate)
    output = rene_forward(signal, params, model_cfg)
    return ProbabilityVector(probs=output.probs, label_map=labels)


def _event_maker(cfg: SessionConfig, sr: int, window: int, params, model_cfg,
                 labels):
    """`make(m, data)`: window m (1-based) of `window` samples decoded and
    timed into its StreamEvent. Labels default to class_0, class_1, ..."""
    if labels is None:
        labels = tuple(f"class_{i}" for i in range(model_cfg.n_classes))

    def make(m: int, data: np.ndarray) -> StreamEvent:
        t_dec = time.perf_counter()
        probs = _decode_window(data, sr, params, model_cfg, labels)
        latency_ms = (time.perf_counter() - t_dec) * 1000.0
        return StreamEvent(timestamp=m * cfg.window_s,
                           window_span=((m - 1) * window, m * window),
                           probs=probs, latency_ms=latency_ms)

    return make


def _session_plan(cfg: SessionConfig, signal: AudioSignal):
    sr = signal.sample_rate
    unit = _unit_samples(sr)
    window = int(round(sr * cfg.window_s))
    n_units = len(signal) // unit
    total_windows = (n_units * unit) // window
    return sr, unit, window, n_units, total_windows


def run_session(cfg: SessionConfig, params, model_cfg, labels=None):
    """Threaded producer/consumer session over a simulated microphone.

    Returns (events, warnings). The producer paces 10 ms pushes at
    rate_factor x real time with drift-correcting deadlines; the consumer
    decodes each scheduled window as soon as it is complete, skipping ahead
    (with a warning) only when the buffer has already overwritten a window.
    Raises ProducerError if the producer dies before its last unit, or
    stops pushing for STALL_S while the consumer waits.
    """
    signal = _as_signal(cfg.source)
    sr, unit, window, n_units, total_windows = _session_plan(cfg, signal)
    make_event = _event_maker(cfg, sr, window, params, model_cfg, labels)
    ring = RingBuffer(sr, cfg.buffer_min)

    unit_wall_s = (cfg.frame_unit_ms / 1000.0) / cfg.rate_factor

    failure = []

    def produce():
        try:
            t0 = time.perf_counter()
            for k in range(n_units):
                delay = t0 + k * unit_wall_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                ring.push(signal.samples[k * unit:(k + 1) * unit])
        except Exception as exc:  # handed to the consumer, which re-raises it
            failure.append(exc)

    producer = threading.Thread(target=produce, name="recording", daemon=True)
    producer.start()

    events = []
    warnings = []
    m = 1
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
            elif now - seen_at > STALL_S:
                raise ProducerError(
                    f"recording stalled at sample {seen} of {n_units * unit}: "
                    f"no audio for {STALL_S:g} s"
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
        events.append(make_event(m, data))
        m += 1
    producer.join()
    return events, warnings


def replay_offline(cfg: SessionConfig, params, model_cfg, labels=None):
    """Synchronous oracle: same schedule, float32 rounding and inference."""
    signal = _as_signal(cfg.source)
    sr, _unit, window, _n_units, total_windows = _session_plan(cfg, signal)
    make_event = _event_maker(cfg, sr, window, params, model_cfg, labels)
    return [make_event(m, signal.samples[(m - 1) * window: m * window]
                       .astype(np.float32).astype(np.float64))
            for m in range(1, total_windows + 1)]


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
