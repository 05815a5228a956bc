"""Ring buffer and streaming session tests.

Torn reads are detected with counter-pattern audio: any window that is not a
contiguous arithmetic sequence was torn. Counter values stay below 2^24 so
float32 storage is exact.
"""

import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import auscult.stream as stream_mod
from auscult.errors import (
    InvalidInputError,
    NotReadyError,
    ProducerError,
    StaleWindowError,
)
from auscult.frontend import AudioSignal
from auscult.fusion import ProbabilityVector
from auscult.model import init_rene, preset_config
from auscult.stream import (
    OverrunWarning,
    RingBuffer,
    SessionConfig,
    StreamEvent,
    replay_offline,
    run_session,
    write_events_jsonl,
)

SR = 1600  # scaled-down rate keeps ring tests small; unit = 16 samples


def counter_units(n_units, unit=16):
    data = np.arange(n_units * unit, dtype=np.float32)
    return data.reshape(n_units, unit)


class TestRingBuffer:
    def test_default_capacity_at_16k(self):
        ring = RingBuffer(16000)
        assert ring.capacity == 57_600_000
        assert ring.unit_samples == 160
        assert ring.capacity % ring.unit_samples == 0

    def test_fractional_unit_rejected(self):
        # 16.5 samples a unit: rounding it to 16 would make 9.7 ms units
        with pytest.raises(InvalidInputError, match="1650 Hz"):
            RingBuffer(1650)

    def test_cursor_advances_by_unit(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        for k, unit in enumerate(counter_units(5), start=1):
            assert ring.push(unit) == k * 16
        assert ring.write_cursor == 80

    def test_wrong_unit_length_rejected(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        with pytest.raises(InvalidInputError):
            ring.push(np.zeros(15, dtype=np.float32))

    def test_wrap_overwrites_oldest(self):
        ring = RingBuffer(SR, buffer_min=0.1)  # 9600 samples = 600 units
        n_units = ring.capacity // ring.unit_samples + 1
        units = counter_units(n_units)
        for unit in units:
            ring.push(unit)
        assert ring.write_cursor == ring.capacity + ring.unit_samples
        with pytest.raises(StaleWindowError):
            ring.read_at(0, 16)
        # the unit after the overwritten one is conservatively untrusted too
        # (a write may be in flight one unit past the cursor); the next is safe
        with pytest.raises(StaleWindowError):
            ring.read_at(16, 16)
        np.testing.assert_array_equal(ring.read_at(32, 16), units[2])
        last = ring.read_at(ring.write_cursor - 16, 16)
        np.testing.assert_array_equal(last, units[-1])

    def test_read_at_unwraps_across_boundary(self):
        # push "61 minutes" of counter samples into a "60 minute" buffer
        ring = RingBuffer(SR, buffer_min=0.1)
        n_units = int(ring.capacity // ring.unit_samples * 61 / 60)
        for unit in counter_units(n_units):
            ring.push(unit)
        total = n_units * 16
        assert (total - SR) % ring.capacity > ring.capacity - SR  # wraps
        window = ring.read_at(total - SR, SR)
        np.testing.assert_array_equal(
            window, np.arange(total - SR, total, dtype=np.float64)
        )

    def test_read_before_ready(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        with pytest.raises(NotReadyError):
            ring.read_at(0, SR)
        ring.push(np.zeros(16, dtype=np.float32))
        with pytest.raises(NotReadyError):
            ring.read_at(0, 32)

    def test_read_exact_pushed_content(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        units = counter_units(100)
        for unit in units:
            ring.push(unit)
        np.testing.assert_array_equal(ring.read_at(0, SR), units.ravel())

    def test_oversized_read_rejected(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        with pytest.raises(InvalidInputError):
            ring.read_at(0, ring.capacity)

    def test_allocation_is_exactly_capacity(self):
        ring = RingBuffer(SR, buffer_min=0.1)
        assert ring._data.nbytes == ring.capacity * 4
        for unit in counter_units(700):
            ring.push(unit)
        assert ring._data.nbytes == ring.capacity * 4

    def test_push_during_copy_raises_stale(self, monkeypatch):
        ring = RingBuffer(SR, buffer_min=0.05)  # 4800 samples
        units = counter_units(ring.capacity // 16 + 10)
        for unit in units[:-1]:
            ring.push(unit)
        # the oldest second still readable: the next push overwrites its
        # first unit
        start = ring.write_cursor - ring.capacity + ring.unit_samples
        np.testing.assert_array_equal(ring.read_at(start, SR),
                                      np.arange(start, start + SR))
        copy_span = RingBuffer._copy_span

        def copy_then_push(self, start, n):
            out = copy_span(self, start, n)
            self.push(units[-1])
            return out

        monkeypatch.setattr(RingBuffer, "_copy_span", copy_then_push)
        with pytest.raises(StaleWindowError, match="mid-read"):
            ring.read_at(start, SR)

    def test_concurrent_reads_never_torn(self):
        # small buffer under flat-out producer pressure
        ring = RingBuffer(SR, buffer_min=0.05)  # 4800 samples
        n_units = 30_000
        units = counter_units(n_units)
        done = threading.Event()

        def produce():
            for unit in units:
                ring.push(unit)
            done.set()

        producer = threading.Thread(target=produce, daemon=True)
        reads = 0
        # hand the interpreter lock over often, so the two threads interleave
        # however long the producer's default 5 ms time slices run
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            producer.start()
            while not done.is_set() or reads == 0:
                # the oldest second still readable: the next push overwrites
                # its first unit, so a push during the copy tears it
                start = ring.write_cursor - ring.capacity + ring.unit_samples
                if start < 0:
                    continue
                try:
                    window = ring.read_at(start, SR)
                except StaleWindowError:
                    continue
                assert window[0] == start, "read the wrong span"
                assert np.all(np.diff(window) == 1.0), "torn read"
                reads += 1
            producer.join()
        finally:
            sys.setswitchinterval(switch_interval)
        assert reads > 20


class TestSessionConfig:
    def test_window_exceeding_buffer_rejected(self):
        with pytest.raises(InvalidInputError):
            SessionConfig(source=None, window_s=10.0, buffer_min=0.1)

    def test_unit_must_divide_window(self):
        # 1.005 s is 100.5 of the 10 ms units
        with pytest.raises(InvalidInputError):
            SessionConfig(source=None, window_s=1.005)
        # 1e-12 s is 1e-10 units, which rounds to a window of no samples
        with pytest.raises(InvalidInputError):
            SessionConfig(source=None, window_s=1e-12)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            SessionConfig(source=None, rate_factor=0.0)

    def test_rate_too_slow_for_the_stall_guard_rejected(self):
        # at 0.004 x real time a 10 ms unit arrives every 2.5 s, and two of
        # those periods fill STALL_S
        with pytest.raises(InvalidInputError, match="rate_factor"):
            SessionConfig(source=None, rate_factor=0.0039)
        SessionConfig(source=None, rate_factor=0.004)

    @pytest.mark.parametrize("field", ["window_s", "buffer_min", "rate_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            SessionConfig(source=None, **{field: value})

    def test_event_span_validated(self):
        probs = ProbabilityVector(np.array([1.0]), ("a",))
        with pytest.raises(InvalidInputError):
            StreamEvent(timestamp=1.0, window_span=(10, 10), probs=probs,
                        latency_ms=1.0)


def toy_setup(n_classes=4):
    cfg = preset_config("toy", n_classes=n_classes)
    params = init_rene(cfg, seed=0)
    return cfg, params


def counter_signal(seconds, sample_rate=16000):
    n = int(seconds * sample_rate)
    return AudioSignal(samples=np.arange(n, dtype=np.float64),
                       sample_rate=sample_rate)


class TestReplayOffline:
    def test_empty_source_zero_events(self):
        cfg, params = toy_setup()
        session = SessionConfig(source=counter_signal(3.0), rate_factor=500.0)
        assert replay_offline(session, params, cfg) == []

    def test_single_window(self):
        cfg, params = toy_setup()
        session = SessionConfig(source=counter_signal(10.0), rate_factor=500.0)
        events = replay_offline(session, params, cfg)
        assert len(events) == 1
        assert events[0].window_span == (0, 160000)
        assert events[0].timestamp == pytest.approx(10.0)
        assert events[0].probs.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_holds_no_float32_copy_of_the_recording(self):
        cfg, params = toy_setup()
        n = 300 * 16000
        signal = AudioSignal(np.random.default_rng(0).uniform(-0.5, 0.5, n), 16000)
        session = SessionConfig(source=signal)
        tracemalloc.start()
        try:
            events = replay_offline(session, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 30
        # a float32 copy of the recording alone would be n * 4 B = 18.3 MiB
        assert peak < 15 * 2**20

    def test_window_schedule(self):
        cfg, params = toy_setup()
        session = SessionConfig(source=counter_signal(35.0), rate_factor=500.0)
        events = replay_offline(session, params, cfg)
        assert [e.timestamp for e in events] == [10.0, 20.0, 30.0]
        assert [e.window_span for e in events] == [
            (0, 160000), (160000, 320000), (320000, 480000)
        ]


def noise_signal(seconds, sample_rate):
    rng = np.random.default_rng(7)
    return AudioSignal(rng.uniform(-0.5, 0.5, int(seconds * sample_rate)),
                       sample_rate)


def run_live(session, params, cfg):
    return run_session(session, params, cfg)[0]


class TestBothPathsTakeTheSameInputs:
    """The replay refuses what the live ring would, before any decoding."""

    @pytest.mark.parametrize("path", [run_live, replay_offline])
    def test_unit_of_no_whole_samples_rejected(self, path):
        # 10 ms at 11,025 Hz is 110.25 samples
        cfg, params = toy_setup()
        session = SessionConfig(source=noise_signal(21.0, 11025), rate_factor=400.0)
        with pytest.raises(InvalidInputError, match="11025 Hz"):
            path(session, params, cfg)

    @pytest.mark.parametrize("path", [run_live, replay_offline])
    def test_buffer_of_no_whole_units_rejected(self, path):
        # 1.23456 min is 7407.36 units of 10 ms
        cfg, params = toy_setup()
        with pytest.raises(InvalidInputError, match="buffer_min"):
            path(SessionConfig(source=noise_signal(21.0, 16000), rate_factor=400.0,
                               buffer_min=1.23456), params, cfg)

    def test_buffer_of_whole_units_runs_on_both(self):
        # 1.2345 min is 7407 units of 10 ms
        cfg, params = toy_setup()
        session = SessionConfig(source=noise_signal(21.0, 16000), rate_factor=400.0,
                                buffer_min=1.2345)
        live = run_live(session, params, cfg)
        oracle = replay_offline(session, params, cfg)
        assert len(live) == len(oracle) == 2
        for a, b in zip(live, oracle):
            np.testing.assert_array_equal(a.probs.probs, b.probs.probs)


class TestRunSession:
    def test_matches_replay(self):
        cfg, params = toy_setup()
        source = counter_signal(35.0)
        session = SessionConfig(source=source, rate_factor=400.0)
        events, warnings = run_session(session, params, cfg)
        oracle = replay_offline(session, params, cfg)
        assert warnings == []
        assert len(events) == len(oracle) == 3
        for live, off in zip(events, oracle):
            assert live.window_span == off.window_span
            assert live.timestamp == off.timestamp
            np.testing.assert_array_equal(live.probs.probs, off.probs.probs)

    def test_rate_factors_agree(self):
        cfg, params = toy_setup()
        source = counter_signal(15.0)
        fast = run_session(SessionConfig(source=source, rate_factor=800.0),
                           params, cfg)[0]
        slow = run_session(SessionConfig(source=source, rate_factor=200.0),
                           params, cfg)[0]
        assert [e.window_span for e in fast] == [e.window_span for e in slow]
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a.probs.probs, b.probs.probs)

    def test_overrun_skips_to_freshest(self, monkeypatch):
        labels = ("a", "b")

        def slow_decode(samples, sr, params, model_cfg, lab):
            time.sleep(0.05)
            return ProbabilityVector(np.array([0.5, 0.5]), lab)

        monkeypatch.setattr(stream_mod, "_decode_window", slow_decode)
        source = AudioSignal(samples=np.arange(60 * SR, dtype=np.float64),
                             sample_rate=SR)
        session = SessionConfig(source=source, window_s=1.0,
                                buffer_min=0.05, rate_factor=100.0)
        events, warnings = run_session(session, None, None, labels=labels)
        assert len(warnings) >= 1
        assert all(isinstance(w, OverrunWarning) for w in warnings)
        assert len(events) < 60
        spans = [e.window_span for e in events]
        assert all(end - start == SR and start % SR == 0 for start, end in spans)
        assert spans == sorted(spans)
        # the final scheduled window can never be overwritten
        assert spans[-1] == (59 * SR, 60 * SR)

    def test_producer_failure_is_raised(self, monkeypatch):
        labels = ("a", "b")
        pushes = []
        real_push = RingBuffer.push

        def failing_push(self, unit):
            if len(pushes) == 250:  # two and a half 1 s windows
                raise OSError("microphone unplugged")
            pushes.append(1)
            return real_push(self, unit)

        def fake_decode(samples, sr, params, model_cfg, lab):
            return ProbabilityVector(np.array([0.5, 0.5]), lab)

        monkeypatch.setattr(RingBuffer, "push", failing_push)
        monkeypatch.setattr(stream_mod, "_decode_window", fake_decode)
        source = AudioSignal(samples=np.arange(5 * SR, dtype=np.float64),
                             sample_rate=SR)
        session = SessionConfig(source=source, window_s=1.0,
                                buffer_min=0.05, rate_factor=100.0)
        outcome = []

        def consume():
            try:
                run_session(session, None, None, labels=labels)
            except Exception as exc:
                outcome.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert len(outcome) == 1
        assert isinstance(outcome[0], ProducerError)
        assert isinstance(outcome[0].__cause__, OSError)
        assert "sample 4000 of 8000" in str(outcome[0])

    def test_stalled_producer_is_raised(self, monkeypatch):
        labels = ("a", "b")
        pushes = []
        release = threading.Event()
        real_push = RingBuffer.push

        def blocking_push(self, unit):
            if len(pushes) == 250:  # a device read that never returns
                release.wait()
            pushes.append(1)
            return real_push(self, unit)

        def fake_decode(samples, sr, params, model_cfg, lab):
            return ProbabilityVector(np.array([0.5, 0.5]), lab)

        monkeypatch.setattr(RingBuffer, "push", blocking_push)
        monkeypatch.setattr(stream_mod, "_decode_window", fake_decode)
        monkeypatch.setattr(stream_mod, "STALL_S", 0.5)
        source = AudioSignal(samples=np.arange(5 * SR, dtype=np.float64),
                             sample_rate=SR)
        session = SessionConfig(source=source, window_s=1.0,
                                buffer_min=0.05, rate_factor=100.0)
        outcome = []

        def consume():
            try:
                run_session(session, None, None, labels=labels)
            except Exception as exc:
                outcome.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        try:
            consumer.start()
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
        finally:
            release.set()
        assert len(outcome) == 1
        assert isinstance(outcome[0], ProducerError)
        assert "sample 4000 of 8000" in str(outcome[0])


class TestJsonl:
    def test_schema(self, tmp_path):
        cfg, params = toy_setup(n_classes=3)
        session = SessionConfig(source=counter_signal(10.0), rate_factor=500.0)
        events = replay_offline(session, params, cfg,
                                labels=("normal", "crackle", "wheeze"))
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, 16000, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["t"] == 10.0
        assert doc["window"] == [0.0, 10.0]
        assert set(doc["probs"]) == {"normal", "crackle", "wheeze"}
        assert sum(doc["probs"].values()) == pytest.approx(1.0, abs=1e-9)
        assert doc["latency_ms"] > 0
