"""stream_toy: the paper's real-time system. A trained toy model decodes a
live `run_session` over a synthetic WAV read with `load_wav`, while the
producer thread pushes 10 ms units at RATE_FACTOR x real time.

Open loop: the producer keeps its schedule whatever the decoder does.
run_session never returns if its producer thread dies; run.py's watchdog
then ends the run without a result.

Every figure of the main session, the p90 and drain included, comes from an
untraced session. A --trace 1 run then decodes the first TRACED_WINDOWS
windows again in a second, traced live session for the per-layer figures.
"""

from __future__ import annotations

import os
import time

import numpy as np

import inputs
import reference
from common import delta, finite_simplex, median, overhead_pct
from layers import run_stages, stage_metrics

# 40x real time puts one 10 s window every 250 ms. A live toy decode took
# 160-210 ms on a 2-core x86 VM, so the decoder is busy most of the time
# without a growing backlog, and the 100 windows a p90 needs fit in 25 s.
RATE_FACTOR = 40.0
MIN_WINDOWS = 100
SAMPLED = 4
TRACED_WINDOWS = 20
LABELS = ("tone", "noise")
PROB_TOL = 1e-6
FRONTEND_TOL = 1e-6


def run(r) -> None:
    from auscult import data, frontend, model, nn, stream

    n_windows = max(MIN_WINDOWS, round(r.seconds * RATE_FACTOR / inputs.WINDOW_S))
    wav = inputs.out_dir(r.root) / f"stream-{os.getpid()}.wav"
    with r.generating():
        planted = inputs.stream_recording(r.seed, n_windows, wav)
    try:
        signal = data.load_wav(wav)
    finally:
        wav.unlink()
    cfg = model.load_model_config(r.root / "perfbench" / "data" / "toy.cfg")
    params = nn.load_params(r.root / "perfbench" / "data" / "toy.params")
    session = stream.SessionConfig(source=signal, rate_factor=RATE_FACTOR)
    window = inputs.WINDOW_SAMPLES

    r.setup_done()
    if r.tracer is not None:
        r.tracer.uninstall()
    t0 = time.perf_counter()
    events, overruns = stream.run_session(session, params, cfg, labels=LABELS)
    wall = time.perf_counter() - t0
    if r.tracer is not None:
        traced_events, waits = traced_session(r, stream, signal, params, cfg)
    r.measured_done()

    unit = int(round(signal.sample_rate * session.frame_unit_ms / 1000.0))
    n_units = len(signal) // unit
    drain_ms = (wall - (n_units - 1) * (session.frame_unit_ms / 1000.0)
                / RATE_FACTOR) * 1000.0
    latencies = [e.latency_ms for e in events]
    r.op_ms = latencies
    r.attempted = n_windows
    r.failed = n_windows - len(events)
    r.units = len(events) if r.tracer is None else len(traced_events)

    # ---------------------------------------------------------------- checks
    r.check("one event per scheduled window", len(events) == n_windows,
            f"{len(events)} of {n_windows}")
    r.check("zero overruns", not overruns, f"{len(overruns)} overrun warnings")
    spans = [e.window_span for e in events]
    r.check("spans follow the 10 s schedule",
            spans == [(i * window, (i + 1) * window) for i in range(len(events))]
            and [e.timestamp for e in events]
            == [10.0 * (i + 1) for i in range(len(events))])
    r.check("every window's probabilities are finite and on the simplex",
            all(finite_simplex(e.probs.probs) for e in events))
    predicted = np.array([int(np.argmax(e.probs.probs)) for e in events])
    wrong = np.flatnonzero(predicted != planted[:len(events)])
    r.check("argmax equals the planted tone/noise label on every window",
            len(events) == n_windows and wrong.size == 0,
            f"wrong windows {wrong[:10].tolist()}")

    rng = np.random.default_rng([r.seed, 10])
    sampled = sorted(rng.choice(len(events), size=min(SAMPLED, len(events)),
                                replace=False).tolist())
    replay_ms, worst = [], 0.0
    for m in sampled:
        piece = signal.samples[m * window:(m + 1) * window]
        cfg_m = stream.SessionConfig(source=frontend.AudioSignal(piece, 16000))
        off = stream.replay_offline(cfg_m, params, cfg, labels=LABELS)[0]
        replay_ms.append(off.latency_ms)
        worst = max(worst, float(np.abs(off.probs.probs - events[m].probs.probs).max()))
    r.check(f"live probabilities equal replay_offline within {PROB_TOL:g} "
            f"on sampled windows {sampled}", worst <= PROB_TOL, f"max diff {worst:.3g}")

    piece = signal.samples[sampled[0] * window:(sampled[0] + 1) * window]
    ours = reference.log_mel(piece)
    theirs = frontend.log_mel_spectrogram(
        frontend.AudioSignal(piece, 16000), frontend.FrontendConfig()).frames
    diff = (float(np.abs(ours - theirs).max()) if ours.shape == theirs.shape
            else float("inf"))
    r.check("log-mel of one window equals an rfft reference front end",
            diff <= FRONTEND_TOL, f"max diff {diff:.3g}")

    r.details.update(windows=len(events), rate_factor=RATE_FACTOR)
    if r.tracer is None or not latencies:
        return

    # ------------------------------------------------- traced-run extras
    n = len(traced_events)
    diff = (max(float(np.abs(a.probs.probs - b.probs.probs).max())
                for a, b in zip(traced_events, events)) if n else float("inf"))
    r.check(f"the traced session's {n} windows equal the untraced ones "
            f"within {PROB_TOL:g}", n == TRACED_WINDOWS and diff <= PROB_TOL,
            f"max diff {diff:.3g}")
    r.tracer.install()
    before = r.tracer.snapshot()
    for m in sampled:
        piece = signal.samples[m * window:(m + 1) * window]
        spec = frontend.log_mel_spectrogram(frontend.AudioSignal(piece, 16000),
                                            frontend.FrontendConfig())
        run_stages(model, spec, params, cfg)
    r.layer.update(stage_metrics(delta(r.tracer.snapshot(), before)))
    r.layer.update({
        "stream.wait.ms": median(waits) if waits else 0.0,
        "stream.replay_decode_ms.p50": median(replay_ms),
        "stream.decode_ms.p90": float(np.percentile(latencies, 90)),
        "stream.drain_ms": drain_ms,
        "trace.overhead_pct": overhead_pct([e.latency_ms for e in traced_events],
                                           latencies[:n]),
    })


def traced_session(r, stream, signal, params, cfg):
    """The first TRACED_WINDOWS windows in a live session with every wrapper
    installed. Returns its events and, per window, the time from the push
    that completed the window to the decoder's read of it, in ms."""
    window = inputs.WINDOW_SAMPLES
    completed, waits = {}, []

    def on_push(cursor, _args, _t0, t1):
        if cursor % window == 0:
            completed[cursor // window] = t1

    def on_read(_out, args, t0, _t1):
        m = (args[1] + args[2]) // window
        if m in completed:
            waits.append((t0 - completed[m]) * 1000.0)

    head = type(signal)(signal.samples[:TRACED_WINDOWS * window], signal.sample_rate)
    session = stream.SessionConfig(source=head, rate_factor=RATE_FACTOR)
    r.tracer.on_return.update({"stream.push": on_push, "stream.read_at": on_read})
    r.tracer.install()
    try:
        events, _overruns = stream.run_session(session, params, cfg, labels=LABELS)
    finally:
        r.tracer.uninstall()
        r.tracer.on_return.clear()
    return events, waits

