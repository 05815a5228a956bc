"""decode_rene_s: the deployable-size model (rene_s, 34.2 M parameters)
decodes 10 s windows in a closed loop, one `replay_offline` call per window:
the next window is sent only once the previous result is back.

The parameter file is made from `init_rene(rene_s, 0)`, stored as float32
records, and read with `load_params` in every run's set-up. Its name carries
a hash of the sources that make and read it, so a tree that changes them
writes its own file instead of reading another tree's.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

import inputs
import reference
from common import delta, finite_simplex, leaves, overhead_pct
from layers import run_stages, stage_metrics

PARAMS_SEED = 0
REFERENCE_TOL = 1e-9


def params_file(root, model, nn):
    """perfbench/out/rene_s-<hash>.params, written atomically if absent. The
    hash covers model.py, nn.py, the rene_s config and the seed."""
    cfg = model.preset_config("rene_s")
    key = hashlib.sha256(f"{cfg!r} {PARAMS_SEED}".encode())
    for source in (model.__file__, nn.__file__):
        key.update(Path(source).read_bytes())
    path = inputs.out_dir(root) / f"rene_s-{key.hexdigest()[:16]}.params"
    if not path.exists():
        tree = model.init_rene(cfg, PARAMS_SEED)
        flat = {k: v.astype(np.float32) for k, v in nn.flatten_params(tree).items()}
        del tree
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        nn.save_params(tmp, flat)
        with open(tmp, "rb+") as fh:  # keep write-back out of the timed runs
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    return path


def run(r) -> None:
    from auscult import frontend, model, nn, stream

    cfg = model.preset_config("rene_s")
    with r.generating():
        path = params_file(r.root, model, nn)
    params = nn.load_params(path)

    r.setup_done()
    if r.tracer is not None:
        r.tracer.uninstall()  # traced windows alternate with untraced ones
    latencies, traced, untraced, probs = [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < r.seconds:
        source = frontend.AudioSignal(inputs.decode_window(r.seed, i), 16000)
        session = stream.SessionConfig(source=source)
        trace_this = r.tracer is not None and i % 2 == 1
        if trace_this:
            r.tracer.install()
        event = stream.replay_offline(session, params, cfg)[0]
        if trace_this:
            r.tracer.uninstall()
        latencies.append(event.latency_ms)
        if i > 0:  # the first window pays for warm-up; keep it out of the overhead
            (traced if trace_this else untraced).append(event.latency_ms)
        probs.append(event.probs.probs)
        i += 1
    r.measured_done()
    r.op_ms = latencies
    r.attempted = i
    r.failed = 0
    r.units = len(traced)

    # ---------------------------------------------------------------- checks
    r.check("every window's probabilities are finite and on the simplex",
            all(p.shape == (cfg.n_classes,) and finite_simplex(p) for p in probs))
    expected = model.estimate_parameter_count(cfg)
    loaded = sum(a.size for a in leaves(params))
    r.check("loaded parameter count equals estimate_parameter_count",
            loaded == expected and 34.1e6 < expected < 34.3e6,
            f"{loaded} vs {expected}")

    pick = int(np.random.default_rng([r.seed, 20]).integers(len(probs)))
    samples = frontend.AudioSignal(inputs.decode_window(r.seed, pick), 16000).samples
    # the stream paths hand the model float32-rounded audio
    samples = samples.astype(np.float32).astype(np.float64)
    frames = reference.log_mel(samples)
    left, _, right = cfg.trial_kernel_sizes
    ref_shapes, ref_probs = reference.rene_forward(
        frames, params, (cfg.whisper_heads, cfg.conformer_heads), (left, right))
    diff = float(np.abs(ref_probs - probs[pick]).max())
    r.check(f"window {pick} equals a float64 reference forward within "
            f"{REFERENCE_TOL:g}", diff <= REFERENCE_TOL, f"max diff {diff:.3g}")
    audit = model.audit_shapes(cfg, n_frames=frames.shape[0])
    r.check("reference stage shapes equal audit_shapes",
            all(audit[k] == v for k, v in ref_shapes.items()),
            f"{ref_shapes} vs {audit}")

    if r.tracer is not None:
        r.tracer.install()
    before = r.tracer.snapshot() if r.tracer is not None else {}
    spec = frontend.log_mel_spectrogram(frontend.AudioSignal(samples, 16000),
                                        frontend.FrontendConfig())
    staged = run_stages(model, spec, params, cfg)
    if staged is not None:
        shapes, logits = staged
        want = {"encoder_forward": audit["whisper_encoder"],
                "conformer_encoder_forward": audit["conformer_encoder"],
                "bigru_decode": audit["feature_map"],
                "trial_block_forward": audit["logits"]}
        r.check("public stage outputs have the audit_shapes shapes",
                shapes == want, f"{shapes} vs {want}")
        e = np.exp(logits - np.max(logits))
        stage_diff = float(np.abs(e / e.sum() - ref_probs).max())
        r.check("stage functions chained equal the reference forward",
                stage_diff <= REFERENCE_TOL, f"max diff {stage_diff:.3g}")

    r.details.update(windows=i)
    if r.tracer is None:
        return
    r.layer.update(stage_metrics(delta(r.tracer.snapshot(), before)))
    r.layer["trace.overhead_pct"] = overhead_pct(traced, untraced)
