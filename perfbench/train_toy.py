"""train_toy: the criterion-8 recipe (60 synthetic 2 s clips of 198 frames,
batch 16, learning rate 0.5) through `train_toy`, one epoch of four SGD
steps per call, repeated until the run's time is up. Only this workload
runs the backward passes and `sgd_step`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import leaves, median, overhead_pct, total_ms

CLIPS = 60
EPOCHS_PER_CALL = 1
BATCH = 16
LR = 0.5
GAMMA = 2.0
PROBE_CLIPS = 6
DIRECTIONAL_TOL = 1e-5


def _tree_dot(a, b) -> float:
    return sum(_tree_dot(v, b[k]) if isinstance(v, dict) else float(np.vdot(v, b[k]))
               for k, v in a.items())


def _tree_map(fn, *trees):
    return {k: _tree_map(fn, *(t[k] for t in trees)) if isinstance(v, dict)
            else fn(*(t[k] for t in trees)) for k, v in trees[0].items()}


def run(r) -> None:
    from auscult import data, model, training

    dataset = data.synthetic_tone_noise_dataset(n_clips=CLIPS, duration_s=2.0,
                                                seed=r.seed)
    cfg = model.preset_config("toy", n_classes=2)
    steps_per_call = EPOCHS_PER_CALL * -(-CLIPS // BATCH)
    clips_per_call = steps_per_call * BATCH

    step_gaps, last = [], [None]
    if r.tracer is not None:
        def on_step(_new, _args, _t0, t1):
            if last[0] is not None:
                step_gaps.append((t1 - last[0]) * 1000.0)
            last[0] = t1

        r.tracer.on_return["training.sgd_step"] = on_step

    r.setup_done()
    per_clip_ms, traces, params = [], [], None
    t_start = time.perf_counter()
    call = 0
    while time.perf_counter() - t_start < r.seconds:
        last[0] = None
        train_cfg = training.TrainConfig(batch_size=BATCH, epochs=EPOCHS_PER_CALL,
                                         lr0=LR, gamma=GAMMA,
                                         seed=r.seed * 1000 + call)
        t0 = time.perf_counter()
        params, trace = training.train_toy(dataset, cfg, train_cfg)
        per_clip_ms.append((time.perf_counter() - t0) * 1000.0 / clips_per_call)
        traces.append(trace)
        call += 1
    r.measured_done()
    if r.tracer is not None:
        r.tracer.on_return.clear()
    r.op_ms = per_clip_ms
    r.attempted = call * clips_per_call
    r.failed = 0
    r.units = call * clips_per_call

    # ---------------------------------------------------------------- checks
    # train_toy raises TrainingDivergedError on a non-finite batch loss, so a
    # finite epoch mean means every step's loss was finite
    r.check("every epoch's loss is finite and every call ran its epochs",
            all(len(t) == EPOCHS_PER_CALL and all(math.isfinite(row[1]) for row in t)
                for t in traces))
    r.check("trained parameters are finite",
            all(np.all(np.isfinite(v)) for v in leaves(params)))

    rng = np.random.default_rng([r.seed, 30])
    frames, label = dataset.items[int(rng.integers(len(dataset.items)))]

    def loss(p):
        out, _ = model.rene_apply(frames, p, cfg)
        return training.focal_loss(out.probs, label, GAMMA)

    out, cache = model.rene_apply(frames, params, cfg)
    grads = model.rene_grad(training.focal_loss_grad(out.probs, label, GAMMA),
                            cache, params, cfg)
    direction = _tree_map(lambda a: rng.standard_normal(a.shape), params)
    norm = math.sqrt(_tree_dot(direction, direction))
    direction = _tree_map(lambda a: a / norm, direction)
    h = 1e-5
    numeric = (loss(_tree_map(lambda p, v: p + h * v, params, direction))
               - loss(_tree_map(lambda p, v: p - h * v, params, direction))) / (2 * h)
    analytic = _tree_dot(grads, direction)
    rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-12)
    r.check("rene_grad agrees with a central finite difference of the focal "
            "loss along a random direction", rel <= DIRECTIONAL_TOL,
            f"analytic {analytic:.6g}, numeric {numeric:.6g}, rel {rel:.2g}")

    g_norm = math.sqrt(_tree_dot(grads, grads))
    eta = 1e-4 / max(g_norm, 1e-12)
    before, after = loss(params), loss(training.sgd_step(params, grads, eta))
    r.check("a small sgd_step along the gradient lowers the loss", after < before,
            f"{before:.10g} -> {after:.10g}")

    r.details.update(calls=call, epoch_losses=[t[-1][1] for t in traces])
    if r.tracer is None:
        return

    # ------------------------------------------------- traced-run extras
    r.layer["training.step.ms"] = median(step_gaps) if step_gaps else 0.0
    r.layer["model.forward.ms"] = total_ms(r.phase_stats, "model.forward")
    r.layer["model.backward.ms"] = total_ms(r.phase_stats, "model.backward")
    untraced, traced = [], []
    for i in range(PROBE_CLIPS):
        frames, label = dataset.items[i]
        for on, sink in ((False, untraced), (True, traced)):
            (r.tracer.install if on else r.tracer.uninstall)()
            t0 = time.perf_counter()
            out, cache = training.rene_apply(frames, params, cfg)
            training.rene_grad(training.focal_loss_grad(out.probs, label, GAMMA),
                               cache, params, cfg)
            sink.append(time.perf_counter() - t0)
    r.layer["trace.overhead_pct"] = overhead_pct(traced, untraced)
