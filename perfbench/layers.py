"""Which program functions the traced run wraps, and under which span names.

Every span wraps a module attribute that the program itself calls through:
the model reaches its layers as `nn.<fn>`, the front end calls `spectrum`
and `build_mel_filterbank` as module globals, `select_k` calls `kmeans_fit`
the same way, and `train_toy` calls `rene_apply`, `rene_grad` and `sgd_step`
from the training module's namespace.
"""

from __future__ import annotations

import math

import numpy as np

from common import calls_per, self_ms, total_ms

NN_LAYERS = (
    "gelu_forward", "gelu_backward",
    "linear_forward", "linear_backward",
    "conv1d_forward", "conv1d_backward",
    "depthwise_conv1d_forward", "depthwise_conv1d_backward",
    "depthwise_separable_conv2d_forward", "depthwise_separable_conv2d_backward",
    "multi_head_self_attention_forward", "multi_head_self_attention_backward",
    "layer_norm_forward", "layer_norm_backward",
    "gru_sequence_forward", "gru_sequence_backward",
)

# public stage functions a window is run through, in order
STAGES = (
    ("encoder_forward", "model.encoder"),
    ("conformer_encoder_forward", "model.conformer"),
    ("bigru_decode", "model.bigru"),
    ("trial_block_forward", "model.trial"),
)

EMR_SPANS = (
    ("read_emr_csv", "emr.read_csv"),
    ("select_k", "emr.select_k"),
    ("kmeans_fit", "emr.kmeans_fit"),
    ("silhouette", "emr.silhouette"),
    ("smote_oversample", "emr.smote"),
    ("gbdt_fit", "emr.gbdt_fit"),
    ("gbdt_predict_proba", "emr.gbdt_predict"),
)


def run_stages(model, spec, params, cfg):
    """The window through the public stage functions in turn; None if any of
    them no longer exists."""
    funcs = [getattr(model, attr, None) for attr, _ in STAGES]
    if any(f is None for f in funcs):
        return None
    shapes = {}
    x = spec
    for (attr, _), f in zip(STAGES, funcs):
        x = f(x, params, cfg)
        shapes[attr] = np.shape(x)
    return shapes, x


def register(tracer) -> None:
    from auscult import data, emr, frontend, fusion, model, nn, stream, training

    # the front end is reached from rene_forward, the dataset builder and
    # the benchmark's own check; each caller holds its own reference
    for owner in (model, data, frontend):
        tracer.add(owner, "log_mel_spectrogram", "frontend.log_mel")
    tracer.add(frontend, "spectrum", "frontend.spectrum")
    tracer.add(frontend, "build_mel_filterbank", "frontend.filterbank")
    tracer.add(data, "load_wav", "data.load_wav")
    for fn in NN_LAYERS + ("load_params",):
        tracer.add(nn, fn, f"nn.{fn}")
    for attr, name in STAGES:
        tracer.add(model, attr, name)
    tracer.add(training, "rene_apply", "model.forward")
    tracer.add(training, "rene_grad", "model.backward")
    tracer.add(training, "sgd_step", "training.sgd_step")
    tracer.add(stream.RingBuffer, "push", "stream.push")
    tracer.add(stream.RingBuffer, "read_at", "stream.read_at")
    for attr, name in EMR_SPANS:
        tracer.add(emr, attr, name)
    tracer.add(fusion, "alpha_sweep", "fusion.alpha_sweep")


def span_metrics(stats: dict, units: int, setup: dict) -> dict:
    """Self time per call of every wrapped layer function, and calls per
    unit of work. Functions only called during set-up take their figures
    from the set-up phase."""
    def pick(name):
        return stats if name in stats else setup

    out = {}
    for name in ("frontend.log_mel", "frontend.spectrum", "frontend.filterbank",
                 "data.load_wav", "nn.load_params", "training.sgd_step",
                 "stream.read_at", "fusion.alpha_sweep") + tuple(
                     n for _, n in EMR_SPANS):
        out[f"{name}.ms"] = self_ms(pick(name), name)
    out["frontend.filterbank.calls"] = calls_per(stats, "frontend.filterbank", units)
    out["stream.push.us"] = self_ms(stats, "stream.push", 1e6)
    for fn in NN_LAYERS:
        out[f"nn.{fn}.ms"] = self_ms(stats, f"nn.{fn}")
        out[f"nn.{fn}.calls"] = calls_per(stats, f"nn.{fn}", units)
    return out


def stage_metrics(stats: dict) -> dict:
    """Inclusive time per call of each model stage run on its own; NaN (not
    measured) when the stages could not be run in turn."""
    return {f"{name}.ms": total_ms(stats, name) if name in stats else math.nan
            for _, name in STAGES}


# metrics read from another span's calls
DERIVED = {"training.sgd_step": ("training.step.ms",),
           "stream.push": ("stream.wait.ms",),
           "stream.read_at": ("stream.wait.ms",)}


def missing_metrics(tracer) -> set:
    """Per-layer metric names whose wrapped function no longer exists."""
    out = set()
    for name in tracer.missing:
        out.update({f"{name}.ms", f"{name}.calls", f"{name}.us"})
        out.update(DERIVED.get(name, ()))
    return out
