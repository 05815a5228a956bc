"""Rene architecture: attention encoder -> Conformer encoder -> BiGRU decoder
-> trial block -> class probabilities.

`_build_rene` is the one description of the architecture's parameters:
`init_rene` draws the tree from it, and `estimate_parameter_count` and
`check_params` (a loaded file against its config) read its shapes-only form.

The cached entry points (`rene_apply` / `rene_grad`) carry activations for the
hand-derived backward pass; the plain functions below them are the pure
inference surface. Parameters live in a nested dict tree whose shape mirrors
the gradients returned by `rene_grad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import (FormatError, InvalidInputError, NonFiniteError, ParseError,
                     TooShortError)
from .frontend import AudioSignal, FrontendConfig, LogMelSpectrogram, log_mel_spectrogram

CONV_MODULE_KERNEL = 15
FF_EXPANSION = 4


@dataclass(frozen=True)
class ReneConfig:
    whisper_layers: int
    whisper_dim: int
    whisper_heads: int
    conformer_layers: int
    conformer_dim: int
    conformer_heads: int
    bigru_hidden: int
    n_classes: int = 4
    # (left branch, center branch, right branch); center stays an identity path
    trial_kernel_sizes: tuple = ((7, 5, 3), (), (3, 5, 7))
    trial_channels: int = 8

    def __post_init__(self):
        if min(self.whisper_layers, self.conformer_layers) < 1:
            raise InvalidInputError("layer counts must be positive")
        if min(self.whisper_dim, self.conformer_dim, self.bigru_hidden) < 1:
            raise InvalidInputError("dims must be positive")
        if self.whisper_dim % self.whisper_heads != 0:
            raise InvalidInputError("whisper_dim not divisible by whisper_heads")
        if self.conformer_dim % self.conformer_heads != 0:
            raise InvalidInputError("conformer_dim not divisible by conformer_heads")
        if self.n_classes < 2:
            raise InvalidInputError("need at least two classes")
        if self.trial_channels < 1:
            raise InvalidInputError("trial_channels must be positive")
        branches = tuple(tuple(b) for b in self.trial_kernel_sizes)
        if len(branches) != 3:
            raise InvalidInputError("trial_kernel_sizes needs exactly three branches")
        left, center, right = branches
        if not left or not right:
            raise InvalidInputError("left and right branches need at least one kernel")
        if any(a <= b for a, b in zip(left, left[1:])):
            raise InvalidInputError("left branch kernels must strictly decrease")
        if any(a >= b for a, b in zip(right, right[1:])):
            raise InvalidInputError("right branch kernels must strictly increase")
        if center:
            raise InvalidInputError("center branch is the identity path; no kernels")
        if any(k < 1 or k % 2 == 0 for k in left + right):
            raise InvalidInputError("branch kernels must be odd and positive")
        object.__setattr__(self, "trial_kernel_sizes", branches)


@dataclass(frozen=True)
class ReneOutput:
    """Classifier output: probabilities, raw logits, final decoder state."""

    probs: np.ndarray
    logits: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.probs)):
            raise NonFiniteError("probs must be finite")
        if self.probs.min() < 0 or abs(self.probs.sum() - 1.0) > 1e-9:
            raise InvalidInputError("probs must be a simplex vector")


_PRESETS = {
    "rene_s": dict(whisper_layers=4, whisper_dim=384, whisper_heads=6,
                   conformer_layers=16, conformer_dim=256, conformer_heads=4,
                   bigru_hidden=512),
    "rene_l": dict(whisper_layers=32, whisper_dim=1280, whisper_heads=20,
                   conformer_layers=17, conformer_dim=512, conformer_heads=8,
                   bigru_hidden=512),
    "toy": dict(whisper_layers=2, whisper_dim=64, whisper_heads=2,
                conformer_layers=2, conformer_dim=64, conformer_heads=2,
                bigru_hidden=64),
}


def preset_config(name: str, n_classes: int = 4) -> ReneConfig:
    if name not in _PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
        )
    return ReneConfig(n_classes=n_classes, **_PRESETS[name])


def most_square_factorization(n: int) -> tuple[int, int]:
    """(rows, cols) with rows*cols = n, rows >= cols, |rows-cols| minimal."""
    for cols in range(math.isqrt(n), 0, -1):
        if n % cols == 0:
            return n // cols, cols
    raise InvalidInputError("n must be positive")


# ------------------------------------------------------------- initialization

def _build_rene(cfg: ReneConfig, rng, n_mels: int) -> dict:
    """The one description of the parameter tree. `rng` draws every weight
    through numpy's `uniform(low, high, size)`."""
    d, dc = cfg.whisper_dim, cfg.conformer_dim

    def ff_params(dim):
        return {"ln": nn.init_layer_norm(dim),
                "lin1": nn.init_linear(rng, dim, FF_EXPANSION * dim),
                "lin2": nn.init_linear(rng, FF_EXPANSION * dim, dim)}

    encoder: dict = {
        "conv1": nn.init_conv1d(rng, 3, n_mels, d),
        "conv2": nn.init_conv1d(rng, 3, d, d),
    }
    for i in range(cfg.whisper_layers):
        encoder[f"block{i}"] = {
            "attn": {"ln": nn.init_layer_norm(d), "mhsa": nn.init_attention(rng, d)},
            "ff": ff_params(d),
        }
    encoder["ln_final"] = nn.init_layer_norm(d)

    subsample = {
        "conv1": nn.init_conv1d(rng, 3, d, d),
        "conv2": nn.init_conv1d(rng, 3, d, d),
        "proj": nn.init_linear(rng, d, dc),
    }

    conformer: dict = {}
    for i in range(cfg.conformer_layers):
        conformer[f"block{i}"] = {
            "ff1": ff_params(dc),
            "attn": {"ln": nn.init_layer_norm(dc), "mhsa": nn.init_attention(rng, dc)},
            "conv": {
                "ln_pre": nn.init_layer_norm(dc),
                "pw1": nn.init_linear(rng, dc, dc),
                "dw": nn.init_depthwise_conv1d(rng, CONV_MODULE_KERNEL, dc),
                "ln_mid": nn.init_layer_norm(dc),
                "pw2": nn.init_linear(rng, dc, dc),
            },
            "ff2": ff_params(dc),
            "ln_final": nn.init_layer_norm(dc),
        }

    trial: dict = {}
    left, _, right = cfg.trial_kernel_sizes
    for name, kernels in (("left", left), ("right", right)):
        for i, k in enumerate(kernels):
            c_in = 1 if i == 0 else cfg.trial_channels
            trial[f"{name}{i}"] = nn.init_depthwise_separable(
                rng, k, c_in, cfg.trial_channels
            )
    trial["head"] = nn.init_linear(rng, cfg.trial_channels, cfg.n_classes)

    return {
        "encoder": encoder,
        "subsample": subsample,
        "conformer": conformer,
        "bigru": nn.init_bigru(rng, dc, cfg.bigru_hidden),
        "trial": trial,
    }


class _ShapesOnly:
    """Draw source whose weights are zero-stride views: shapes, no storage."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def init_rene(cfg: ReneConfig, seed: int, n_mels: int = 80) -> dict:
    return _build_rene(cfg, np.random.default_rng(seed), n_mels)


def count_parameters(params: dict) -> int:
    return sum(arr.size for arr in nn.flatten_params(params).values())


def estimate_parameter_count(cfg: ReneConfig, n_mels: int = 80) -> int:
    """Size of the shapes-only tree; allocates no weights, so it also covers
    presets too large to instantiate."""
    return count_parameters(_build_rene(cfg, _ShapesOnly, n_mels))


def _shapes(tree: dict) -> dict:
    return {name: arr.shape for name, arr in nn.flatten_params(tree).items()}


def check_params(params: dict, cfg: ReneConfig, n_mels: int = 80) -> None:
    """Raise FormatError naming the first leaf, in name order, that `params`
    lacks, that `cfg` lacks, or whose shape differs from the config's."""
    want, have = _shapes(_build_rene(cfg, _ShapesOnly, n_mels)), _shapes(params)
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            raise FormatError(f"parameter {name}: file gives {have.get(name, 'no leaf')}"
                              f", config needs {want.get(name, 'no leaf')}")


# ------------------------------------------------------------------ sublayers

def _ff_forward(x, p):
    h, c_ln = nn.layer_norm_forward(x, p["ln"]["gain"], p["ln"]["bias"])
    h1, c1 = nn.linear_forward(h, p["lin1"]["w"], p["lin1"]["b"])
    g, cg = nn.gelu_forward(h1)
    y, c2 = nn.linear_forward(g, p["lin2"]["w"], p["lin2"]["b"])
    return y, (c_ln, c1, cg, c2)


def _ff_backward(dy, cache):
    c_ln, c1, cg, c2 = cache
    dg, g2 = nn.linear_backward(dy, c2)
    dh1 = nn.gelu_backward(dg, cg)
    dh, g1 = nn.linear_backward(dh1, c1)
    dx, g_ln = nn.layer_norm_backward(dh, c_ln)
    return dx, {"ln": g_ln, "lin1": g1, "lin2": g2}


def _attn_sublayer_forward(x, p, n_heads):
    h, c_ln = nn.layer_norm_forward(x, p["ln"]["gain"], p["ln"]["bias"])
    y, c_at = nn.multi_head_self_attention_forward(h, p["mhsa"], n_heads)
    return y, (c_ln, c_at)


def _attn_sublayer_backward(dy, cache):
    c_ln, c_at = cache
    dh, g_at = nn.multi_head_self_attention_backward(dy, c_at)
    dx, g_ln = nn.layer_norm_backward(dh, c_ln)
    return dx, {"ln": g_ln, "mhsa": g_at}


def _conv_module_forward(x, p):
    h, c_ln1 = nn.layer_norm_forward(x, p["ln_pre"]["gain"], p["ln_pre"]["bias"])
    h1, c_pw1 = nn.linear_forward(h, p["pw1"]["w"], p["pw1"]["b"])
    g, cg = nn.gelu_forward(h1)
    pad = (p["dw"]["w"].shape[0] - 1) // 2
    dconv, c_dw = nn.depthwise_conv1d_forward(g, p["dw"]["w"], p["dw"]["b"], pad)
    norm, c_ln2 = nn.layer_norm_forward(dconv, p["ln_mid"]["gain"], p["ln_mid"]["bias"])
    y, c_pw2 = nn.linear_forward(norm, p["pw2"]["w"], p["pw2"]["b"])
    return y, (c_ln1, c_pw1, cg, c_dw, c_ln2, c_pw2)


def _conv_module_backward(dy, cache):
    c_ln1, c_pw1, cg, c_dw, c_ln2, c_pw2 = cache
    dnorm, g_pw2 = nn.linear_backward(dy, c_pw2)
    ddconv, g_ln2 = nn.layer_norm_backward(dnorm, c_ln2)
    dg, g_dw = nn.depthwise_conv1d_backward(ddconv, c_dw)
    dh1 = nn.gelu_backward(dg, cg)
    dh, g_pw1 = nn.linear_backward(dh1, c_pw1)
    dx, g_ln1 = nn.layer_norm_backward(dh, c_ln1)
    return dx, {"ln_pre": g_ln1, "pw1": g_pw1, "dw": g_dw,
                "ln_mid": g_ln2, "pw2": g_pw2}


# ----------------------------------------------------------- whisper encoder

def _encoder_apply(frames, params, cfg):
    p = params["encoder"]
    h1, c1 = nn.conv1d_forward(frames, p["conv1"]["w"], p["conv1"]["b"], 1, 1)
    g1, cg1 = nn.gelu_forward(h1)
    h2, c2 = nn.conv1d_forward(g1, p["conv2"]["w"], p["conv2"]["b"], 2, 1)
    g2, cg2 = nn.gelu_forward(h2)
    h = g2 + nn.sinusoidal_positional_embedding(g2.shape[0], cfg.whisper_dim)
    block_caches = []
    for i in range(cfg.whisper_layers):
        bp = p[f"block{i}"]
        a, c_a = _attn_sublayer_forward(h, bp["attn"], cfg.whisper_heads)
        h = h + a
        f, c_f = _ff_forward(h, bp["ff"])
        h = h + f
        block_caches.append((c_a, c_f))
    y, c_ln = nn.layer_norm_forward(
        h, p["ln_final"]["gain"], p["ln_final"]["bias"]
    )
    return y, (c1, cg1, c2, cg2, block_caches, c_ln)


def _encoder_backward(dy, cache, params, cfg):
    c1, cg1, c2, cg2, block_caches, c_ln = cache
    grads: dict = {}
    dh, grads["ln_final"] = nn.layer_norm_backward(dy, c_ln)
    for i in reversed(range(cfg.whisper_layers)):
        c_a, c_f = block_caches[i]
        df, g_f = _ff_backward(dh, c_f)
        dh = dh + df
        da, g_a = _attn_sublayer_backward(dh, c_a)
        dh = dh + da
        grads[f"block{i}"] = {"attn": g_a, "ff": g_f}
    dg2 = nn.gelu_backward(dh, cg2)
    dg1c, g_c2 = nn.conv1d_backward(dg2, c2)
    dh1 = nn.gelu_backward(dg1c, cg1)
    dx, g_c1 = nn.conv1d_backward(dh1, c1)
    grads["conv1"], grads["conv2"] = g_c1, g_c2
    return dx, grads


def encoder_forward(spec, params, cfg: ReneConfig) -> np.ndarray:
    """Two GELU convolutions (stride 1 then 2), positional embeddings, then
    pre-activation residual attention blocks and a final layer norm."""
    frames = spec.frames if isinstance(spec, LogMelSpectrogram) else np.asarray(spec)
    return _encoder_apply(frames, params, cfg)[0]


# ---------------------------------------------------------- conformer encoder

def _conformer_block_apply(x, p, n_heads):
    """One Macaron block: half-step FF, attention, conv module, half-step FF,
    final layer norm."""
    f1, c_f1 = _ff_forward(x, p["ff1"])
    x1 = x + 0.5 * f1
    a, c_a = _attn_sublayer_forward(x1, p["attn"], n_heads)
    x2 = x1 + a
    cm, c_c = _conv_module_forward(x2, p["conv"])
    x3 = x2 + cm
    f2, c_f2 = _ff_forward(x3, p["ff2"])
    x4 = x3 + 0.5 * f2
    y, c_ln = nn.layer_norm_forward(x4, p["ln_final"]["gain"], p["ln_final"]["bias"])
    return y, (c_f1, c_a, c_c, c_f2, c_ln)


def _conformer_block_backward(dy, cache, p):
    c_f1, c_a, c_c, c_f2, c_ln = cache
    dx4, g_lnf = nn.layer_norm_backward(dy, c_ln)
    df2, g_f2 = _ff_backward(0.5 * dx4, c_f2)
    dx3 = dx4 + df2
    dc, g_c = _conv_module_backward(dx3, c_c)
    dx2 = dx3 + dc
    da, g_a = _attn_sublayer_backward(dx2, c_a)
    dx1 = dx2 + da
    df1, g_f1 = _ff_backward(0.5 * dx1, c_f1)
    dx = dx1 + df1
    return dx, {"ff1": g_f1, "attn": g_a, "conv": g_c, "ff2": g_f2, "ln_final": g_lnf}


def _conformer_apply(x, params, cfg):
    if x.shape[0] < 4:
        raise TooShortError(
            f"conformer subsampling needs at least 4 steps, got {x.shape[0]}"
        )
    sp = params["subsample"]
    h1, c1 = nn.conv1d_forward(x, sp["conv1"]["w"], sp["conv1"]["b"], 2, 1)
    g1, cg1 = nn.gelu_forward(h1)
    h2, c2 = nn.conv1d_forward(g1, sp["conv2"]["w"], sp["conv2"]["b"], 2, 1)
    g2, cg2 = nn.gelu_forward(h2)
    h, c_proj = nn.linear_forward(g2, sp["proj"]["w"], sp["proj"]["b"])
    block_caches = []
    for i in range(cfg.conformer_layers):
        h, c = _conformer_block_apply(h, params["conformer"][f"block{i}"],
                                      cfg.conformer_heads)
        block_caches.append(c)
    return h, (c1, cg1, c2, cg2, c_proj, block_caches)


def _conformer_backward(dy, cache, params, cfg):
    c1, cg1, c2, cg2, c_proj, block_caches = cache
    g_blocks: dict = {}
    dh = dy
    for i in reversed(range(cfg.conformer_layers)):
        dh, g = _conformer_block_backward(
            dh, block_caches[i], params["conformer"][f"block{i}"]
        )
        g_blocks[f"block{i}"] = g
    dg2, g_proj = nn.linear_backward(dh, c_proj)
    dh2 = nn.gelu_backward(dg2, cg2)
    dg1, g_c2 = nn.conv1d_backward(dh2, c2)
    dh1 = nn.gelu_backward(dg1, cg1)
    dx, g_c1 = nn.conv1d_backward(dh1, c1)
    return dx, {"conv1": g_c1, "conv2": g_c2, "proj": g_proj}, g_blocks


def conformer_encoder_forward(x, params, cfg: ReneConfig) -> np.ndarray:
    """Two stride-2 subsampling convolutions, linear projection, then the
    stack of Conformer blocks."""
    return _conformer_apply(np.asarray(x), params, cfg)[0]


# -------------------------------------------------------------- BiGRU decoder

def bigru_decode(seq, params, cfg: ReneConfig) -> np.ndarray:
    """Final BiGRU state (both directions) reshaped to a 2D feature map."""
    fmap, _final, _cache = _decode_apply(np.asarray(seq), params)
    return fmap


def _decode_apply(seq, params):
    _ys, final, cache = nn.bigru_forward(seq, params["bigru"])
    rows, cols = most_square_factorization(final.shape[0])
    return final.reshape(rows, cols), final, cache


# ---------------------------------------------------------------- trial block

def _branch_apply(x, kernels, params, prefix):
    caches = []
    h = x
    for i in range(len(kernels)):
        pp = params[f"{prefix}{i}"]
        h, c = nn.depthwise_separable_conv2d_forward(
            h, pp["dw_kernel"], pp["pw_weight"], pp["pw_bias"]
        )
        g, cg = nn.gelu_forward(h)
        caches.append((c, cg))
        h = g
    return h, caches


def _branch_backward(dh, caches, params, prefix):
    grads = {}
    for i in reversed(range(len(caches))):
        c, cg = caches[i]
        dh = nn.gelu_backward(dh, cg)
        dh, g = nn.depthwise_separable_conv2d_backward(dh, c)
        grads[f"{prefix}{i}"] = g
    return dh, grads


def _trial_apply(fmap, params, cfg):
    rows, cols = fmap.shape
    left_k, _, right_k = cfg.trial_kernel_sizes
    k_max = max([*left_k, *right_k], default=1)
    if min(rows, cols) < k_max:
        raise TooShortError(
            f"feature map {rows}x{cols} smaller than largest kernel {k_max}"
        )
    tp = params["trial"]
    x = fmap[:, :, None]
    left, c_left = _branch_apply(x, left_k, tp, "left")
    right, c_right = _branch_apply(x, right_k, tp, "right")
    center = np.repeat(x, cfg.trial_channels, axis=2)
    merged = left + right + center
    pooled = merged.mean(axis=(0, 1))
    logits, c_head = nn.linear_forward(pooled, tp["head"]["w"], tp["head"]["b"])
    return logits, (c_left, c_right, fmap.shape, c_head)


def _trial_backward(dlogits, cache, params, cfg):
    c_left, c_right, fmap_shape, c_head = cache
    rows, cols = fmap_shape
    dpooled, g_head = nn.linear_backward(dlogits, c_head)
    dmerged = np.broadcast_to(
        dpooled / (rows * cols), (rows, cols, cfg.trial_channels)
    ).copy()
    tp = params["trial"]
    dl, g_left = _branch_backward(dmerged, c_left, tp, "left")
    dr, g_right = _branch_backward(dmerged, c_right, tp, "right")
    dcenter = dmerged.sum(axis=2, keepdims=True)
    dfmap = (dl + dr + dcenter)[:, :, 0]
    return dfmap, {**g_left, **g_right, "head": g_head}


def trial_block_forward(feature_map, params, cfg: ReneConfig) -> np.ndarray:
    """Three-branch block (shrinking kernels, identity, growing kernels) with
    global average pooling and a linear head."""
    return _trial_apply(np.asarray(feature_map), params, cfg)[0]


# ------------------------------------------------------------------ full model

def rene_apply(frames, params, cfg: ReneConfig):
    """Cached full forward from (T, n_mels) features to ReneOutput."""
    enc, c_enc = _encoder_apply(np.asarray(frames, dtype=np.float64), params, cfg)
    conf, c_conf = _conformer_apply(enc, params, cfg)
    fmap, final, c_bg = _decode_apply(conf, params)
    logits, c_trial = _trial_apply(fmap, params, cfg)
    out = ReneOutput(probs=nn.softmax(logits), logits=logits, embedding=final)
    return out, (c_enc, c_conf, c_bg, c_trial)


def rene_grad(dlogits, cache, params, cfg: ReneConfig) -> dict:
    """Backward from a logits gradient to the full parameter-gradient tree."""
    c_enc, c_conf, c_bg, c_trial = cache
    dfmap, g_trial = _trial_backward(dlogits, c_trial, params, cfg)
    dseq, g_bigru = nn.bigru_backward(None, dfmap.reshape(-1), c_bg, params["bigru"])
    dconf_in, g_sub, g_blocks = _conformer_backward(dseq, c_conf, params, cfg)
    _dx, g_enc = _encoder_backward(dconf_in, c_enc, params, cfg)
    return {"encoder": g_enc, "subsample": g_sub, "conformer": g_blocks,
            "bigru": g_bigru, "trial": g_trial}


def rene_forward(
    signal: AudioSignal,
    params,
    cfg: ReneConfig,
    frontend_config: FrontendConfig | None = None,
    normalization: tuple[float, float] | None = None,
) -> ReneOutput:
    """Raw audio to class probabilities through the whole pipeline."""
    fcfg = frontend_config or FrontendConfig()
    spec = log_mel_spectrogram(signal, fcfg, normalization)
    return rene_apply(spec.frames, params, cfg)[0]


# ----------------------------------------------------------------- shape audit

def audit_shapes(cfg: ReneConfig, n_frames: int, n_mels: int = 80) -> dict:
    """Analytic per-stage output shapes; nothing is allocated, so this also
    covers presets too large to instantiate."""

    def ceil_half(t):
        return -(-t // 2)

    t_enc = ceil_half(n_frames)
    t_conf = ceil_half(ceil_half(t_enc))
    rows, cols = most_square_factorization(2 * cfg.bigru_hidden)
    return {
        "input": (n_frames, n_mels),
        "whisper_encoder": (t_enc, cfg.whisper_dim),
        "conformer_encoder": (t_conf, cfg.conformer_dim),
        "decoder_state": (2 * cfg.bigru_hidden,),
        "feature_map": (rows, cols),
        "logits": (cfg.n_classes,),
        "probs": (cfg.n_classes,),
    }


# -------------------------------------------------------------- config file io

_INT_FIELDS = (
    "whisper_layers", "whisper_dim", "whisper_heads",
    "conformer_layers", "conformer_dim", "conformer_heads",
    "bigru_hidden", "n_classes", "trial_channels",
)


def save_model_config(path, cfg: ReneConfig) -> None:
    """Flat key=value text document; kernel lists are comma-separated."""
    left, center, right = cfg.trial_kernel_sizes
    lines = [f"{name}={getattr(cfg, name)}" for name in _INT_FIELDS]
    lines.append("trial_kernels_left=" + ",".join(map(str, left)))
    lines.append("trial_kernels_center=" + ",".join(map(str, center)))
    lines.append("trial_kernels_right=" + ",".join(map(str, right)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model_config(path) -> ReneConfig:
    values: dict = {}
    kernels = {"trial_kernels_left": (), "trial_kernels_center": (),
               "trial_kernels_right": ()}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected key=value", line=line_no)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in kernels:
                try:
                    kernels[key] = tuple(
                        int(tok) for tok in value.split(",") if tok.strip()
                    )
                except ValueError:
                    raise ParseError(f"bad kernel list {value!r}", line=line_no)
            elif key in _INT_FIELDS:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ParseError(f"bad integer {value!r} for {key}", line=line_no)
            else:
                raise ParseError(f"unknown config key {key!r}", line=line_no)
    missing = [k for k in _INT_FIELDS if k not in values]
    if missing:
        raise ParseError(f"missing config keys: {', '.join(missing)}")
    return ReneConfig(
        trial_kernel_sizes=(kernels["trial_kernels_left"],
                            kernels["trial_kernels_center"],
                            kernels["trial_kernels_right"]),
        **values,
    )
