"""Rene architecture: attention encoder -> Conformer encoder -> BiGRU decoder
-> trial block -> class probabilities.

`_build_rene` is the one description of the architecture's parameters:
`init_rene` draws the tree from it, and `estimate_parameter_count` and
`check_params` (a loaded file against its config) read its shapes-only form.

Each sequential sublayer (feed-forward, attention, conv module, conv stems,
trial branches) is a list of `nn` kernel steps run by one chain runner:
`_chain_forward` records a tape and `_chain_backward` walks it in reverse.
A step may nest a chain as a scaled residual, so the encoder and Conformer
block stacks run on the same runner. Only the encoder's positional add, the
trial head's merge and pool, and the BiGRU are written out by hand. The
BiGRU returns its final state only, which folds into the trial head's square
feature map.

`rene_apply` with its default `cache=True` returns the tapes the backward
pass (`rene_grad`) reads; with `cache=False`, as every inference caller uses
it, it keeps none of them. The per-stage functions (`encoder_forward` and
the rest) are cache-free too. Parameters live in a nested dict tree whose
shape mirrors the gradients returned by `rene_grad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import FormatError, InvalidInputError, ParseError, TooShortError
from .frontend import AudioSignal, FrontendConfig, LogMelSpectrogram, log_mel_spectrogram
from .fusion import check_simplex
from .textio import read_lines

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
        if min(self.whisper_heads, self.conformer_heads) < 1:
            raise InvalidInputError("head counts must be positive")
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
        check_simplex(self.probs)


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


def init_rene(cfg: ReneConfig, seed: int,
              n_mels: int = FrontendConfig.n_mels) -> dict:
    return _build_rene(cfg, np.random.default_rng(seed), n_mels)


def count_parameters(params: dict) -> int:
    return sum(arr.size for arr in nn.flatten_params(params).values())


def estimate_parameter_count(cfg: ReneConfig,
                             n_mels: int = FrontendConfig.n_mels) -> int:
    """Size of the shapes-only tree; allocates no weights, so it also covers
    presets too large to instantiate."""
    return count_parameters(_build_rene(cfg, _ShapesOnly, n_mels))


def _shapes(tree: dict) -> dict:
    return {name: arr.shape for name, arr in nn.flatten_params(tree).items()}


def check_params(params: dict, cfg: ReneConfig,
                 n_mels: int = FrontendConfig.n_mels) -> None:
    """Raise FormatError naming the first leaf, in name order, that `params`
    lacks, that `cfg` lacks, or whose shape differs from the config's.

    The shapes-only tree still allocates its biases and gains at the
    config's sizes. A matching config's sizes are axis lengths of the file's
    leaves and its layer counts are at most the leaf count, so a config
    beyond those bounds is refused before that tree is built."""
    have = _shapes(params)
    longest = max((n for shape in have.values() for n in shape), default=0)
    for name in ("whisper_dim", "conformer_dim", "bigru_hidden", "n_classes",
                 "trial_channels", "whisper_layers", "conformer_layers"):
        bound = len(have) if name.endswith("_layers") else longest
        if getattr(cfg, name) > bound:
            raise FormatError(f"config {name}={getattr(cfg, name)} cannot match a file "
                              f"of {len(have)} leaves whose longest axis is {longest}")
    want = _shapes(_build_rene(cfg, _ShapesOnly, n_mels))
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            raise FormatError(f"parameter {name}: file gives {have.get(name, 'no leaf')}"
                              f", config needs {want.get(name, 'no leaf')}")


# ------------------------------------------------------------------ sublayers
#
# A sequential sublayer is a chain of steps, each (nn kernel name, parameter
# key or None, extra keyword arguments), and `_chain_forward` and
# `_chain_backward` are its only forward and backward: the order of a
# sublayer is written once. A step whose kernel is itself a tuple of steps
# runs that chain on the subtree at its key; with a scale in place of the
# keyword arguments it is the residual x + scale * chain(x), with None the
# chain alone, so a block stack is a chain of nested chains. Kernels are
# looked up on `nn` at call time, so a wrapper set on the module attribute
# sees every call. With cache=False the runner keeps no step's cache, so an
# inference decode holds no layer's activations past the call that made
# them; only training needs the tape.

def _chain_forward(x, steps, p, cache=True):
    """Run `steps` on `x`; return (y, tape), the tape None when not caching."""
    tape = [] if cache else None
    for kernel, key, extra in steps:
        leaves = {} if key is None else p[key]
        if isinstance(kernel, tuple):  # a nested chain, residual when scaled
            y, c = _chain_forward(x, kernel, leaves, cache)
            x = y if extra is None else x + extra * y
        else:
            if kernel == "multi_head_self_attention":  # takes its leaves as one dict
                leaves = {"params": leaves}
            x, c = getattr(nn, kernel + "_forward")(x, **leaves, **extra)
        if cache:
            tape.append((kernel, key, extra, c))
    return x, tape


def _chain_backward(dy, tape):
    """Backward through a tape in reverse; (dx, gradients by parameter key)."""
    grads = {}
    for kernel, key, extra, c in reversed(tape):
        if not isinstance(kernel, tuple):
            out = getattr(nn, kernel + "_backward")(dy, c)
            if key is None:  # a parameter-free step returns dx alone
                dy = out
            else:
                dy, grads[key] = out
        elif extra is None:
            dy, grads[key] = _chain_backward(dy, c)
        else:  # the skip path passes dy through unchanged
            dx, grads[key] = _chain_backward(extra * dy, c)
            dy = dy + dx
    return dy, grads


_GELU = ("gelu", None, {})
_FF = (("layer_norm", "ln", {}), ("linear", "lin1", {}), _GELU,
       ("linear", "lin2", {}))
_CONV_MODULE = (("layer_norm", "ln_pre", {}), ("linear", "pw1", {}), _GELU,
                ("depthwise_conv1d", "dw", {"padding": CONV_MODULE_KERNEL // 2}),
                ("layer_norm", "ln_mid", {}), ("linear", "pw2", {}))


def _attn_steps(n_heads):
    return (("layer_norm", "ln", {}),
            ("multi_head_self_attention", "mhsa", {"n_heads": n_heads}))


def _stem_steps(strides):
    """Two padded GELU convolutions with the given strides."""
    return (("conv1d", "conv1", {"stride": strides[0], "padding": 1}), _GELU,
            ("conv1d", "conv2", {"stride": strides[1], "padding": 1}), _GELU)


_ENCODER_STEM = _stem_steps((1, 2))
_SUBSAMPLE = _stem_steps((2, 2)) + (("linear", "proj", {}),)


def _stack(block, n_layers):
    """`n_layers` copies of a block's steps, each on its subtree `block{i}`."""
    return tuple((block, f"block{i}", None) for i in range(n_layers))


def _conformer_block_steps(n_heads):
    """One Macaron block: half-step FF, attention, conv module, half-step FF,
    each a residual, then a final layer norm."""
    return ((_FF, "ff1", 0.5), (_attn_steps(n_heads), "attn", 1.0),
            (_CONV_MODULE, "conv", 1.0), (_FF, "ff2", 0.5),
            ("layer_norm", "ln_final", {}))


def _branch_steps(prefix, kernels):
    """One GELU depthwise-separable convolution per kernel of a trial branch."""
    return tuple(step for i in range(len(kernels)) for step in
                 (("depthwise_separable_conv2d", f"{prefix}{i}", {}), _GELU))


# ----------------------------------------------------------- whisper encoder

def _encoder_apply(frames, params, cfg, cache=True):
    """The stem chain, the positional table added at the join, then the body
    chain: pre-activation attention and FF residuals per block, final norm."""
    p = params["encoder"]
    g2, c_stem = _chain_forward(frames, _ENCODER_STEM, p, cache)
    h = g2 + nn.sinusoidal_positional_embedding(g2.shape[0], cfg.whisper_dim)
    block = ((_attn_steps(cfg.whisper_heads), "attn", 1.0), (_FF, "ff", 1.0))
    body = _stack(block, cfg.whisper_layers) + (("layer_norm", "ln_final", {}),)
    y, c_body = _chain_forward(h, body, p, cache)
    return y, ((c_stem, c_body) if cache else None)


def encoder_forward(spec, params, cfg: ReneConfig) -> np.ndarray:
    """Two GELU convolutions (stride 1 then 2), positional embeddings, then
    pre-activation residual attention blocks and a final layer norm."""
    frames = spec.frames if isinstance(spec, LogMelSpectrogram) else np.asarray(spec)
    return _encoder_apply(frames, params, cfg, cache=False)[0]


# ---------------------------------------------------------- conformer encoder

def _conformer_apply(x, params, cfg, cache=True):
    """The subsampling chain, then the Conformer blocks, both run on the
    whole parameter tree so the tape yields `subsample` and `conformer`."""
    if x.shape[0] < 4:
        raise TooShortError(
            f"conformer subsampling needs at least 4 steps, got {x.shape[0]}"
        )
    blocks = _stack(_conformer_block_steps(cfg.conformer_heads), cfg.conformer_layers)
    return _chain_forward(x, ((_SUBSAMPLE, "subsample", None),
                              (blocks, "conformer", None)), params, cache)


def conformer_encoder_forward(x, params, cfg: ReneConfig) -> np.ndarray:
    """Two stride-2 subsampling convolutions, linear projection, then the
    stack of Conformer blocks."""
    return _conformer_apply(np.asarray(x), params, cfg, cache=False)[0]


# -------------------------------------------------------------- BiGRU decoder

def bigru_decode(seq, params, cfg: ReneConfig) -> np.ndarray:
    """Final BiGRU state (both directions) reshaped to a 2D feature map."""
    final, _cache = nn.bigru_forward(seq, **params["bigru"])
    return final.reshape(most_square_factorization(final.shape[0]))


# ---------------------------------------------------------------- trial block

def _trial_apply(fmap, params, cfg, cache=True):
    rows, cols = fmap.shape
    left_k, _, right_k = cfg.trial_kernel_sizes
    k_max = max(*left_k, *right_k)
    if min(rows, cols) < k_max:
        raise TooShortError(
            f"feature map {rows}x{cols} smaller than largest kernel {k_max}"
        )
    tp = params["trial"]
    x = fmap[:, :, None]
    left, c_left = _chain_forward(x, _branch_steps("left", left_k), tp, cache)
    right, c_right = _chain_forward(x, _branch_steps("right", right_k), tp, cache)
    # the identity branch joins by broadcasting its one channel over all C
    pooled = (left + right + x).mean(axis=(0, 1))
    logits, c_head = nn.linear_forward(pooled, tp["head"]["w"], tp["head"]["b"])
    return logits, ((c_left, c_right, fmap.shape, c_head) if cache else None)


def _trial_backward(dlogits, cache, cfg):
    c_left, c_right, fmap_shape, c_head = cache
    rows, cols = fmap_shape
    dpooled, g_head = nn.linear_backward(dlogits, c_head)
    dmerged = np.broadcast_to(
        dpooled / (rows * cols), (rows, cols, cfg.trial_channels)
    ).copy()
    dl, g_left = _chain_backward(dmerged, c_left)
    dr, g_right = _chain_backward(dmerged, c_right)
    dcenter = dmerged.sum(axis=2, keepdims=True)
    dfmap = (dl + dr + dcenter)[:, :, 0]
    return dfmap, {**g_left, **g_right, "head": g_head}


def trial_block_forward(feature_map, params, cfg: ReneConfig) -> np.ndarray:
    """Three-branch block (shrinking kernels, identity, growing kernels) with
    global average pooling and a linear head."""
    return _trial_apply(np.asarray(feature_map), params, cfg, cache=False)[0]


# ------------------------------------------------------------------ full model

def rene_apply(frames, params, cfg: ReneConfig, cache=True):
    """Full forward from (T, n_mels) features to (ReneOutput, cache).

    The cache is the backward tape `rene_grad` reads. With cache=False it is
    None and each stage frees its activations as it goes, which is what an
    inference decode wants; the output is the same either way."""
    enc, c_enc = _encoder_apply(np.asarray(frames, dtype=np.float64), params, cfg,
                                cache)
    conf, c_conf = _conformer_apply(enc, params, cfg, cache)
    final, c_bg = nn.bigru_forward(conf, **params["bigru"])
    if not cache:  # a decode keeps no GRU states past the step that made them
        c_bg = None
    fmap = final.reshape(most_square_factorization(final.shape[0]))
    logits, c_trial = _trial_apply(fmap, params, cfg, cache)
    out = ReneOutput(probs=nn.softmax(logits), logits=logits, embedding=final)
    return out, ((c_enc, c_conf, c_bg, c_trial) if cache else None)


def rene_grad(dlogits, cache, params, cfg: ReneConfig) -> dict:
    """Backward from a logits gradient to the full parameter-gradient tree."""
    (c_stem, c_body), c_conf, c_bg, c_trial = cache
    dfmap, g_trial = _trial_backward(dlogits, c_trial, cfg)
    dseq, g_bigru = nn.bigru_backward(dfmap.reshape(-1), c_bg)
    denc, g_conf = _chain_backward(dseq, c_conf)
    dh, g_body = _chain_backward(denc, c_body)  # the positional add passes dh on
    _dx, g_stem = _chain_backward(dh, c_stem)
    return {"encoder": {**g_stem, **g_body}, **g_conf, "bigru": g_bigru,
            "trial": g_trial}


def rene_forward(signal: AudioSignal, params, cfg: ReneConfig) -> ReneOutput:
    """Raw audio to class probabilities through the whole pipeline, with the
    default front end."""
    spec = log_mel_spectrogram(signal, FrontendConfig())
    return rene_apply(spec.frames, params, cfg, cache=False)[0]


# ----------------------------------------------------------------- shape audit

def audit_shapes(cfg: ReneConfig, n_frames: int) -> dict:
    """Analytic per-stage output shapes; nothing is allocated, so this also
    covers presets too large to instantiate."""

    def ceil_half(t):
        return -(-t // 2)

    t_enc = ceil_half(n_frames)
    t_conf = ceil_half(ceil_half(t_enc))
    rows, cols = most_square_factorization(2 * cfg.bigru_hidden)
    return {
        "input": (n_frames, FrontendConfig.n_mels),
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
# one comma-separated list per trial branch, in (left, center, right) order
_KERNEL_FIELDS = ("trial_kernels_left", "trial_kernels_center", "trial_kernels_right")


def save_model_config(path, cfg: ReneConfig) -> None:
    """Flat key=value text document; kernel lists are comma-separated."""
    lines = [f"{name}={getattr(cfg, name)}" for name in _INT_FIELDS]
    lines += [f"{name}=" + ",".join(map(str, kernels))
              for name, kernels in zip(_KERNEL_FIELDS, cfg.trial_kernel_sizes)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model_config(path) -> ReneConfig:
    values: dict = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ParseError(f"config key {key!r} repeats", line=line_no)
        if key in _KERNEL_FIELDS:
            try:
                values[key] = tuple(
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
    kernels = tuple(values.pop(name, ()) for name in _KERNEL_FIELDS)
    return ReneConfig(trial_kernel_sizes=kernels, **values)
