"""Functional layer primitives with hand-derived parameter gradients.

Every kernel, the GRU and BiGRU included, follows one convention:
``*_forward`` returns ``(y, cache)`` and ``*_backward`` takes ``(dy, cache)``
and returns the input gradient, followed, when the kernel has parameters, by
a dict of gradients shaped exactly like them. There is no autodiff graph;
these primitives are the whole differentiable surface. Parameter sets are
plain dicts of numpy arrays, treated as immutable once built; the leaves
of a loaded tree are read-only views of its file.

Leaves may be float32 (`load_params` keeps a record's stored width) or
float64; the arithmetic is float64 either way. Each kernel meets a weight with
a float64 activation, so NumPy widens it, exactly, inside the operation: the
forward of a float32 tree equals its float64 widening bit for bit. A backward
can differ in the last bits, where a transposed weight widens into a copy
that BLAS sums in another order.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import stat
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, FormatError, InvalidInputError

PARAMS_MAGIC = b"RENE"
PARAMS_VERSION = 1
_TAG_TO_DTYPE = {0: "<f4", 1: "<f8"}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

_GELU_C = np.sqrt(2.0 / np.pi)
GRAD_CHECK_STEP = 1e-4


# ---------------------------------------------------------------- activations

def gelu_forward(x):
    x = np.asarray(x, dtype=np.float64)
    # t = tanh(c * (x + 0.044715 * x^3)) and y = 0.5 * x * (1 + t), built in
    # two buffers; x itself is held by other caches and is never written
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, (x, t)


def gelu_backward(dy, cache):
    x, t = cache
    # dy * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2)),
    # in that operation order, in three buffers; dy and the cache stay unwritten
    dinner = x * x
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_C
    half = np.multiply(0.5, x)
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    np.multiply(half, dx, out=dx)
    dx *= dinner
    np.add(1.0, t, out=half)
    half *= 0.5
    np.add(half, dx, out=dx)
    dx *= dy
    return dx


def sigmoid(x):
    # tanh form: never exponentiates, so it cannot overflow for any finite x
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def softmax(x):
    """Max-subtracted softmax along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dy, y):
    return (dy - (dy * y).sum(axis=-1, keepdims=True)) * y


# ----------------------------------------------------------------- layer norm

def layer_norm_forward(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance (epsilon 1e-5),
    then affine."""
    x = np.asarray(x, dtype=np.float64)
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    inv_std = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv_std
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, inv_std, gain)


def layer_norm_backward(dy, cache):
    xhat, inv_std, gain = cache
    n = xhat.shape[-1]
    prod = dy * xhat
    dgain = prod.reshape(-1, n).sum(axis=0)
    dbias = dy.reshape(-1, n).sum(axis=0)
    # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    # dxhat = dy * gain, built in one buffer with prod as scratch, in that
    # operation order; dy and the cache stay unwritten
    dx = dy * gain
    np.multiply(dx, xhat, out=prod)
    np.multiply(xhat, prod.mean(axis=-1, keepdims=True), out=prod)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= prod
    dx *= inv_std
    return dx, {"gain": dgain, "bias": dbias}


# -------------------------------------------------------- positional encoding

@functools.lru_cache(maxsize=16)
def sinusoidal_positional_embedding(seq_len: int, dim: int) -> np.ndarray:
    """Interleaved sin/cos table: (p, 2i) = sin(p / 10000^(2i/dim)).

    Built once per (seq_len, dim) and shared read-only by every caller.
    """
    if dim % 2 != 0:
        raise InvalidInputError("positional embedding dim must be even")
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / 10000.0 ** (2.0 * i / dim)
    table = np.empty((seq_len, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


# --------------------------------------------------------------------- linear

def linear_forward(x, w, b):
    return x @ w + b, (x, w)


def linear_backward(dy, cache):
    x, w = cache
    d_in, d_out = w.shape
    x2 = x.reshape(-1, d_in)
    dy2 = dy.reshape(-1, d_out)
    dx = (dy2 @ w.T).reshape(x.shape)
    return dx, {"w": x2.T @ dy2, "b": dy2.sum(axis=0)}


# --------------------------------------------------------------------- conv1d

def _check_stride_padding(stride, padding):
    if stride < 1:
        raise InvalidInputError(f"stride must be at least 1, got {stride}")
    if padding < 0:
        raise InvalidInputError(f"padding must be non-negative, got {padding}")


def _zero_pad(x, pad, n_axes=1):
    """x with `pad` zeros before and after it along each of its first n_axes
    axes; np.pad's argument handling costs more than the copy on small arrays."""
    shape = tuple(n + 2 * pad for n in x.shape[:n_axes]) + x.shape[n_axes:]
    out = np.zeros(shape, dtype=x.dtype)
    out[tuple(slice(pad, pad + n) for n in x.shape[:n_axes])] = x
    return out


def conv1d_forward(x, w, b, stride, padding):
    """Cross-correlation over time. x: (T, Cin), w: (k, Cin, Cout).

    Output length is floor((T + 2*padding - k) / stride) + 1.
    """
    t_in, c_in = x.shape
    k, kc_in, c_out = w.shape
    if kc_in != c_in:
        raise InvalidInputError(f"kernel expects {kc_in} channels, got {c_in}")
    _check_stride_padding(stride, padding)
    if t_in + 2 * padding < k:
        raise InvalidInputError("kernel wider than padded input")
    xp = _zero_pad(x, padding)
    t_out = (t_in + 2 * padding - k) // stride + 1
    span = stride * (t_out - 1) + 1
    # column j of each row is tap j: the strided slice of xp starting at j
    cols = np.empty((t_out, k, c_in))
    for j in range(k):
        cols[:, j] = xp[j : j + span : stride]
    cols = cols.reshape(t_out, k * c_in)
    y = cols @ w.reshape(k * c_in, c_out) + b
    return y, (cols, w, x.shape, stride, padding)


def conv1d_backward(dy, cache):
    cols, w, x_shape, stride, padding = cache
    t_in, c_in = x_shape
    k, _, c_out = w.shape
    t_out = dy.shape[0]
    span = stride * (t_out - 1) + 1
    dcols = (dy @ w.reshape(k * c_in, c_out).T).reshape(t_out, k, c_in)
    dxp = np.zeros((t_in + 2 * padding, c_in))
    for j in range(k):
        dxp[j : j + span : stride] += dcols[:, j]
    dx = dxp[padding : padding + t_in]
    dw = (cols.T @ dy).reshape(k, c_in, c_out)
    return dx, {"w": dw, "b": dy.sum(axis=0)}


# ----------------------------------------------------------- depthwise conv1d

def depthwise_conv1d_forward(x, w, b, padding):
    """Per-channel temporal conv, stride 1. x: (T, C), w: (k, C)."""
    t_in, c = x.shape
    k, kc = w.shape
    if kc != c:
        raise InvalidInputError(f"depthwise kernel expects {kc} channels, got {c}")
    _check_stride_padding(1, padding)
    if t_in + 2 * padding < k:
        raise InvalidInputError("kernel wider than padded input")
    xp = _zero_pad(x, padding)
    y = np.einsum("tck,kc->tc", sliding_window_view(xp, k, axis=0), w) + b
    return y, (xp, w, padding)


def depthwise_conv1d_backward(dy, cache):
    xp, w, padding = cache
    k = w.shape[0]
    t_in = xp.shape[0] - 2 * padding
    # dx is dy, zero-extended by k - 1 steps, correlated with the reversed taps
    dyp = _zero_pad(dy, k - 1)[padding : padding + t_in + k - 1]
    dx = np.einsum("tck,kc->tc", sliding_window_view(dyp, k, axis=0), w[::-1])
    dw = np.einsum("tck,tc->kc", sliding_window_view(xp, k, axis=0), dy)
    return dx, {"w": dw, "b": dy.sum(axis=0)}


# ------------------------------------------------- depthwise-separable conv2d

def depthwise_separable_conv2d_forward(x, dw_kernel, pw_weight, pw_bias):
    """Per-channel k x k spatial conv, then 1x1 channel mixing.

    x: (H, W, C); dw_kernel: (k, k, C); pw_weight: (C, Cout). Stride 1 with
    same padding, so the spatial shape is preserved. k must be odd.
    """
    h, w_dim, c = x.shape
    k, k2, kc = dw_kernel.shape
    if k != k2 or k % 2 == 0:
        raise InvalidInputError("depthwise kernel must be square with odd size")
    if kc != c or pw_weight.shape[0] != c:
        raise InvalidInputError("channel counts inconsistent")
    pad = (k - 1) // 2
    xp = _zero_pad(x, pad, 2)
    patches = sliding_window_view(xp, (k, k), axis=(0, 1))    # (H, W, C, k, k)
    spatial = np.einsum("hwcab,abc->hwc", patches, dw_kernel)
    y = spatial @ pw_weight + pw_bias
    return y, (patches, spatial, dw_kernel, pw_weight)


def depthwise_separable_conv2d_backward(dy, cache):
    patches, spatial, dw_kernel, pw_weight = cache
    k = dw_kernel.shape[0]
    pad = (k - 1) // 2
    c, c_out = pw_weight.shape
    d_pw = spatial.reshape(-1, c).T @ dy.reshape(-1, c_out)
    d_bias = dy.reshape(-1, c_out).sum(axis=0)
    d_spatial = dy @ pw_weight.T
    d_dw = np.einsum("hwcab,hwc->abc", patches, d_spatial)
    # same padding: dx is d_spatial correlated with the kernel turned 180 degrees
    dsp = _zero_pad(d_spatial, pad, 2)
    d_patches = sliding_window_view(dsp, (k, k), axis=(0, 1))
    dx = np.einsum("hwcab,abc->hwc", d_patches, dw_kernel[::-1, ::-1])
    return dx, {"dw_kernel": d_dw, "pw_weight": d_pw, "pw_bias": d_bias}


# ------------------------------------------------------------- self-attention

def multi_head_self_attention_forward(x, params, n_heads):
    """Scaled dot-product self-attention; scale is 1/sqrt(model_dim/n_heads)."""
    t, d = x.shape
    if d % n_heads != 0:
        raise InvalidInputError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    def split(m):
        return m.reshape(t, n_heads, dh).transpose(1, 0, 2)

    q = split(x @ params["wq"] + params["bq"])
    k = split(x @ params["wk"] + params["bk"])
    v = split(x @ params["wv"] + params["bv"])
    # softmax(q k^T * scale) row by row, in the one (heads, T, T) buffer
    attn = q @ k.transpose(0, 2, 1)
    attn *= scale
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(1, 0, 2).reshape(t, d)
    y = ctx @ params["wo"] + params["bo"]
    return y, (x, q, k, v, attn, ctx, params, n_heads, scale)


def multi_head_self_attention_backward(dy, cache):
    x, q, k, v, attn, ctx, params, n_heads, scale = cache
    t, d = x.shape
    dh = d // n_heads

    def merge(m):
        return m.transpose(1, 0, 2).reshape(t, d)

    grads = {"wo": ctx.T @ dy, "bo": dy.sum(axis=0)}
    dctx = (dy @ params["wo"].T).reshape(t, n_heads, dh).transpose(1, 0, 2)
    dattn = dctx @ v.transpose(0, 2, 1)
    dv = attn.transpose(0, 2, 1) @ dctx
    dscores = softmax_backward(dattn, attn) * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 2, 1) @ q

    dq2, dk2, dv2 = merge(dq), merge(dk), merge(dv)
    grads["wq"], grads["bq"] = x.T @ dq2, dq2.sum(axis=0)
    grads["wk"], grads["bk"] = x.T @ dk2, dk2.sum(axis=0)
    grads["wv"], grads["bv"] = x.T @ dv2, dv2.sum(axis=0)
    dx = dq2 @ params["wq"].T + dk2 @ params["wk"].T + dv2 @ params["wv"].T
    return dx, grads


# ------------------------------------------------------------------------ GRU

def _gru_stack(params, prefix):
    """[prefix z | prefix r | prefix n] side by side along the last axis, as
    float64, so the per-step h @ U products never widen a float32 U again."""
    return np.concatenate([params[prefix + g] for g in "zrn"], axis=-1,
                          dtype=np.float64)


def gru_sequence_forward(xs, params):
    """GRU over a (T, D) sequence from a zero state: z and r gates, candidate
    n, and h_t = (1 - z) * n + z * h_prev; returns the final state h_T. The
    input projections of every step are one product; each step makes one
    h @ [Uz|Ur|Un] product."""
    t = xs.shape[0]
    hidden = params["bz"].shape[0]
    ax = xs @ _gru_stack(params, "w") + _gru_stack(params, "b")   # (T, 3H)
    u = _gru_stack(params, "u")
    hs = np.zeros((t + 1, hidden))          # hs[i] is the state before step i
    zr = np.empty((t, 2 * hidden))
    n = np.empty((t, hidden))
    hn = np.empty((t, hidden))
    for i in range(t):
        hu = hs[i] @ u
        zr[i] = sigmoid(ax[i, : 2 * hidden] + hu[: 2 * hidden])
        hn[i] = hu[2 * hidden :]
        n[i] = np.tanh(ax[i, 2 * hidden :] + zr[i, hidden:] * hn[i])
        hs[i + 1] = n[i] + zr[i, :hidden] * (hs[i] - n[i])
    return hs[t].copy(), (xs, hs, zr, n, hn, params)


def gru_sequence_backward(dy, cache):
    xs, hs, zr, n, hn, params = cache
    t, hidden = n.shape
    h_prev = hs[:-1]
    z, r = zr[:, :hidden], zr[:, hidden:]
    # dh_t / d(pre-activation) of each gate, from the forward values alone
    g_n = (1.0 - z) * (1.0 - n * n)
    g_z = (h_prev - n) * z * (1.0 - z)
    g_r = g_n * hn * r * (1.0 - r)
    # gradient w.r.t. h_prev through [Uz|Ur|Un]; the n gate sees r * (h @ Un)
    g_u = np.stack([g_z, g_r, g_n * r], axis=1)           # (T, 3, H)
    u_t = _gru_stack(params, "u").T
    dh_steps = np.empty((t, hidden))
    dh_steps[-1] = dy
    for i in range(t - 1, 0, -1):  # the zero start state takes no gradient
        dh = dh_steps[i]
        dh_steps[i - 1] = dh * z[i] + (g_u[i] * dh).reshape(-1) @ u_t
    d_u = (g_u * dh_steps[:, None, :]).reshape(t, 3 * hidden)
    d_a = d_u.copy()
    d_a[:, 2 * hidden :] = dh_steps * g_n
    dxs = d_a @ _gru_stack(params, "w").T
    d_w = xs.T @ d_a
    d_uw = h_prev.T @ d_u
    d_b = d_a.sum(axis=0)
    grads = {}
    for j, g in enumerate("zrn"):
        cols = slice(j * hidden, (j + 1) * hidden)
        grads["w" + g], grads["u" + g] = d_w[:, cols], d_uw[:, cols]
        grads["b" + g] = d_b[cols]
    return dxs, grads


def bigru_forward(xs, fwd, bwd):
    """Run both directions over a (T, D) sequence; the output is the final
    state concat(fwd h_T, bwd h_1)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise InvalidInputError("bigru needs a non-empty (T, D) sequence")
    hf, cache_f = gru_sequence_forward(xs, fwd)
    hb, cache_b = gru_sequence_forward(xs[::-1], bwd)
    return np.concatenate([hf, hb]), (cache_f, cache_b)


def bigru_backward(dy, cache):
    cache_f, cache_b = cache
    hidden = len(dy) // 2
    dxs_f, grads_f = gru_sequence_backward(dy[:hidden], cache_f)
    dxs_b, grads_b = gru_sequence_backward(dy[hidden:], cache_b)
    return dxs_f + dxs_b[::-1], {"fwd": grads_f, "bwd": grads_b}


# ------------------------------------------------------------- initialization

def xavier_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_linear(rng, d_in, d_out):
    return {"w": xavier_uniform(rng, (d_in, d_out), d_in, d_out),
            "b": np.zeros(d_out)}


def init_conv1d(rng, k, c_in, c_out):
    return {"w": xavier_uniform(rng, (k, c_in, c_out), k * c_in, k * c_out),
            "b": np.zeros(c_out)}


def init_attention(rng, d):
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = xavier_uniform(rng, (d, d), d, d)
        p["b" + name[1]] = np.zeros(d)
    return p


def init_gru(rng, d_in, hidden):
    p = {}
    for gate in "zrn":
        p["w" + gate] = xavier_uniform(rng, (d_in, hidden), d_in, hidden)
        p["u" + gate] = xavier_uniform(rng, (hidden, hidden), hidden, hidden)
        p["b" + gate] = np.zeros(hidden)
    return p


def init_bigru(rng, d_in, hidden):
    return {"fwd": init_gru(rng, d_in, hidden), "bwd": init_gru(rng, d_in, hidden)}


def init_depthwise_conv1d(rng, k, c):
    return {"w": xavier_uniform(rng, (k, c), k, k), "b": np.zeros(c)}


def init_depthwise_separable(rng, k, c, c_out):
    return {
        "dw_kernel": xavier_uniform(rng, (k, k, c), k * k, k * k),
        "pw_weight": xavier_uniform(rng, (c, c_out), c, c_out),
        "pw_bias": np.zeros(c_out),
    }


def init_layer_norm(d):
    return {"gain": np.ones(d), "bias": np.zeros(d)}


# ----------------------------------------------------------- gradient checker

def grad_check(loss_fn, arrays, analytic, max_entries=None, rng=None):
    """Max relative error of analytic grads vs central finite differences
    with step GRAD_CHECK_STEP.

    `loss_fn` is a zero-argument callable closing over `arrays`; entries are
    perturbed in place and restored. With `max_entries`, that many entries per
    array are sampled (seeded `rng` required) instead of sweeping all of them.
    """
    worst = 0.0
    for name, arr in arrays.items():
        g = analytic[name]
        if not np.all(np.isfinite(g)):
            raise DataError(f"non-finite analytic gradient for {name!r}")
        n = arr.size
        if max_entries is not None and n > max_entries:
            entries = rng.choice(n, size=max_entries, replace=False)
        else:
            entries = range(n)
        for idx in entries:
            orig = arr.flat[idx]
            arr.flat[idx] = orig + GRAD_CHECK_STEP
            up = loss_fn()
            arr.flat[idx] = orig - GRAD_CHECK_STEP
            down = loss_fn()
            arr.flat[idx] = orig
            numeric = (up - down) / (2.0 * GRAD_CHECK_STEP)
            # Floor guards exact-zero gradients (e.g. attention key bias)
            # against central-difference roundoff blowing up the ratio.
            denom = max(1e-6, abs(g.flat[idx]) + abs(numeric))
            worst = max(worst, abs(g.flat[idx] - numeric) / denom)
    return worst


# -------------------------------------------------------------- serialization

def flatten_params(params, prefix=""):
    """Nested dicts of arrays -> flat dict with dot-joined keys."""
    flat = {}
    for key, value in params.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_params(value, name + "."))
        else:
            flat[name] = np.asarray(value)
    return flat


def unflatten_params(flat):
    nested: dict = {}
    for name, value in flat.items():
        parts = name.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise FormatError(f"parameter {name!r} nests under another leaf")
        if isinstance(node.get(parts[-1]), dict):
            raise FormatError(f"parameter {name!r} is also a group of leaves")
        node[parts[-1]] = value
    return nested


def save_params(path, params):
    """Single binary file: magic, u32 version, then little-endian records of
    (u32 name length, utf-8 name, u8 dtype tag, u8 rank, u32 dims, payload).

    A regular file, or a new one, is written to a temporary file beside it
    and renamed over it, so a tree that `load_params` mapped from the old file
    keeps its values; the temporary file is removed if the write fails. A path
    that exists and is not a regular file, such as a pipe, is written in
    place. A symbolic link is followed, as opening the path would."""
    flat = flatten_params(params)
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as fh:
            _write_params(fh, flat)
        return
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")  # fails before there is anything to remove
    try:
        with fh:
            _write_params(fh, flat)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _write_params(fh, flat):
    fh.write(PARAMS_MAGIC)
    fh.write(struct.pack("<I", PARAMS_VERSION))
    for name in sorted(flat):
        arr = flat[name]
        tag = _DTYPE_TO_TAG.get(arr.dtype, 1)
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<BB", tag, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[tag]).tobytes())


def load_params(path):
    """Read a `save_params` file into a tree whose leaves keep their records'
    stored dtype (float32 or float64); the kernels widen a float32 weight
    where they use it. A regular file is mapped read-only and each leaf is a
    view into the mapping, so no payload is copied; a pipe, whose size is
    unknown until its end, or an empty file is read whole. Either way the
    leaves are read-only.

    The mapping shows later writes to the file, and reading a leaf faults
    once the file is truncated under it; `save_params` replaces a file
    instead of rewriting it for that reason."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            buf = fh.read()
    return _parse_params(memoryview(buf))


def _parse_params(buf):
    size = len(buf)
    if buf[:4] != PARAMS_MAGIC:
        raise FormatError("bad parameter-file magic", offset=0)
    if size < 8:
        raise FormatError("truncated header", offset=4)
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != PARAMS_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)

    flat = {}
    pos = 8
    while pos < size:
        start = pos
        # each field is unpacked from a slice, which a field running past the
        # end leaves short, so struct names the bytes the field needed
        try:
            (name_len,) = struct.unpack("<I", buf[pos:pos + 4])
            pos += 4
            try:
                name = str(buf[pos:pos + name_len], "utf-8")
            except UnicodeDecodeError:
                raise FormatError("record name is not UTF-8", offset=pos) from None
            pos += name_len
            tag, rank = struct.unpack("<BB", buf[pos:pos + 2])
            pos += 2
            dims = struct.unpack(f"<{rank}I", buf[pos:pos + 4 * rank])
            pos += 4 * rank
        except struct.error as exc:
            raise FormatError(f"malformed record: {exc}", offset=start) from None
        if tag not in _TAG_TO_DTYPE:
            raise FormatError(f"unknown dtype tag {tag}", offset=start)
        dtype = np.dtype(_TAG_TO_DTYPE[tag])
        nbytes = math.prod(dims) * dtype.itemsize
        if pos + nbytes > size:
            raise FormatError("record payload truncated", offset=start)
        try:
            arr = np.frombuffer(buf[pos:pos + nbytes], dtype=dtype).reshape(dims)
        except ValueError:  # an empty shape whose other dims overflow
            raise FormatError(f"record dims {dims} too large", offset=start) from None
        pos += nbytes
        if name in flat:
            raise FormatError(f"record {name!r} repeats", offset=start)
        flat[name] = arr
    return unflatten_params(flat)
