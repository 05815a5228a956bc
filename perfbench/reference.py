"""Independent float64 references for the output checks.

Written from the method's definitions with NumPy alone; nothing here
imports `auscult`. The front end uses `np.fft.rfft` and builds its own
triangular mel filterbank; the Rene forward reads the same nested parameter
dict the program loads, but computes every layer itself.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------- front end

def log_mel(samples, sample_rate=16000, alpha=0.97, win_ms=25.0, hop_ms=10.0,
            n_mels=80, f_min=50.0, f_max=2500.0, n_fft=512):
    """Preemphasis, Hamming frames, rfft power, HTK-mel triangles, log, and
    per-clip min-max scaling to [-1, 1]."""
    x = np.asarray(samples, dtype=np.float64)
    y = np.concatenate([x[:1], x[1:] - alpha * x[:-1]])
    win = int(round(win_ms * sample_rate / 1000.0))
    hop = int(round(hop_ms * sample_rate / 1000.0))
    n_frames = (len(y) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(y, win)[::hop][:n_frames]
    n = np.arange(win)
    window = 0.53836 - 0.46164 * np.cos(2.0 * np.pi * n / (win - 1))
    power = np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1)) ** 2

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges_mel = np.linspace(mel(f_min), mel(f_max), n_mels + 2)
    edges_hz = 700.0 * (10.0 ** (edges_mel / 2595.0) - 1.0)
    freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    bank = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, mid, hi = edges_hz[m:m + 3]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    energies = np.log(power @ bank.T + 1e-10)
    lo, hi = energies.min(), energies.max()
    if hi - lo < 1e-12:
        return np.zeros_like(energies)
    return 2.0 * (energies - lo) / (hi - lo) - 1.0


# ------------------------------------------------------------------- layers

def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x, p, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return p["gain"] * (x - mu) / np.sqrt(var + eps) + p["bias"]


def linear(x, p):
    return x @ p["w"] + p["b"]


def conv1d(x, p, stride, pad):
    """out[t] = b + sum_j x[t*stride + j - pad] @ w[j], zero padded."""
    w = p["w"]
    k = w.shape[0]
    xp = np.pad(x, ((pad, pad), (0, 0)))
    t_out = (xp.shape[0] - k) // stride + 1
    out = np.zeros((t_out, w.shape[2])) + p["b"]
    for j in range(k):
        out += xp[j:j + stride * (t_out - 1) + 1:stride] @ w[j]
    return out


def depthwise_conv1d(x, p):
    w = p["w"]
    k = w.shape[0]
    pad = (k - 1) // 2
    xp = np.pad(x, ((pad, pad), (0, 0)))
    out = np.zeros_like(x) + p["b"]
    for j in range(k):
        out += xp[j:j + x.shape[0]] * w[j]
    return out


def attention(x, p, n_heads):
    t, d = x.shape
    dh = d // n_heads
    q, k, v = (x @ p[f"w{c}"] + p[f"b{c}"] for c in "qkv")
    ctx = np.empty_like(x)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        weights = softmax(q[:, cols] @ k[:, cols].T / math.sqrt(dh))
        ctx[:, cols] = weights @ v[:, cols]
    return ctx @ p["wo"] + p["bo"]


def feed_forward(x, p):
    return linear(gelu(linear(layer_norm(x, p["ln"]), p["lin1"])), p["lin2"])


def positions(t, d):
    pos = np.arange(t)[:, None]
    freq = 10000.0 ** (-np.arange(0, d, 2) / d)
    table = np.zeros((t, d))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def gru_final(xs, p):
    h = np.zeros(p["bz"].shape[0])
    for x in xs:
        z = sigmoid(x @ p["wz"] + h @ p["uz"] + p["bz"])
        r = sigmoid(x @ p["wr"] + h @ p["ur"] + p["br"])
        n = np.tanh(x @ p["wn"] + r * (h @ p["un"]) + p["bn"])
        h = (1.0 - z) * n + z * h
    return h


def separable_conv2d(x, p):
    """Per-channel k x k same-padded correlation, then 1x1 channel mixing."""
    kern = p["dw_kernel"]
    k = kern.shape[0]
    pad = k // 2
    rows, cols, _ = x.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    spatial = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            spatial += xp[i:i + rows, j:j + cols] * kern[i, j]
    return spatial @ p["pw_weight"] + p["pw_bias"]


# -------------------------------------------------------------------- model

def rene_forward(frames, params, heads, trial_kernels):
    """(T, n_mels) features to (stage outputs, probabilities).

    heads = (encoder heads, conformer heads); trial_kernels = (left, right).
    """
    stages = {}
    enc = params["encoder"]
    h = gelu(conv1d(frames, enc["conv1"], 1, 1))
    h = gelu(conv1d(h, enc["conv2"], 2, 1))
    h = h + positions(*h.shape)
    n_blocks = sum(1 for key in enc if key.startswith("block"))
    for i in range(n_blocks):
        block = enc[f"block{i}"]
        h = h + attention(layer_norm(h, block["attn"]["ln"]), block["attn"]["mhsa"],
                          heads[0])
        h = h + feed_forward(h, block["ff"])
    h = layer_norm(h, enc["ln_final"])
    stages["whisper_encoder"] = h.shape

    sub = params["subsample"]
    h = gelu(conv1d(h, sub["conv1"], 2, 1))
    h = gelu(conv1d(h, sub["conv2"], 2, 1))
    h = linear(h, sub["proj"])
    for i in range(len(params["conformer"])):
        b = params["conformer"][f"block{i}"]
        h = h + 0.5 * feed_forward(h, b["ff1"])
        h = h + attention(layer_norm(h, b["attn"]["ln"]), b["attn"]["mhsa"], heads[1])
        c = b["conv"]
        m = gelu(linear(layer_norm(h, c["ln_pre"]), c["pw1"]))
        m = linear(layer_norm(depthwise_conv1d(m, c["dw"]), c["ln_mid"]), c["pw2"])
        h = h + m
        h = h + 0.5 * feed_forward(h, b["ff2"])
        h = layer_norm(h, b["ln_final"])
    stages["conformer_encoder"] = h.shape

    state = np.concatenate([gru_final(h, params["bigru"]["fwd"]),
                            gru_final(h[::-1], params["bigru"]["bwd"])])
    stages["decoder_state"] = state.shape
    n = state.size
    cols = max(c for c in range(1, math.isqrt(n) + 1) if n % c == 0)
    fmap = state.reshape(n // cols, cols)
    stages["feature_map"] = fmap.shape

    trial = params["trial"]
    x = fmap[:, :, None]
    width = trial["head"]["w"].shape[0]
    merged = np.repeat(x, width, axis=2)
    for side, kernels in zip(("left", "right"), trial_kernels):
        b = x
        for i in range(len(kernels)):
            b = gelu(separable_conv2d(b, trial[f"{side}{i}"]))
        merged = merged + b
    logits = linear(merged.mean(axis=(0, 1)), trial["head"])
    stages["logits"] = logits.shape
    return stages, softmax(logits)
