"""Release acceptance gate.

One test per criterion, in order. Each records a single [PASS]/[FAIL]
verdict line; the conftest summary hook prints the collected checklist
after the run, past pytest's capture. Assertion details still surface
through pytest itself. Run with: pytest tests/test_acceptance.py -v
"""
import functools
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_VERDICTS

from auscult import model, nn, training
from auscult.data import synthetic_tone_noise_dataset
from auscult.emr import (
    GbdtParams,
    gbdt_fit,
    gbdt_predict_proba,
    gain_importance,
    impute_median,
    read_emr_csv,
    select_k,
    silhouette,
    smote_oversample,
    zscore,
)
from auscult.frontend import (
    AudioSignal,
    frame_signal,
    hz_to_mel,
    mel_to_hz,
    spectrum,
)
from auscult.fusion import (
    ConfusionCounts,
    ProbabilityVector,
    alpha_sweep,
    compute_metrics,
    fuse_probabilities,
)
from auscult.stream import RingBuffer, SessionConfig, replay_offline, run_session
from auscult.training import TrainConfig, train_toy, training_accuracy


def _verdict(status, num, label, t0, note=""):
    elapsed = time.perf_counter() - t0
    line = f"[{status}] criterion {num:2d}: {label} ({elapsed:.1f}s)"
    if note:
        line += f" -- {note}"
    ACCEPTANCE_VERDICTS.append(line)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                _verdict("SKIP", num, label, t0, str(exc))
                raise
            except BaseException:
                _verdict("FAIL", num, label, t0)
                raise
            _verdict("PASS", num, label, t0)
        return wrapper
    return deco


# ------------------------------------------------------------- criterion 1

@criterion(1, "focal loss down-weighting factors")
def test_criterion_01_focal_factors():
    probs_easy = np.array([0.9, 0.1])
    probs_easier = np.array([0.968, 0.032])
    training.focal_loss(probs_easy, 0, 2.0)  # warm up before timing
    t0 = time.perf_counter()
    ratio_90 = training.focal_loss(probs_easy, 0, 2.0) / training.cross_entropy(
        probs_easy, 0
    )
    ratio_968 = training.focal_loss(probs_easier, 0, 2.0) / training.cross_entropy(
        probs_easier, 0
    )
    elapsed = time.perf_counter() - t0
    assert ratio_90 == pytest.approx(0.01, rel=1e-12)
    assert ratio_968 == pytest.approx(1.024e-3, rel=1e-9)
    # the hundredfold and roughly-thousandfold attenuation claims
    assert abs(ratio_968 - 1e-3) / 1e-3 < 0.05
    assert elapsed < 1e-3


# ------------------------------------------------------------- criterion 2

@criterion(2, "challenge metric identities on hand-tallied counts")
def test_criterion_02_metric_identities():
    counts = ConfusionCounts(
        correct=np.array([50, 20, 10]), totals=np.array([60, 25, 15]), normal_class=0
    )
    m = compute_metrics(counts)
    assert m.se == pytest.approx(0.7500, abs=5e-5)
    assert m.sp == pytest.approx(0.8333, abs=5e-5)
    assert m.as_score == pytest.approx(0.7917, abs=5e-5)
    assert m.hs == pytest.approx(0.7895, abs=5e-5)
    assert m.final_score == pytest.approx(0.7906, abs=5e-5)

    perfect = compute_metrics(
        ConfusionCounts(
            correct=np.array([7, 3, 2]), totals=np.array([7, 3, 2]), normal_class=0
        )
    )
    assert perfect.se == perfect.sp == 1.0
    assert perfect.as_score == perfect.hs == perfect.final_score == 1.0


# ------------------------------------------------------------- criterion 3

@criterion(3, "fusion endpoints, sweep length, simplex closure")
def test_criterion_03_fusion():
    rng = np.random.default_rng(100)
    labels = ("normal", "crackle", "wheeze", "both")

    for _ in range(200):
        a = ProbabilityVector(rng.dirichlet(np.ones(4)), labels)
        b = ProbabilityVector(rng.dirichlet(np.ones(4)), labels)
        np.testing.assert_array_equal(fuse_probabilities(a, b, 1.0).probs, a.probs)
        np.testing.assert_array_equal(fuse_probabilities(a, b, 0.0).probs, b.probs)

    # 10^4 random simplex pairs stay on the simplex after fusing
    for _ in range(10_000):
        dim = int(rng.integers(2, 7))
        names = tuple(f"c{i}" for i in range(dim))
        a = ProbabilityVector(rng.dirichlet(np.ones(dim)), names)
        b = ProbabilityVector(rng.dirichlet(np.ones(dim)), names)
        fused = fuse_probabilities(a, b, float(rng.uniform()))
        assert fused.probs.min() >= 0.0
        assert abs(float(fused.probs.sum()) - 1.0) <= 1e-9

    three = labels[:3]
    truths = [int(rng.integers(0, 3)) for _ in range(24)]
    p_a = [ProbabilityVector(rng.dirichlet(np.ones(3)), three) for _ in truths]
    p_b = [ProbabilityVector(rng.dirichlet(np.ones(3)), three) for _ in truths]
    rows = alpha_sweep(p_a, p_b, truths, normal_class=0)
    assert len(rows) == 11
    assert [alpha for alpha, _ in rows] == [step / 10.0 for step in range(11)]


# ------------------------------------------------------------- criterion 4

@criterion(4, "DSP oracles: naive DFT, Parseval, mel round trip, frame count")
def test_criterion_04_dsp_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n_fft = 512
    idx = np.arange(n_fft)
    basis = np.exp(-2j * np.pi * np.outer(idx, idx) / n_fft)  # direct DFT matrix

    frames = rng.uniform(-1.0, 1.0, (1000, 400))
    padded = np.concatenate([frames, np.zeros((1000, n_fft - 400))], axis=1)
    reference = padded @ basis  # symmetric matrix, so rows transform in place

    spectra = np.stack([spectrum(frames[i], n_fft) for i in range(1000)])
    np.testing.assert_allclose(spectra, reference, atol=1e-9)

    energy_time = np.sum(padded**2, axis=1)
    energy_freq = np.sum(np.abs(spectra) ** 2, axis=1) / n_fft
    np.testing.assert_allclose(energy_freq, energy_time, rtol=1e-8)

    hz = np.linspace(0.0, 8000.0, 20001)
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(hz)), hz, atol=1e-9)

    ten_seconds = AudioSignal(samples=np.zeros(160000), sample_rate=16000)
    assert frame_signal(ten_seconds).shape[0] == 998

    assert time.perf_counter() - t0 < 10.0


# ------------------------------------------------------------- criterion 5

def _silhouette_double_loop(points, assignments):
    # literal three-case definition, kept independent of the production code
    n = len(points)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = math.sqrt(float(((points[i] - points[j]) ** 2).sum()))
    scores = np.zeros(n)
    for i in range(n):
        own = assignments[i]
        same = [j for j in range(n) if assignments[j] == own and j != i]
        if not same:
            scores[i] = 0.0
            continue
        a = sum(dist[i, j] for j in same) / len(same)
        b = math.inf
        for other in set(assignments):
            if other == own:
                continue
            members = [j for j in range(n) if assignments[j] == other]
            b = min(b, sum(dist[i, j] for j in members) / len(members))
        if a < b:
            scores[i] = 1.0 - a / b
        elif a > b:
            scores[i] = b / a - 1.0
        else:
            scores[i] = 0.0
    return scores


@criterion(5, "silhouette equals the direct double-loop definition")
def test_criterion_05_silhouette_oracle():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    scores, _ = silhouette(points, np.array([0, 0, 1, 1]))
    assert scores[0] == pytest.approx(0.90476, abs=1e-5)

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 31))
        k = int(rng.integers(2, min(5, n) + 1))
        pts = rng.standard_normal((n, int(rng.integers(1, 4))))
        assignments = rng.integers(0, k, size=n)
        if len(np.unique(assignments)) < 2:
            assignments[0] = 0
            assignments[1] = 1
        got_scores, got_mean = silhouette(pts, assignments)
        expected = _silhouette_double_loop(pts, assignments)
        np.testing.assert_allclose(got_scores, expected, atol=1e-12)
        assert got_mean == pytest.approx(expected.mean(), abs=1e-12)


# ------------------------------------------------------------- criterion 6

TINY = model.ReneConfig(
    whisper_layers=1, whisper_dim=8, whisper_heads=2,
    conformer_layers=1, conformer_dim=8, conformer_heads=2,
    bigru_hidden=8, n_classes=3,
    trial_kernel_sizes=((3,), (), (3,)), trial_channels=2,
)


@criterion(6, "finite-difference gradient checks, every layer and end to end")
def test_criterion_06_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    layer_errs = {}

    x = rng.standard_normal(20)
    cy = rng.standard_normal(20)
    _, cache = nn.gelu_forward(x)
    dx = nn.gelu_backward(cy, cache)
    layer_errs["gelu"] = nn.grad_check(
        lambda: float(np.sum(nn.gelu_forward(x)[0] * cy)), {"x": x}, {"x": dx}
    )

    x = rng.standard_normal(11)
    cy = rng.standard_normal(11)
    dx = nn.softmax_backward(cy, nn.softmax(x))
    layer_errs["softmax"] = nn.grad_check(
        lambda: float(np.sum(nn.softmax(x) * cy)), {"x": x}, {"x": dx}
    )

    x = rng.standard_normal((3, 8))
    gain = rng.standard_normal(8)
    bias = rng.standard_normal(8)
    cy = rng.standard_normal((3, 8))
    _, cache = nn.layer_norm_forward(x, gain, bias)
    dx, grads = nn.layer_norm_backward(cy, cache)
    layer_errs["layer_norm"] = nn.grad_check(
        lambda: float(np.sum(nn.layer_norm_forward(x, gain, bias)[0] * cy)),
        {"x": x, "gain": gain, "bias": bias},
        {"x": dx, "gain": grads["gain"], "bias": grads["bias"]},
    )

    x = rng.standard_normal((5, 4))
    p = nn.init_linear(rng, 4, 3)
    cy = rng.standard_normal((5, 3))
    _, cache = nn.linear_forward(x, p["w"], p["b"])
    dx, grads = nn.linear_backward(cy, cache)
    layer_errs["linear"] = nn.grad_check(
        lambda: float(np.sum(nn.linear_forward(x, p["w"], p["b"])[0] * cy)),
        {"x": x, "w": p["w"], "b": p["b"]},
        {"x": dx, "w": grads["w"], "b": grads["b"]},
    )

    x = rng.standard_normal((12, 3))
    p = nn.init_conv1d(rng, 3, 3, 2)
    y, cache = nn.conv1d_forward(x, p["w"], p["b"], 2, 1)
    cy = rng.standard_normal(y.shape)
    dx, grads = nn.conv1d_backward(cy, cache)
    layer_errs["conv1d"] = nn.grad_check(
        lambda: float(np.sum(nn.conv1d_forward(x, p["w"], p["b"], 2, 1)[0] * cy)),
        {"x": x, "w": p["w"], "b": p["b"]},
        {"x": dx, "w": grads["w"], "b": grads["b"]},
    )

    x = rng.standard_normal((9, 3))
    p = nn.init_depthwise_conv1d(rng, 5, 3)
    y, cache = nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=2)
    cy = rng.standard_normal(y.shape)
    dx, grads = nn.depthwise_conv1d_backward(cy, cache)
    layer_errs["depthwise_conv1d"] = nn.grad_check(
        lambda: float(
            np.sum(nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=2)[0] * cy)
        ),
        {"x": x, "w": p["w"], "b": p["b"]},
        {"x": dx, "w": grads["w"], "b": grads["b"]},
    )

    x = rng.standard_normal((5, 4, 3))
    p = nn.init_depthwise_separable(rng, 3, 3, 2)
    y, cache = nn.depthwise_separable_conv2d_forward(
        x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
    )
    cy = rng.standard_normal(y.shape)
    dx, grads = nn.depthwise_separable_conv2d_backward(cy, cache)
    layer_errs["ds_conv2d"] = nn.grad_check(
        lambda: float(
            np.sum(
                nn.depthwise_separable_conv2d_forward(
                    x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
                )[0]
                * cy
            )
        ),
        {"x": x, **p},
        {"x": dx, **grads},
    )

    x = rng.standard_normal((4, 8))
    p = nn.init_attention(rng, 8)
    y, cache = nn.multi_head_self_attention_forward(x, p, 2)
    cy = rng.standard_normal(y.shape)
    dx, grads = nn.multi_head_self_attention_backward(cy, cache)
    layer_errs["attention"] = nn.grad_check(
        lambda: float(np.sum(nn.multi_head_self_attention_forward(x, p, 2)[0] * cy)),
        {"x": x, **p},
        {"x": dx, **grads},
    )

    p = nn.init_gru(rng, 3, 4)
    xs = rng.standard_normal((4, 3))
    cy = rng.standard_normal(4)
    _, cache = nn.gru_sequence_forward(xs, p)
    dxs, grads = nn.gru_sequence_backward(cy, cache)
    layer_errs["gru"] = nn.grad_check(
        lambda: float(np.sum(nn.gru_sequence_forward(xs, p)[0] * cy)),
        {**p, "x": xs},
        {**grads, "x": dxs},
    )

    p = nn.init_bigru(rng, 3, 4)
    xs = rng.standard_normal((3, 3))
    final, cache = nn.bigru_forward(xs, **p)
    cf = rng.standard_normal(final.shape)
    dxs, grads = nn.bigru_backward(cf, cache)
    arrays = {"x": xs}
    analytic = {"x": dxs}
    for d in ("fwd", "bwd"):
        for k in p[d]:
            arrays[f"{d}.{k}"] = p[d][k]
            analytic[f"{d}.{k}"] = grads[d][k]

    def bigru_loss():
        return float(np.sum(nn.bigru_forward(xs, **p)[0] * cf))

    layer_errs["bigru"] = nn.grad_check(bigru_loss, arrays, analytic)

    for name, err in layer_errs.items():
        assert err <= 1e-4, f"{name} gradient error {err:.3e}"

    # end to end, sampled parameter entries
    params = model.init_rene(TINY, seed=32, n_mels=5)
    frames = np.random.default_rng(33).uniform(-1, 1, (12, 5))
    weights = np.random.default_rng(33).standard_normal(TINY.n_classes)

    def end_to_end_loss():
        out, _ = model.rene_apply(frames, params, TINY)
        return float(np.sum(out.logits * weights))

    _, cache = model.rene_apply(frames, params, TINY)
    grads = model.rene_grad(weights, cache, params, TINY)
    err = nn.grad_check(
        end_to_end_loss,
        nn.flatten_params(params),
        nn.flatten_params(grads),
        max_entries=2,
        rng=np.random.default_rng(34),
    )
    assert err <= 1e-3, f"end-to-end gradient error {err:.3e}"

    assert time.perf_counter() - t0 < 60.0


# ------------------------------------------------------------- criterion 7

@criterion(7, "preset architecture audit and toy parameter budget")
def test_criterion_07_architecture_audit():
    small = model.preset_config("rene_s")
    assert (small.whisper_layers, small.whisper_dim, small.whisper_heads) == (4, 384, 6)
    assert (small.conformer_layers, small.conformer_dim, small.conformer_heads) == (
        16, 256, 4,
    )
    assert small.bigru_hidden == 512

    large = model.preset_config("rene_l")
    assert (large.whisper_layers, large.whisper_dim, large.whisper_heads) == (
        32, 1280, 20,
    )
    assert (large.conformer_layers, large.conformer_dim, large.conformer_heads) == (
        17, 512, 8,
    )
    assert large.bigru_hidden == 512

    for cfg in (small, large):
        shapes = model.audit_shapes(cfg, n_frames=998)
        assert shapes["input"] == (998, 80)
        assert shapes["whisper_encoder"] == (499, cfg.whisper_dim)
        assert shapes["conformer_encoder"] == (125, cfg.conformer_dim)
        assert shapes["decoder_state"] == (1024,)
        assert shapes["feature_map"] == (32, 32)
        assert shapes["logits"] == (cfg.n_classes,)
        assert shapes["probs"] == (cfg.n_classes,)

    toy = model.preset_config("toy")
    assert model.estimate_parameter_count(toy) < 2_000_000
    # the analytic count must agree with an actual instantiation
    assert model.estimate_parameter_count(toy) == model.count_parameters(
        model.init_rene(toy, seed=7)
    )


# ------------------------------------------------------------- criterion 8

@criterion(8, "toy model learns tone vs noise within budget")
def test_criterion_08_toy_learnability():
    t0 = time.perf_counter()
    dataset = synthetic_tone_noise_dataset(n_clips=60, duration_s=2.0, seed=0)
    cfg = model.preset_config("toy", n_classes=2)
    train_cfg = TrainConfig(lr0=0.5, epochs=30, batch_size=16, seed=0)
    assert train_cfg.epochs <= 60
    params, trace = train_toy(dataset, cfg, train_cfg)
    accuracy = training_accuracy(dataset, params, cfg)
    assert accuracy >= 0.95, f"training accuracy {accuracy:.3f}"
    assert trace[-1][1] < trace[0][1]
    assert time.perf_counter() - t0 < 600.0


# ------------------------------------------------------------- criterion 9

@criterion(9, "streaming session equals offline replay; ring capacity")
def test_criterion_09_stream_correctness():
    ring = RingBuffer(16000)
    assert ring.capacity == 57_600_000
    del ring

    cfg = model.preset_config("toy")
    params = model.init_rene(cfg, seed=0)
    # counter pattern: every value below 2^24, hence exact in float32
    source = AudioSignal(
        samples=np.arange(300 * 16000, dtype=np.float64), sample_rate=16000
    )
    session = SessionConfig(source=source, rate_factor=100.0)

    events, overruns = run_session(session, params, cfg)
    replayed = replay_offline(session, params, cfg)

    assert overruns == []
    assert len(events) == 30  # one event per scheduled 10 s window
    expected_spans = [(i * 160000, (i + 1) * 160000) for i in range(30)]
    assert [e.window_span for e in events] == expected_spans
    assert [e.window_span for e in replayed] == expected_spans
    for live, off in zip(events, replayed):
        np.testing.assert_allclose(
            live.probs.probs, off.probs.probs, rtol=0.0, atol=1e-6
        )
        assert live.probs.probs.min() >= 0.0
        assert abs(float(live.probs.probs.sum()) - 1.0) <= 1e-9


# ------------------------------------------------------------ criterion 10

@criterion(10, "tabular suite: SMOTE geometry, k selection, GBDT")
def test_criterion_10_tabular():
    rng = np.random.default_rng(10)

    minority = rng.normal(size=(20, 2))
    synthetic = smote_oversample(minority, 10_000, k_neighbors=5, seed=0)
    assert synthetic.shape == (10_000, 2)
    # each synthetic point must lie on a segment between a minority point
    # and one of its 5 nearest neighbours
    gaps = minority[:, None, :] - minority[None, :, :]
    pairwise = np.sqrt(np.sum(gaps**2, axis=2))
    np.fill_diagonal(pairwise, np.inf)
    neighbors = np.argsort(pairwise, axis=1)[:, :5]
    starts = np.repeat(minority, 5, axis=0)
    ends = minority[neighbors.ravel()]
    seg = ends - starts
    seg_len2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
    offsets = synthetic[:, None, :] - starts[None, :, :]
    t = np.clip(np.sum(offsets * seg[None], axis=2) / seg_len2[None], 0.0, 1.0)
    feet = starts[None] + t[..., None] * seg[None]
    residual = np.sqrt(np.sum((synthetic[:, None, :] - feet) ** 2, axis=2))
    assert residual.min(axis=1).max() < 1e-9

    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 7.0]])
    blob_rng = np.random.default_rng(11)
    blobs = np.concatenate([c + 0.5 * blob_rng.normal(size=(40, 2)) for c in centers])
    best_k, _ = select_k(blobs, range(2, 7), seed=0)
    assert best_k == 3

    gb_rng = np.random.default_rng(12)
    class_a = gb_rng.normal(loc=(-3.0, 0.0), scale=0.6, size=(40, 2))
    class_b = gb_rng.normal(loc=(3.0, 0.5), scale=0.6, size=(40, 2))
    features = np.concatenate([class_a, class_b])
    features = np.concatenate(
        [features, np.full((80, 1), 2.5)], axis=1
    )  # constant third feature
    labels = np.array([0] * 40 + [1] * 40)
    booster = gbdt_fit(features, labels, GbdtParams(n_rounds=20))
    predicted = np.argmax(gbdt_predict_proba(booster, features), axis=1)
    assert np.mean(predicted == labels) >= 0.95
    assert gain_importance(booster)[2] == 0.0


# ------------------------------------------------------------ criterion 11

@criterion(11, "demographic metadata clustering (optional, data-present)")
def test_criterion_11_metadata_clustering():
    path = Path(__file__).resolve().parents[1] / "data" / "icbhi_metadata.csv"
    if not path.exists():
        pytest.skip("data/icbhi_metadata.csv not present")
    table = impute_median(read_emr_csv(path))
    z, _, _ = zscore(table.matrix(table.numeric_names()))
    best_k, best = select_k(z, range(2, 21), seed=0)
    if best_k != 13 or abs(best.silhouette_mean - 0.85) > 0.05:
        # preprocessing is underdetermined, so a mismatch is advisory only
        warnings.warn(
            f"metadata clustering found k={best_k} "
            f"(silhouette {best.silhouette_mean:.3f}), expected k=13 at 0.85",
            stacklevel=1,
        )
