import csv

import numpy as np
import pytest

from auscult import nn
from auscult.errors import InvalidInputError, TrainingDivergedError
from auscult.model import preset_config
from auscult.training import (
    LR_DECAY_EVERY,
    LR_DECAY_FACTOR,
    LabeledDataset,
    TrainConfig,
    cross_entropy,
    focal_loss,
    focal_loss_grad,
    item_sampling_weights,
    lr_at_step,
    sgd_step,
    train_toy,
    training_accuracy,
    weighted_sampler_weights,
    write_loss_trace,
)

from conftest import make_tone_noise_dataset


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(5))
            t = rng.integers(5)
            assert focal_loss(probs, t, 0.0) == cross_entropy(probs, t)
            assert focal_loss(probs, t, 0.0) == pytest.approx(-np.log(probs[t]))

    def test_factor_100_at_09(self):
        probs = np.array([0.9, 0.1])
        ratio = focal_loss(probs, 0, 2.0) / cross_entropy(probs, 0)
        assert ratio == pytest.approx(0.01, abs=1e-12)

    def test_factor_1000_at_0968(self):
        probs = np.array([0.968, 0.032])
        ratio = focal_loss(probs, 0, 2.0) / cross_entropy(probs, 0)
        assert ratio == pytest.approx(0.032**2, abs=1e-12)
        assert abs(ratio - 1e-3) / 1e-3 < 0.05

    def test_never_exceeds_cross_entropy(self):
        for p_t in np.linspace(0.01, 0.99, 50):
            probs = np.array([p_t, 1 - p_t])
            for gamma in (0.5, 1.0, 2.0, 5.0):
                assert focal_loss(probs, 0, gamma) <= cross_entropy(probs, 0)

    def test_monotone_decreasing_in_pt(self):
        grid = np.linspace(0.01, 0.99, 99)
        for gamma in (0.0, 1.0, 2.0, 5.0):
            losses = [focal_loss(np.array([p, 1 - p]), 0, gamma) for p in grid]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_floored_log_keeps_loss_finite(self):
        loss = focal_loss(np.array([0.0, 1.0]), 0, 2.0)
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_invalid_target_and_gamma(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            focal_loss(probs, 2, 2.0)
        with pytest.raises(InvalidInputError):
            focal_loss(probs, -1, 2.0)
        with pytest.raises(InvalidInputError):
            focal_loss(probs, 0, 5.5)


class TestFocalLossGrad:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 5.0])
    def test_matches_finite_differences_through_softmax(self, gamma):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(6)
        target = 2

        def loss():
            return focal_loss(nn.softmax(logits), target, gamma)

        analytic = focal_loss_grad(nn.softmax(logits), target, gamma)
        err = nn.grad_check(loss, {"z": logits}, {"z": analytic})
        assert err <= 1e-4

    def test_gamma_zero_gives_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4))
        g = focal_loss_grad(probs, 1, 0.0)
        expected = probs.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(g, expected, atol=1e-12)


class TestSamplerWeights:
    def test_two_class_equalization(self):
        w = weighted_sampler_weights(np.array([90, 10]))
        assert 90 * w[0] == pytest.approx(0.5)
        assert 10 * w[1] == pytest.approx(0.5)

    def test_single_class_uniform(self):
        w = weighted_sampler_weights(np.array([25]))
        assert w[0] == pytest.approx(1 / 25)

    def test_absent_class_gets_zero_weight(self):
        w = weighted_sampler_weights(np.array([10, 0, 30]))
        assert w[1] == 0.0
        assert 10 * w[0] + 30 * w[2] == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            weighted_sampler_weights(np.array([0, 0]))

    def test_monte_carlo_batch_composition(self):
        labels = np.array([0] * 90 + [1] * 10)
        pairs = [(np.zeros((4, 80)), int(l)) for l in labels]
        ds = LabeledDataset(pairs, 2)
        w = item_sampling_weights(ds)
        assert w.sum() == pytest.approx(1.0)
        rng = np.random.default_rng(3)
        draws = rng.choice(100, size=10_000, replace=True, p=w)
        frac_minority = np.mean(labels[draws] == 1)
        assert abs(frac_minority - 0.5) < 0.03


class TestLrSchedule:
    def test_decay_points(self):
        cfg = TrainConfig()
        assert lr_at_step(0, cfg) == pytest.approx(1e-6)
        assert lr_at_step(1999, cfg) == pytest.approx(1e-6)
        assert lr_at_step(2000, cfg) == pytest.approx(1e-7)
        assert lr_at_step(4000, cfg) == pytest.approx(1e-8)

    def test_non_increasing(self):
        cfg = TrainConfig()
        lrs = [lr_at_step(s, cfg) for s in range(0, 10_000, 250)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidInputError):
            lr_at_step(-1, TrainConfig())


class TestTrainConfig:
    def test_defaults_match_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 16
        assert cfg.epochs == 60
        assert cfg.lr0 == pytest.approx(1e-6)
        assert LR_DECAY_FACTOR == pytest.approx(0.1)
        assert LR_DECAY_EVERY == 2000
        assert cfg.gamma == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(gamma=6.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(lr0=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestLabeledDataset:
    def test_from_pairs_counts(self):
        pairs = [(np.zeros((3, 80)), 0), (np.zeros((3, 80)), 1), (np.zeros((3, 80)), 1)]
        ds = LabeledDataset(pairs, 3)
        np.testing.assert_array_equal(ds.class_counts, [1, 2, 0])
        np.testing.assert_array_equal(ds.labels, [0, 1, 1])

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset([(np.zeros((3, 80)), 5)], 2)


class TestSgdStep:
    def test_returns_new_tree(self):
        params = {"a": {"w": np.ones(3)}, "b": np.full(2, 5.0)}
        grads = {"a": {"w": np.ones(3)}, "b": np.ones(2)}
        updated = sgd_step(params, grads, 0.5)
        np.testing.assert_allclose(updated["a"]["w"], 0.5)
        np.testing.assert_allclose(updated["b"], 4.5)
        np.testing.assert_allclose(params["a"]["w"], 1.0)  # untouched


class TestTrainToy:
    def _small(self):
        return make_tone_noise_dataset(n_clips=8, duration_s=0.5, seed=4)

    def test_deterministic_per_seed(self):
        ds = self._small()
        cfg = preset_config("toy", n_classes=2)
        tc = TrainConfig(lr0=0.1, epochs=2, batch_size=4, seed=11)
        _, trace_a = train_toy(ds, cfg, tc)
        _, trace_b = train_toy(ds, cfg, tc)
        assert trace_a == trace_b

    def test_learns_separable_set(self):
        ds = make_tone_noise_dataset(n_clips=16, duration_s=1.0, seed=5)
        cfg = preset_config("toy", n_classes=2)
        tc = TrainConfig(lr0=0.3, epochs=30, batch_size=8, seed=0)
        params, trace = train_toy(ds, cfg, tc)
        assert trace[-1][1] < trace[0][1]
        assert training_accuracy(ds, params, cfg) >= 0.8

    def test_trace_csv(self, tmp_path):
        ds = self._small()
        cfg = preset_config("toy", n_classes=2)
        tc = TrainConfig(lr0=0.1, epochs=2, batch_size=4, seed=6)
        path = tmp_path / "trace.csv"
        _, trace = train_toy(ds, cfg, tc)
        write_loss_trace(path, trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_loss", "lr"]
        assert len(rows) == 1 + len(trace)
        assert float(rows[1][2]) == pytest.approx(0.1)

    def test_non_finite_loss_raises_with_step(self):
        pairs = [(np.full((10, 80), np.nan), 0), (np.full((10, 80), np.nan), 1)]
        ds = LabeledDataset(pairs, 2)
        cfg = preset_config("toy", n_classes=2)
        tc = TrainConfig(lr0=0.1, epochs=1, batch_size=2, seed=7)
        with pytest.raises(TrainingDivergedError) as exc:
            train_toy(ds, cfg, tc)
        assert "step 0" in str(exc.value)

    def test_write_loss_trace_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_loss_trace(path, [(0, 0.5, 1e-3), (1, 0.25, 1e-3)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["0", "0.5", "0.001"]
