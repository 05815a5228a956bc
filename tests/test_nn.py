import inspect
import math
import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auscult import nn
from auscult.errors import FormatError, InvalidInputError


def gelu(x):
    return nn.gelu_forward(x)[0]


class TestGelu:
    def test_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-4)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_matches_tanh_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        expected = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(gelu(x), expected, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20)
        cy = rng.standard_normal(20)
        y, cache = nn.gelu_forward(x)
        dx = nn.gelu_backward(cy, cache)
        err = nn.grad_check(lambda: float(np.sum(gelu(x) * cy)), {"x": x}, {"x": dx})
        assert err <= 1e-4

    def test_in_place_kernel_matches_expression_and_keeps_input(self):
        x = np.random.default_rng(40).standard_normal((9, 7)) * 3
        before = x.copy()
        y, (x_cached, t) = nn.gelu_forward(x)
        assert np.array_equal(x, before)
        t_ref = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
        np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y, 0.5 * x * (1.0 + t_ref), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x_cached, before)


    def test_backward_kernel_matches_expression_and_keeps_inputs(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((11, 6)) * 3
        dy = rng.standard_normal((11, 6))
        _, cache = nn.gelu_forward(x)
        x_c, t = cache
        before = [a.copy() for a in (dy, x_c, t)]
        got = nn.gelu_backward(dy, cache)
        dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x_c**2)
        want = dy * (0.5 * (1.0 + t) + 0.5 * x_c * (1.0 - t**2) * dinner)
        assert np.array_equal(got, want)
        for a, b in zip((dy, x_c, t), before):
            np.testing.assert_array_equal(a, b)

class TestSigmoid:
    def test_extremes_finite_and_symmetric(self):
        for x in (800.0, -800.0, np.array([-800.0, -30.0, 0.0, 0.3, 800.0])):
            with np.errstate(all="raise"):
                s, s_neg = nn.sigmoid(x), nn.sigmoid(-x)
            assert np.all(np.isfinite(s))
            assert np.all((s >= 0.0) & (s <= 1.0))
            np.testing.assert_allclose(s_neg, 1.0 - s, rtol=0, atol=1e-15)
        assert nn.sigmoid(0.0) == 0.5


class TestSoftmax:
    def test_known_value(self):
        np.testing.assert_allclose(
            nn.softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75], atol=1e-12
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 7))
        np.testing.assert_allclose(nn.softmax(x + 123.0), nn.softmax(x), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        y = nn.softmax(rng.standard_normal((5, 9)) * 50)
        assert y.min() >= 0
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_uniform_input(self):
        np.testing.assert_allclose(nn.softmax(np.full(8, 3.3)), np.full(8, 0.125))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(11)
        cy = rng.standard_normal(11)
        dx = nn.softmax_backward(cy, nn.softmax(x))
        err = nn.grad_check(
            lambda: float(np.sum(nn.softmax(x) * cy)), {"x": x}, {"x": dx}
        )
        assert err <= 1e-4


class TestLayerNorm:
    def test_standardizes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 32)) * 4 + 2
        y, _ = nn.layer_norm_forward(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_two_point_example(self):
        y, _ = nn.layer_norm_forward(np.array([1.0, 3.0]), np.ones(2), np.zeros(2))
        np.testing.assert_allclose(y, [-1.0, 1.0], atol=1e-3)

    def test_constant_input_zeroed(self):
        y, _ = nn.layer_norm_forward(np.full(10, 7.0), np.ones(10), np.zeros(10))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 8))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        cy = rng.standard_normal((3, 8))

        def loss():
            return float(np.sum(nn.layer_norm_forward(x, gain, bias)[0] * cy))

        _, cache = nn.layer_norm_forward(x, gain, bias)
        dx, grads = nn.layer_norm_backward(cy, cache)
        err = nn.grad_check(
            loss,
            {"x": x, "gain": gain, "bias": bias},
            {"x": dx, "gain": grads["gain"], "bias": grads["bias"]},
        )
        assert err <= 1e-4

    def test_in_place_kernel_matches_expression_and_keeps_input(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((5, 16)) * 4 + 2
        gain, bias = rng.standard_normal(16), rng.standard_normal(16)
        before = x.copy()
        y, (xhat, inv_std, gain_cached) = nn.layer_norm_forward(x, gain, bias)
        assert np.array_equal(x, before)
        mu = x.mean(axis=-1, keepdims=True)
        inv_ref = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        xhat_ref = (x - mu) * inv_ref
        np.testing.assert_allclose(xhat, xhat_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(inv_std, inv_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y, gain * xhat_ref + bias, rtol=0, atol=1e-12)
        assert gain_cached is gain


    def test_backward_kernel_matches_expression_and_keeps_inputs(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((2, 5, 16)) * 4 + 2
        gain, bias = rng.standard_normal(16), rng.standard_normal(16)
        dy = rng.standard_normal((2, 5, 16))
        _, cache = nn.layer_norm_forward(x, gain, bias)
        xhat, inv_std, _ = cache
        before = [a.copy() for a in (dy, xhat, inv_std, gain)]
        dx, grads = nn.layer_norm_backward(dy, cache)
        dxhat = dy * gain
        dx_ref = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["gain"], (dy * xhat).reshape(-1, 16).sum(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["bias"], dy.reshape(-1, 16).sum(axis=0),
                                   rtol=0, atol=1e-12)
        for a, b in zip((dy, xhat, inv_std, gain), before):
            np.testing.assert_array_equal(a, b)

class TestPositionalEmbedding:
    def test_position_zero(self):
        pe = nn.sinusoidal_positional_embedding(5, 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_range(self):
        pe = nn.sinusoidal_positional_embedding(100, 64)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_pointwise_formula(self):
        pe = nn.sinusoidal_positional_embedding(50, 16)
        for p in (0, 7, 49):
            for i in range(8):
                angle = p / 10000 ** (2 * i / 16)
                assert pe[p, 2 * i] == pytest.approx(np.sin(angle), abs=1e-12)
                assert pe[p, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(InvalidInputError):
            nn.sinusoidal_positional_embedding(4, 7)

    def test_cached_table_is_read_only(self):
        pe = nn.sinusoidal_positional_embedding(12, 8)
        assert nn.sinusoidal_positional_embedding(12, 8) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0


class TestLinear:
    def test_gradients_tight(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        p = nn.init_linear(rng, 4, 3)
        cy = rng.standard_normal((5, 3))

        def loss():
            return float(np.sum(nn.linear_forward(x, p["w"], p["b"])[0] * cy))

        _, cache = nn.linear_forward(x, p["w"], p["b"])
        dx, grads = nn.linear_backward(cy, cache)
        err = nn.grad_check(
            loss,
            {"x": x, "w": p["w"], "b": p["b"]},
            {"x": dx, "w": grads["w"], "b": grads["b"]},
        )
        assert err <= 1e-5

    def test_zero_input_zero_weight_grad(self):
        rng = np.random.default_rng(8)
        p = nn.init_linear(rng, 4, 3)
        _, cache = nn.linear_forward(np.zeros((5, 4)), p["w"], p["b"])
        _, grads = nn.linear_backward(np.ones((5, 3)), cache)
        np.testing.assert_array_equal(grads["w"], 0.0)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 1))
        w = np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1)
        y, _ = nn.conv1d_forward(x, w, np.zeros(1), stride=1, padding=1)
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_hand_example(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([1.0, 1.0]).reshape(2, 1, 1)
        y, _ = nn.conv1d_forward(x, w, np.zeros(1), stride=1, padding=0)
        np.testing.assert_array_equal(y[:, 0], [3.0, 5.0])

    def test_stride_two_halves_even_length(self):
        x = np.zeros((100, 2))
        w = np.zeros((3, 2, 4))
        y, _ = nn.conv1d_forward(x, w, np.zeros(4), stride=2, padding=1)
        assert y.shape == (50, 4)

    def test_ceil_halving_of_odd_length(self):
        # stride 2, k=3, pad 1 maps T to ceil(T/2)
        for t in (997, 998, 125):
            y, _ = nn.conv1d_forward(
                np.zeros((t, 1)), np.zeros((3, 1, 1)), np.zeros(1), 2, 1
            )
            assert y.shape[0] == -(-t // 2)

    def test_kernel_wider_than_padded_input(self):
        with pytest.raises(InvalidInputError):
            nn.conv1d_forward(np.zeros((2, 1)), np.zeros((5, 1, 1)), np.zeros(1), 1, 1)

    def test_channel_mismatch(self):
        with pytest.raises(InvalidInputError):
            nn.conv1d_forward(np.zeros((5, 2)), np.zeros((3, 3, 1)), np.zeros(1), 1, 1)

    @pytest.mark.parametrize("stride,padding", [(0, 1), (-1, 1), (1, -1)])
    def test_bad_stride_or_padding_rejected(self, stride, padding):
        with pytest.raises(InvalidInputError):
            nn.conv1d_forward(
                np.zeros((8, 1)), np.zeros((3, 1, 1)), np.zeros(1), stride, padding
            )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_gradients(self, stride, padding):
        rng = np.random.default_rng(10 + stride + padding)
        x = rng.standard_normal((12, 3))
        p = nn.init_conv1d(rng, 3, 3, 2)
        y, cache = nn.conv1d_forward(x, p["w"], p["b"], stride, padding)
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.conv1d_forward(x, p["w"], p["b"], stride, padding)
            return float(np.sum(out * cy))

        dx, grads = nn.conv1d_backward(cy, cache)
        err = nn.grad_check(
            loss,
            {"x": x, "w": p["w"], "b": p["b"]},
            {"x": dx, "w": grads["w"], "b": grads["b"]},
        )
        assert err <= 1e-4


class TestDepthwiseConv1d:
    def test_matches_diagonal_dense_conv(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((11, 4))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        y, _ = nn.depthwise_conv1d_forward(x, w, b, padding=2)
        # embed the per-channel taps on the diagonal of a dense kernel
        dense = np.zeros((5, 4, 4))
        for c in range(4):
            dense[:, c, c] = w[:, c]
        expected, _ = nn.conv1d_forward(x, dense, b, stride=1, padding=2)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_preserves_length_with_same_padding(self):
        y, _ = nn.depthwise_conv1d_forward(
            np.zeros((30, 2)), np.zeros((15, 2)), np.zeros(2), padding=7
        )
        assert y.shape == (30, 2)

    def test_gradients(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((9, 3))
        p = nn.init_depthwise_conv1d(rng, 5, 3)
        y, cache = nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=2)
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=2)
            return float(np.sum(out * cy))

        dx, grads = nn.depthwise_conv1d_backward(cy, cache)
        err = nn.grad_check(
            loss,
            {"x": x, "w": p["w"], "b": p["b"]},
            {"x": dx, "w": grads["w"], "b": grads["b"]},
        )
        assert err <= 1e-4

    def test_negative_padding_rejected(self):
        with pytest.raises(InvalidInputError):
            nn.depthwise_conv1d_forward(
                np.zeros((8, 2)), np.zeros((3, 2)), np.zeros(2), padding=-1
            )

    @pytest.mark.parametrize("t", [1, 6, 14])
    def test_gradients_kernel_longer_than_input(self, t):
        # the conformer's 15-tap kernel with same padding on a short sequence
        rng = np.random.default_rng(42 + t)
        x = rng.standard_normal((t, 3))
        p = nn.init_depthwise_conv1d(rng, 15, 3)
        y, cache = nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=7)
        assert y.shape == (t, 3)
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.depthwise_conv1d_forward(x, p["w"], p["b"], padding=7)
            return float(np.sum(out * cy))

        dx, grads = nn.depthwise_conv1d_backward(cy, cache)
        err = nn.grad_check(
            loss,
            {"x": x, "w": p["w"], "b": p["b"]},
            {"x": dx, "w": grads["w"], "b": grads["b"]},
        )
        assert err <= 1e-4


class TestDepthwiseSeparableConv2d:
    def test_identity(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 5, 3))
        dw = np.zeros((3, 3, 3))
        dw[1, 1, :] = 1.0
        y, _ = nn.depthwise_separable_conv2d_forward(x, dw, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_matches_two_stage_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((7, 6, 4))
        dw = rng.standard_normal((3, 3, 4))
        pw = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        y, _ = nn.depthwise_separable_conv2d_forward(x, dw, pw, b)

        # stage 1: per-channel spatial cross-correlation, same padding
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        spatial = np.zeros_like(x)
        for c in range(4):
            for i in range(7):
                for j in range(6):
                    spatial[i, j, c] = np.sum(xp[i : i + 3, j : j + 3, c] * dw[:, :, c])
        # stage 2: 1x1 mixing
        expected = spatial @ pw + b
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_parameter_count_is_separable(self):
        rng = np.random.default_rng(16)
        p = nn.init_depthwise_separable(rng, 5, 8, 16)
        n_params = p["dw_kernel"].size + p["pw_weight"].size
        assert n_params == 8 * 25 + 8 * 16
        assert n_params < 8 * 16 * 25

    def test_channel_mismatch(self):
        with pytest.raises(InvalidInputError):
            nn.depthwise_separable_conv2d_forward(
                np.zeros((4, 4, 3)), np.zeros((3, 3, 2)), np.eye(3), np.zeros(3)
            )

    def test_gradients(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 4, 3))
        p = nn.init_depthwise_separable(rng, 3, 3, 2)
        y, cache = nn.depthwise_separable_conv2d_forward(
            x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
        )
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.depthwise_separable_conv2d_forward(
                x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
            )
            return float(np.sum(out * cy))

        dx, grads = nn.depthwise_separable_conv2d_backward(cy, cache)
        err = nn.grad_check(
            loss, {"x": x, **p}, {"x": dx, **grads}
        )
        assert err <= 1e-4

    def test_gradients_model_shape(self):
        # the trial block's largest kernel on the toy model's 16 x 8 map
        rng = np.random.default_rng(43)
        x = rng.standard_normal((16, 8, 2))
        p = nn.init_depthwise_separable(rng, 7, 2, 3)
        y, cache = nn.depthwise_separable_conv2d_forward(
            x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
        )
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.depthwise_separable_conv2d_forward(
                x, p["dw_kernel"], p["pw_weight"], p["pw_bias"]
            )
            return float(np.sum(out * cy))

        dx, grads = nn.depthwise_separable_conv2d_backward(cy, cache)
        err = nn.grad_check(loss, {"x": x, **p}, {"x": dx, **grads})
        assert err <= 1e-4


class TestAttention:
    def test_rows_sum_to_one_and_shape(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 8))
        p = nn.init_attention(rng, 8)
        y, cache = nn.multi_head_self_attention_forward(x, p, 2)
        attn = cache[4]
        assert y.shape == (6, 8)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((5, 4))
        p = nn.init_attention(rng, 4)
        p = dict(p, wk=np.zeros((4, 4)))  # keys constant -> uniform attention
        y, cache = nn.multi_head_self_attention_forward(x, p, 1)
        v = (x @ p["wv"] + p["bv"]).mean(axis=0)
        expected = np.tile(v, (5, 1)) @ p["wo"] + p["bo"]
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_hand_computed_two_by_two(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        eye = np.eye(2)
        p = {"wq": eye, "wk": eye, "wv": eye, "wo": eye,
             "bq": np.zeros(2), "bk": np.zeros(2), "bv": np.zeros(2), "bo": np.zeros(2)}
        y, _ = nn.multi_head_self_attention_forward(x, p, 1)
        s = 1.0 / np.sqrt(2.0)
        a = np.exp(s) / (np.exp(s) + 1.0)  # weight on the matching position
        expected = np.array([[a, 1 - a], [1 - a, a]])
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((7, 6))
        p = nn.init_attention(rng, 6)
        perm = rng.permutation(7)
        y, _ = nn.multi_head_self_attention_forward(x, p, 3)
        y_perm, _ = nn.multi_head_self_attention_forward(x[perm], p, 3)
        np.testing.assert_allclose(y_perm, y[perm], atol=1e-9)

    def test_in_place_softmax_matches_expression_and_keeps_inputs(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((9, 8)) * 3
        p = nn.init_attention(rng, 8)
        before = x.copy()
        p_before = {name: a.copy() for name, a in p.items()}
        y, cache = nn.multi_head_self_attention_forward(x, p, 2)
        assert np.array_equal(x, before)
        for name, a in p.items():
            assert np.array_equal(a, p_before[name])

        def split(m):
            return m.reshape(9, 2, 4).transpose(1, 0, 2)

        q = split(x @ p["wq"] + p["bq"])
        k = split(x @ p["wk"] + p["bk"])
        v = split(x @ p["wv"] + p["bv"])
        attn = nn.softmax(q @ k.transpose(0, 2, 1) * (1.0 / np.sqrt(4)))
        ctx = (attn @ v).transpose(1, 0, 2).reshape(9, 8)
        np.testing.assert_allclose(cache[4], attn, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache[5], ctx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y, ctx @ p["wo"] + p["bo"], rtol=0, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(21)
        with pytest.raises(InvalidInputError):
            nn.multi_head_self_attention_forward(
                np.zeros((4, 6)), nn.init_attention(rng, 6), 4
            )

    def test_gradients(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((4, 8))
        p = nn.init_attention(rng, 8)
        y, cache = nn.multi_head_self_attention_forward(x, p, 2)
        cy = rng.standard_normal(y.shape)

        def loss():
            out, _ = nn.multi_head_self_attention_forward(x, p, 2)
            return float(np.sum(out * cy))

        dx, grads = nn.multi_head_self_attention_backward(cy, cache)
        err = nn.grad_check(loss, {"x": x, **p}, {"x": dx, **grads})
        assert err <= 1e-4


def gru_oracle_states(xs, p):
    """Every state h_1..h_T of the GRU equations, step by step from zero."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(p["bz"].shape[0])
    states = []
    for x in xs:
        z = sig(x @ p["wz"] + h @ p["uz"] + p["bz"])
        r = sig(x @ p["wr"] + h @ p["ur"] + p["br"])
        n = np.tanh(x @ p["wn"] + r * (h @ p["un"]) + p["bn"])
        h = (1.0 - z) * n + z * h
        states.append(h)
    return np.array(states)


def prefix_finals(xs, p):
    """The state after each step, as the final states of the prefixes."""
    return np.array([nn.gru_sequence_forward(xs[: i + 1], p)[0]
                     for i in range(len(xs))])


class TestGru:
    def test_zero_params_halve_state(self):
        # with zero weights z = 1/2, so a constant candidate tanh(bn) is
        # approached by halving the gap: h_t = tanh(bn) * (1 - 2^-t)
        rng = np.random.default_rng(23)
        p = {k: np.zeros_like(v) for k, v in nn.init_gru(rng, 3, 5).items()}
        p["bn"] = rng.standard_normal(5)
        states = prefix_finals(rng.standard_normal((6, 3)), p)
        for t, h in enumerate(states, start=1):
            np.testing.assert_allclose(h, np.tanh(p["bn"]) * (1 - 0.5**t),
                                       rtol=0, atol=1e-12)

    def test_zero_params_zero_state(self):
        rng = np.random.default_rng(24)
        p = {k: np.zeros_like(v) for k, v in nn.init_gru(rng, 3, 5).items()}
        h, _ = nn.gru_sequence_forward(rng.standard_normal((4, 3)), p)
        np.testing.assert_array_equal(h, np.zeros(5))

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(25)
        p = nn.init_gru(rng, 4, 6)
        for name in ("bz", "br", "bn"):
            p[name] = 3.0 * rng.standard_normal(6)
        states = prefix_finals(3.0 * rng.standard_normal((50, 4)), p)
        assert np.all(np.abs(states) < 1.0)

    def test_cell_gradients(self):
        rng = np.random.default_rng(26)
        p = nn.init_gru(rng, 3, 4)
        xs = rng.standard_normal((1, 3))
        cy = rng.standard_normal(4)

        def loss():
            final, _ = nn.gru_sequence_forward(xs, p)
            return float(np.sum(final * cy))

        _, cache = nn.gru_sequence_forward(xs, p)
        dxs, grads = nn.gru_sequence_backward(cy, cache)
        flat_p = {**p, "x": xs}
        flat_g = {**grads, "x": dxs}
        assert nn.grad_check(loss, flat_p, flat_g) <= 1e-4

    def test_states_match_per_step_equations(self):
        rng = np.random.default_rng(44)
        p = nn.init_gru(rng, 3, 5)
        for name in ("bz", "br", "bn"):
            p[name] = rng.standard_normal(5)
        xs = rng.standard_normal((7, 3))
        np.testing.assert_allclose(prefix_finals(xs, p), gru_oracle_states(xs, p),
                                   rtol=0, atol=1e-12)

    def test_float32_params_equal_their_float64_widening(self):
        rng = np.random.default_rng(45)
        p32 = {k: v.astype(np.float32) for k, v in nn.init_gru(rng, 6, 9).items()}
        p64 = {k: v.astype(np.float64) for k, v in p32.items()}
        xs = rng.standard_normal((11, 6))
        states32, states64 = prefix_finals(xs, p32), prefix_finals(xs, p64)
        assert states32.dtype == np.float64
        assert np.array_equal(states32, states64)

    def test_sequence_gradients(self):
        rng = np.random.default_rng(45)
        p = nn.init_gru(rng, 3, 4)
        for name in ("bz", "br", "bn"):
            p[name] = rng.standard_normal(4)
        xs = rng.standard_normal((6, 3))
        cy = rng.standard_normal(4)

        def loss():
            final, _ = nn.gru_sequence_forward(xs, p)
            return float(np.sum(final * cy))

        _, cache = nn.gru_sequence_forward(xs, p)
        dxs, grads = nn.gru_sequence_backward(cy, cache)
        flat_p = {**p, "x": xs}
        flat_g = {**grads, "x": dxs}
        assert nn.grad_check(loss, flat_p, flat_g) <= 1e-5


class TestBigru:
    def test_output_shapes(self):
        rng = np.random.default_rng(27)
        p = nn.init_bigru(rng, 4, 6)
        final, _ = nn.bigru_forward(rng.standard_normal((9, 4)), **p)
        assert final.shape == (12,)

    def test_backward_direction_is_reversed_forward(self):
        # the backward half after reading xs[i:] from the end is the forward
        # GRU's state on that suffix reversed, for every i
        rng = np.random.default_rng(28)
        p = nn.init_bigru(rng, 4, 6)
        xs = rng.standard_normal((7, 4))
        for i in range(7):
            final, _ = nn.bigru_forward(xs[i:], **p)
            rev_final, _ = nn.gru_sequence_forward(xs[i:][::-1], p["bwd"])
            np.testing.assert_allclose(final[6:], rev_final, rtol=0, atol=1e-12)

    def test_final_state_concatenates_ends(self):
        rng = np.random.default_rng(29)
        p = nn.init_bigru(rng, 3, 5)
        xs = rng.standard_normal((6, 3))
        final, _ = nn.bigru_forward(xs, **p)
        np.testing.assert_allclose(final[:5], gru_oracle_states(xs, p["fwd"])[-1],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(final[5:],
                                   gru_oracle_states(xs[::-1], p["bwd"])[-1],
                                   rtol=0, atol=1e-12)

    def test_single_step(self):
        # one step: both directions read the same input from a zero state
        rng = np.random.default_rng(30)
        p = nn.init_bigru(rng, 3, 5)
        xs = rng.standard_normal((1, 3))
        final, _ = nn.bigru_forward(xs, **p)
        np.testing.assert_allclose(final, np.concatenate(
            [gru_oracle_states(xs, p[d])[0] for d in ("fwd", "bwd")]),
            rtol=0, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(InvalidInputError):
            nn.bigru_forward(np.zeros((0, 3)), **nn.init_bigru(rng, 3, 5))

    def test_sequence_gradients(self):
        rng = np.random.default_rng(32)
        p = nn.init_bigru(rng, 3, 4)
        xs = rng.standard_normal((3, 3))
        final, cache = nn.bigru_forward(xs, **p)
        cf = rng.standard_normal(final.shape)

        def loss():
            fin, _ = nn.bigru_forward(xs, **p)
            return float(np.sum(fin * cf))

        dxs, grads = nn.bigru_backward(cf, cache)
        arrays = {"x": xs}
        analytic = {"x": dxs}
        for d in ("fwd", "bwd"):
            for k in p[d]:
                arrays[f"{d}.{k}"] = p[d][k]
                analytic[f"{d}.{k}"] = grads[d][k]
        assert nn.grad_check(loss, arrays, analytic) <= 1e-4


class TestKernelConvention:
    def test_every_backward_takes_dy_and_cache(self):
        backward = [name for name in dir(nn) if name.endswith("_backward")
                    and hasattr(nn, name[: -len("backward")] + "forward")]
        assert len(backward) == 9
        for name in backward:
            params = list(inspect.signature(getattr(nn, name)).parameters)
            assert params == ["dy", "cache"], name


class TestXavierInit:
    def test_bounds_and_reproducibility(self):
        limit = np.sqrt(6.0 / (64 + 32))
        a = nn.xavier_uniform(np.random.default_rng(33), (64, 32), 64, 32)
        b = nn.xavier_uniform(np.random.default_rng(33), (64, 32), 64, 32)
        assert np.abs(a).max() <= limit
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = nn.xavier_uniform(np.random.default_rng(1), (8, 8), 8, 8)
        b = nn.xavier_uniform(np.random.default_rng(2), (8, 8), 8, 8)
        assert not np.array_equal(a, b)


class TestParamsIo:
    def _params(self):
        rng = np.random.default_rng(34)
        return {
            "enc": nn.init_linear(rng, 6, 4),
            "dec": {"gru": nn.init_gru(rng, 4, 3)},
            "scalarish": np.array([1.5]),
        }

    def test_round_trip_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.params"
        nn.save_params(path, params)
        back = nn.load_params(path)
        flat_a = nn.flatten_params(params)
        flat_b = nn.flatten_params(back)
        assert set(flat_a) == set(flat_b)
        for name in flat_a:
            np.testing.assert_array_equal(flat_a[name], flat_b[name])

    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "model.params"
        nn.save_params(path, self._params())
        raw = path.read_bytes()
        assert raw[:4] == b"RENE"
        assert int.from_bytes(raw[4:8], "little") == 1

    def test_bad_magic_rejected_with_offset(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError) as exc:
            nn.load_params(path)
        assert "offset 0" in str(exc.value)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "model.params"
        nn.save_params(path, self._params())
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            nn.load_params(path)

    def test_non_utf8_record_name_rejected(self, tmp_path):
        path = tmp_path / "model.params"
        nn.save_params(path, {"ab": np.zeros(3)})
        raw = path.read_bytes()
        assert raw[12:14] == b"ab"  # after magic, version and name length
        path.write_bytes(raw[:12] + b"\xff\xfe" + raw[14:])
        with pytest.raises(FormatError) as exc:
            nn.load_params(path)
        assert "offset 12" in str(exc.value)

    def test_float32_payloads_load(self, tmp_path):
        params = {"w": np.linspace(0, 1, 7, dtype=np.float32)}
        path = tmp_path / "f32.params"
        nn.save_params(path, params)
        back = nn.load_params(path)
        np.testing.assert_allclose(back["w"], params["w"], atol=1e-7)

    def test_flatten_unflatten_round_trip(self):
        params = self._params()
        again = nn.unflatten_params(nn.flatten_params(params))
        assert set(nn.flatten_params(again)) == set(nn.flatten_params(params))

    def test_streaming_load_holds_no_whole_file_copy(self, tmp_path):
        rng = np.random.default_rng(48)
        params = {f"w{i:02d}": rng.standard_normal(32768).astype(np.float32)
                  for i in range(64)}
        path = tmp_path / "f32.params"
        nn.save_params(path, params)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = nn.load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 tree is the file's payload; a whole-file read, or a
        # float64 copy of the tree, would double that
        assert peak < 1.1 * size
        assert sorted(back) == sorted(params)

    def test_pipe_is_read_whole(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.params"
        nn.save_params(path, params)
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            back = nn.load_params(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        for name, arr in nn.flatten_params(params).items():
            np.testing.assert_array_equal(nn.flatten_params(back)[name], arr)

    def test_loaded_leaves_are_read_only(self, tmp_path):
        path = tmp_path / "model.params"
        nn.save_params(path, self._params())
        back = nn.flatten_params(nn.load_params(path))
        assert back and not any(arr.flags.writeable for arr in back.values())
        with pytest.raises(ValueError, match="read-only"):
            back["enc.w"][0, 0] = 1.0

    def test_loaded_tree_survives_a_save_over_its_file(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.params"
        nn.save_params(path, params)
        back = nn.load_params(path)
        other = {k: v + 1.0 for k, v in nn.flatten_params(params).items()}
        other["extra"] = np.zeros(4096)  # a longer file, not just new values
        nn.save_params(path, other)
        for name, arr in nn.flatten_params(params).items():
            np.testing.assert_array_equal(nn.flatten_params(back)[name], arr)
        np.testing.assert_array_equal(nn.load_params(path)["extra"], other["extra"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.params"]

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.params"
        nn.save_params(path, self._params())
        before = path.read_bytes()
        # the second record cannot be stored as float64, after the first is written
        with pytest.raises(ValueError):
            nn.save_params(path, {"a": np.zeros(3), "b": np.array(["x"])})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.params"]

    def test_save_keeps_the_mode_and_follows_a_link(self, tmp_path):
        target = tmp_path / "model.params"
        nn.save_params(target, self._params())
        target.chmod(0o640)
        link = tmp_path / "current.params"
        link.symlink_to(target.name)
        nn.save_params(link, {"w": np.ones(2)})
        assert link.is_symlink() and stat.S_IMODE(target.stat().st_mode) == 0o640
        np.testing.assert_array_equal(nn.load_params(target)["w"], np.ones(2))

    def test_save_to_a_pipe_writes_in_place(self, tmp_path):
        params = self._params()
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        got = {}
        reader = threading.Thread(target=lambda: got.update(tree=nn.load_params(fifo)),
                                  daemon=True)
        reader.start()
        nn.save_params(fifo, params)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        for name, arr in nn.flatten_params(params).items():
            np.testing.assert_array_equal(nn.flatten_params(got["tree"])[name], arr)

    def test_mapped_load_copies_no_payload(self, tmp_path):
        rng = np.random.default_rng(48)
        params = {f"w{i:02d}": rng.standard_normal(32768).astype(np.float32)
                  for i in range(64)}
        path = tmp_path / "f32.params"
        nn.save_params(path, params)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = nn.load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the leaves are views of the mapped file; a copy of any one leaf
        # (128 KiB) would break this bound
        assert peak < 0.01 * size
        for name, arr in params.items():
            np.testing.assert_array_equal(back[name], arr)


def params_record(name: bytes, tag: int, dims, payload: bytes, name_len=None):
    """One `save_params` record, with the name length free to lie."""
    return (struct.pack("<I", len(name) if name_len is None else name_len) + name
            + struct.pack("<BB", tag, len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


PARAMS_HEAD = b"RENE" + struct.pack("<I", 1)


def record_dtypes(raw):
    """{name: dtype} of each record of a params file that loads."""
    out, pos = {}, 8
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        tag, rank = struct.unpack_from("<BB", raw, pos)
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 2)
        dtype = np.dtype(np.float32 if tag == 0 else np.float64)
        out[name] = dtype
        pos += 2 + 4 * rank + math.prod(dims) * dtype.itemsize
    return out


@st.composite
def params_files(draw):
    """A header and records, one in five of them broken, then maybe cut short."""
    out = b"RENE" + struct.pack("<I", draw(st.sampled_from([1, 1, 1, 2])))
    for _ in range(draw(st.integers(0, 4))):
        broken = draw(st.integers(0, 4)) == 4
        name = draw(st.binary(max_size=4) if broken
                    else st.sampled_from([b"a", b"b", b"c", b"a.b", b"a.c", b"b.a.c"]))
        name_len = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1))) if broken else None
        tag = draw(st.integers(0, 255) if broken else st.integers(0, 1))
        dims = draw(st.lists(st.integers(0, 2**32 - 1) if broken else st.integers(0, 3),
                             max_size=3))
        nbytes = math.prod(dims) * (4 if tag == 0 else 8)
        payload = bytes(min(nbytes, 256)) + (draw(st.binary(max_size=3)) if broken else b"")
        out += params_record(name, tag, dims, payload, name_len)
    return out[:draw(st.integers(0, len(out)))] if draw(st.integers(0, 3)) == 3 else out


class TestParamsFuzz:
    @settings(max_examples=400, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=80),
                         st.binary(max_size=80).map(PARAMS_HEAD.__add__),
                         params_files()))
    def test_arbitrary_bytes_load_or_raise_format_error(self, fuzz_dir, raw):
        path = fuzz_dir / "fuzz.params"
        path.write_bytes(raw)
        try:
            tree = nn.load_params(path)
        except FormatError:
            return
        assert isinstance(tree, dict)
        loaded = {name: arr.dtype for name, arr in nn.flatten_params(tree).items()}
        assert loaded == record_dtypes(raw)

    @pytest.mark.parametrize("dims", [(2**20, 2**20), (2**32 - 1, 2**32 - 1),
                                      (2**32 - 1,) * 3])
    def test_oversized_record_rejected_without_allocating(self, tmp_path, dims):
        path = tmp_path / "huge.params"
        first = params_record(b"ok", 1, (2,), bytes(16))
        path.write_bytes(PARAMS_HEAD + first + params_record(b"w", 1, dims, bytes(8)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload truncated") as exc:
                nn.load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.offset == len(PARAMS_HEAD + first)
        assert peak < 2**20

    def test_empty_record_with_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "empty.params"
        path.write_bytes(PARAMS_HEAD + params_record(b"w", 1, (0,) + (2**32 - 1,) * 3, b""))
        with pytest.raises(FormatError, match="too large") as exc:
            nn.load_params(path)
        assert exc.value.offset == 8

    @pytest.mark.parametrize("names, message", [
        ((b"a", b"a.b"), "nests under another leaf"),
        ((b"a.b", b"a"), "also a group"),
        ((b"a", b"a"), "repeats"),
    ], ids=["leaf-then-group", "group-then-leaf", "repeat"])
    def test_conflicting_names_rejected(self, tmp_path, names, message):
        path = tmp_path / "conflict.params"
        path.write_bytes(PARAMS_HEAD + b"".join(
            params_record(n, 1, (1,), bytes(8)) for n in names))
        with pytest.raises(FormatError, match=message):
            nn.load_params(path)
