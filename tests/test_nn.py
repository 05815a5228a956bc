import numpy as np
import pytest

from auscult import nn
from auscult.errors import FormatError, InvalidInputError


class TestGelu:
    def test_fixed_points(self):
        assert nn.gelu(np.array([0.0]))[0] == 0.0
        assert nn.gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-4)
        assert nn.gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_matches_tanh_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        expected = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(nn.gelu(x), expected, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20)
        cy = rng.standard_normal(20)
        y, cache = nn.gelu_forward(x)
        dx = nn.gelu_backward(cy, cache)
        err = nn.grad_check(lambda: float(np.sum(nn.gelu(x) * cy)), {"x": x}, {"x": dx})
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
        attn = nn.softmax(q @ k.transpose(0, 2, 1) * (1.0 / np.sqrt(4)), axis=-1)
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


class TestGru:
    @staticmethod
    def _step(x, h, p):
        """One GRU update as a length-1 sequence started from state h."""
        return nn.gru_sequence_forward(x[None], p, h0=h)[1]

    def test_zero_params_halve_state(self):
        rng = np.random.default_rng(23)
        p = {k: np.zeros_like(v) for k, v in nn.init_gru(rng, 3, 5).items()}
        h = rng.standard_normal(5)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(self._step(x, h, p), 0.5 * h, atol=1e-12)

    def test_zero_params_zero_state(self):
        rng = np.random.default_rng(24)
        p = {k: np.zeros_like(v) for k, v in nn.init_gru(rng, 3, 5).items()}
        np.testing.assert_array_equal(
            self._step(rng.standard_normal(3), np.zeros(5), p), np.zeros(5)
        )

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(25)
        p = nn.init_gru(rng, 4, 6)
        h = rng.uniform(-0.99, 0.99, 6)
        for _ in range(50):
            h = self._step(rng.standard_normal(4), h, p)
            assert np.all(np.abs(h) < 1.0)

    def test_cell_gradients(self):
        rng = np.random.default_rng(26)
        p = nn.init_gru(rng, 3, 4)
        xs = rng.standard_normal((1, 3))
        cy = rng.standard_normal(4)

        def loss():
            _, final, _ = nn.gru_sequence_forward(xs, p)
            return float(np.sum(final * cy))

        _, _, caches = nn.gru_sequence_forward(xs, p)
        dxs, grads, _ = nn.gru_sequence_backward(None, cy, caches, p)
        flat_p = {**p, "x": xs}
        flat_g = {**grads, "x": dxs}
        assert nn.grad_check(loss, flat_p, flat_g) <= 1e-4

    def test_states_match_per_step_equations(self):
        rng = np.random.default_rng(44)
        p = nn.init_gru(rng, 3, 5)
        for name in ("bz", "br", "bn"):
            p[name] = rng.standard_normal(5)
        xs = rng.standard_normal((7, 3))
        h0 = rng.uniform(-0.9, 0.9, 5)
        hs, final, _ = nn.gru_sequence_forward(xs, p, h0=h0)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = h0
        for i, x in enumerate(xs):
            z = sig(x @ p["wz"] + h @ p["uz"] + p["bz"])
            r = sig(x @ p["wr"] + h @ p["ur"] + p["br"])
            n = np.tanh(x @ p["wn"] + r * (h @ p["un"]) + p["bn"])
            h = (1.0 - z) * n + z * h
            np.testing.assert_allclose(hs[i], h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final, h, rtol=0, atol=1e-12)

    def test_sequence_gradients_with_state_and_step_losses(self):
        rng = np.random.default_rng(45)
        p = nn.init_gru(rng, 3, 4)
        for name in ("bz", "br", "bn"):
            p[name] = rng.standard_normal(4)
        xs = rng.standard_normal((6, 3))
        h0 = rng.uniform(-0.9, 0.9, 4)
        cys = rng.standard_normal((6, 4))
        cf = rng.standard_normal(4)

        def loss():
            hs, final, _ = nn.gru_sequence_forward(xs, p, h0=h0)
            return float(np.sum(hs * cys) + np.sum(final * cf))

        _, _, cache = nn.gru_sequence_forward(xs, p, h0=h0)
        dxs, grads, dh0 = nn.gru_sequence_backward(cys, cf, cache, p)
        flat_p = {**p, "x": xs, "h0": h0}
        flat_g = {**grads, "x": dxs, "h0": dh0}
        assert nn.grad_check(loss, flat_p, flat_g) <= 1e-5


class TestBigru:
    def test_output_shapes(self):
        rng = np.random.default_rng(27)
        p = nn.init_bigru(rng, 4, 6)
        ys, final, _ = nn.bigru_forward(rng.standard_normal((9, 4)), p)
        assert ys.shape == (9, 12)
        assert final.shape == (12,)

    def test_backward_direction_is_reversed_forward(self):
        rng = np.random.default_rng(28)
        p = nn.init_bigru(rng, 4, 6)
        xs = rng.standard_normal((7, 4))
        ys, final, _ = nn.bigru_forward(xs, p)
        rev_states, rev_final, _ = nn.gru_sequence_forward(xs[::-1], p["bwd"])
        np.testing.assert_allclose(ys[:, 6:], rev_states[::-1], atol=1e-12)
        np.testing.assert_allclose(final[6:], rev_final, atol=1e-12)

    def test_final_state_concatenates_ends(self):
        rng = np.random.default_rng(29)
        p = nn.init_bigru(rng, 3, 5)
        xs = rng.standard_normal((6, 3))
        ys, final, _ = nn.bigru_forward(xs, p)
        np.testing.assert_allclose(final[:5], ys[-1, :5], atol=1e-12)
        np.testing.assert_allclose(final[5:], ys[0, 5:], atol=1e-12)

    def test_single_step(self):
        rng = np.random.default_rng(30)
        p = nn.init_bigru(rng, 3, 5)
        ys, final, _ = nn.bigru_forward(rng.standard_normal((1, 3)), p)
        np.testing.assert_allclose(ys[0], final, atol=1e-12)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(InvalidInputError):
            nn.bigru_forward(np.zeros((0, 3)), nn.init_bigru(rng, 3, 5))

    def test_sequence_gradients(self):
        rng = np.random.default_rng(32)
        p = nn.init_bigru(rng, 3, 4)
        xs = rng.standard_normal((3, 3))
        ys, final, cache = nn.bigru_forward(xs, p)
        cys = rng.standard_normal(ys.shape)
        cf = rng.standard_normal(final.shape)

        def loss():
            out, fin, _ = nn.bigru_forward(xs, p)
            return float(np.sum(out * cys) + np.sum(fin * cf))

        dxs, grads = nn.bigru_backward(cys, cf, cache, p)
        arrays = {"x": xs}
        analytic = {"x": dxs}
        for d in ("fwd", "bwd"):
            for k in p[d]:
                arrays[f"{d}.{k}"] = p[d][k]
                analytic[f"{d}.{k}"] = grads[d][k]
        assert nn.grad_check(loss, arrays, analytic) <= 1e-4


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
