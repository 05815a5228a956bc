import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auscult import model, nn
from auscult.errors import FormatError, InvalidInputError, ParseError, TooShortError
from auscult.frontend import AudioSignal


TINY = model.ReneConfig(
    whisper_layers=1, whisper_dim=8, whisper_heads=2,
    conformer_layers=1, conformer_dim=8, conformer_heads=2,
    bigru_hidden=8, n_classes=3,
    trial_kernel_sizes=((3,), (), (3,)), trial_channels=2,
)


class TestPresets:
    def test_rene_s(self):
        cfg = model.preset_config("rene_s")
        assert (cfg.whisper_layers, cfg.whisper_dim, cfg.whisper_heads) == (4, 384, 6)
        assert (cfg.conformer_layers, cfg.conformer_dim, cfg.conformer_heads) == (16, 256, 4)
        assert cfg.bigru_hidden == 512
        assert cfg.conformer_dim // cfg.conformer_heads == 64

    def test_rene_l(self):
        cfg = model.preset_config("rene_l")
        assert (cfg.whisper_layers, cfg.whisper_dim, cfg.whisper_heads) == (32, 1280, 20)
        assert (cfg.conformer_layers, cfg.conformer_dim, cfg.conformer_heads) == (17, 512, 8)
        assert cfg.whisper_dim // cfg.whisper_heads == 64

    def test_toy(self):
        cfg = model.preset_config("toy")
        assert (cfg.whisper_layers, cfg.whisper_dim, cfg.whisper_heads) == (2, 64, 2)
        assert (cfg.conformer_layers, cfg.conformer_dim, cfg.conformer_heads) == (2, 64, 2)
        assert cfg.bigru_hidden == 64

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            model.preset_config("rene_xl")

    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            model.ReneConfig(1, 10, 3, 1, 8, 2, 8)  # 10 % 3 != 0
        with pytest.raises(InvalidInputError):
            model.ReneConfig(1, 8, 2, 1, 8, 2, 8,
                             trial_kernel_sizes=((3, 5), (), (3, 5)))
        with pytest.raises(InvalidInputError):
            model.ReneConfig(1, 8, 2, 1, 8, 2, 8,
                             trial_kernel_sizes=((5, 3), (), (5, 3)))
        with pytest.raises(InvalidInputError):
            model.ReneConfig(1, 8, 2, 1, 8, 2, 8,
                             trial_kernel_sizes=((3,), (3,)))
        with pytest.raises(InvalidInputError):
            model.ReneConfig(1, 8, 2, 1, 8, 2, 8,
                             trial_kernel_sizes=((4,), (), (4,)))


class TestMostSquareFactorization:
    def test_known_cases(self):
        assert model.most_square_factorization(1024) == (32, 32)
        assert model.most_square_factorization(128) == (16, 8)
        assert model.most_square_factorization(12) == (4, 3)
        assert model.most_square_factorization(1) == (1, 1)
        assert model.most_square_factorization(7) == (7, 1)

    def test_product_and_ordering(self):
        for n in range(1, 200):
            rows, cols = model.most_square_factorization(n)
            assert rows * cols == n
            assert rows >= cols


class TestEncoder:
    def test_output_shape_halves_time(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=0)
        rng = np.random.default_rng(1)
        for t in (98, 99):
            y = model.encoder_forward(rng.uniform(-1, 1, (t, 80)), params, cfg)
            assert y.shape == (-(-t // 2), 64)

    def test_zero_sublayers_leave_conv_features(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=2)
        for i in range(cfg.whisper_layers):
            bp = params["encoder"][f"block{i}"]
            bp["attn"]["mhsa"]["wo"][:] = 0.0
            bp["attn"]["mhsa"]["bo"][:] = 0.0
            bp["ff"]["lin2"]["w"][:] = 0.0
            bp["ff"]["lin2"]["b"][:] = 0.0
        rng = np.random.default_rng(3)
        frames = rng.uniform(-1, 1, (40, 80))
        got = model.encoder_forward(frames, params, cfg)

        p = params["encoder"]
        h1, _ = nn.conv1d_forward(frames, p["conv1"]["w"], p["conv1"]["b"], 1, 1)
        h2, _ = nn.conv1d_forward(nn.gelu(h1), p["conv2"]["w"], p["conv2"]["b"], 2, 1)
        h = nn.gelu(h2) + nn.sinusoidal_positional_embedding(20, 64)
        expected, _ = nn.layer_norm_forward(
            h, p["ln_final"]["gain"], p["ln_final"]["bias"]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_wrong_channel_count_rejected(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=4)
        with pytest.raises(InvalidInputError):
            model.encoder_forward(np.zeros((30, 13)), params, cfg)

    def test_deterministic(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=5)
        rng = np.random.default_rng(6)
        frames = rng.uniform(-1, 1, (30, 80))
        a = model.encoder_forward(frames, params, cfg)
        b = model.encoder_forward(frames.copy(), params, cfg)
        np.testing.assert_array_equal(a, b)


class TestConformer:
    def _block_params(self, seed=7):
        cfg = model.preset_config("toy")
        return cfg, model.init_rene(cfg, seed)["conformer"]["block0"]

    def test_block_preserves_shape(self):
        cfg, bp = self._block_params()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 64))
        y = model._conformer_block_apply(x, bp, cfg.conformer_heads)[0]
        assert y.shape == (10, 64)

    def test_zero_sublayers_reduce_to_layer_norm(self):
        cfg, bp = self._block_params(9)
        for path in (bp["ff1"]["lin2"], bp["ff2"]["lin2"], bp["conv"]["pw2"]):
            path["w"][:] = 0.0
            path["b"][:] = 0.0
        bp["attn"]["mhsa"]["wo"][:] = 0.0
        bp["attn"]["mhsa"]["bo"][:] = 0.0
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 64))
        got = model._conformer_block_apply(x, bp, cfg.conformer_heads)[0]
        expected, _ = nn.layer_norm_forward(
            x, bp["ln_final"]["gain"], bp["ln_final"]["bias"]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_half_step_residual(self):
        # With only FF1 active, the block output must be exactly the final
        # layer norm of x + 0.5 * FF1(x).
        cfg, bp = self._block_params(11)
        for path in (bp["ff2"]["lin2"], bp["conv"]["pw2"]):
            path["w"][:] = 0.0
            path["b"][:] = 0.0
        bp["attn"]["mhsa"]["wo"][:] = 0.0
        bp["attn"]["mhsa"]["bo"][:] = 0.0
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 64))
        y = model._conformer_block_apply(x, bp, cfg.conformer_heads)[0]
        ff1_out, _ = model._ff_forward(x, bp["ff1"])
        expected, _ = nn.layer_norm_forward(
            x + 0.5 * ff1_out, bp["ln_final"]["gain"], bp["ln_final"]["bias"]
        )
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_encoder_quarters_length(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=13)
        rng = np.random.default_rng(14)
        y = model.conformer_encoder_forward(
            rng.standard_normal((499, 64)), params, cfg
        )
        assert y.shape == (125, 64)

    def test_too_short_sequence(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=15)
        with pytest.raises(TooShortError):
            model.conformer_encoder_forward(np.zeros((3, 64)), params, cfg)


class TestBigruDecode:
    def test_square_map_for_hidden_512(self):
        rng = np.random.default_rng(16)
        params = {"bigru": nn.init_bigru(rng, 16, 512)}
        cfg = model.preset_config("rene_s")
        fmap = model.bigru_decode(rng.standard_normal((5, 16)), params, cfg)
        assert fmap.shape == (32, 32)

    def test_toy_map_16_by_8(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=17)
        rng = np.random.default_rng(18)
        fmap = model.bigru_decode(rng.standard_normal((9, 64)), params, cfg)
        assert fmap.shape == (16, 8)

    def test_map_is_reshaped_final_state(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=19)
        rng = np.random.default_rng(20)
        seq = rng.standard_normal((7, 64))
        fmap = model.bigru_decode(seq, params, cfg)
        _, final, _ = nn.bigru_forward(seq, params["bigru"])
        np.testing.assert_array_equal(fmap.reshape(-1), final)


class TestTrialBlock:
    def test_logits_length(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=21)
        rng = np.random.default_rng(22)
        logits = model.trial_block_forward(rng.standard_normal((16, 8)), params, cfg)
        assert logits.shape == (4,)

    def test_zero_convs_collapse_to_mean_head(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=23)
        for key, sub in params["trial"].items():
            if key == "head":
                continue
            for arr in sub.values():
                arr[:] = 0.0
        rng = np.random.default_rng(24)
        fmap = rng.standard_normal((16, 8))
        logits = model.trial_block_forward(fmap, params, cfg)
        pooled = np.full(cfg.trial_channels, fmap.mean())
        expected = pooled @ params["trial"]["head"]["w"] + params["trial"]["head"]["b"]
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_receptive_fields_exceed_center(self):
        cfg = model.preset_config("toy")
        left, _, right = cfg.trial_kernel_sizes
        rf = lambda ks: sum(k - 1 for k in ks) + 1
        assert rf(left) == 13
        assert rf(right) == 13
        assert rf(left) > 1 and rf(right) > 1

    def test_map_smaller_than_kernel(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=25)
        with pytest.raises(TooShortError):
            model.trial_block_forward(np.zeros((6, 6)), params, cfg)


class TestReneForward:
    def test_one_second_clip(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=26)
        rng = np.random.default_rng(27)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, 16000), 16000)
        out = model.rene_forward(sig, params, cfg)
        assert out.probs.shape == (4,)
        assert out.probs.min() >= 0
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert out.embedding.shape == (128,)
        np.testing.assert_allclose(out.probs, nn.softmax(out.logits), atol=1e-15)

    def test_bit_identical_repeat(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=28)
        rng = np.random.default_rng(29)
        frames = rng.uniform(-1, 1, (60, 80))
        a = model.rene_apply(frames, params, cfg)[0]
        b = model.rene_apply(frames.copy(), params, cfg)[0]
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_class_permutation_equivariance(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=30)
        rng = np.random.default_rng(31)
        frames = rng.uniform(-1, 1, (40, 80))
        base = model.rene_apply(frames, params, cfg)[0]
        perm = rng.permutation(4)
        params["trial"]["head"]["w"][:] = params["trial"]["head"]["w"][:, perm]
        params["trial"]["head"]["b"][:] = params["trial"]["head"]["b"][perm]
        permuted = model.rene_apply(frames, params, cfg)[0]
        np.testing.assert_allclose(permuted.probs, base.probs[perm], atol=1e-12)
        assert np.argmax(permuted.probs) == np.argwhere(
            perm == np.argmax(base.probs)
        )[0, 0]

    def test_output_validation(self):
        with pytest.raises(InvalidInputError):
            model.ReneOutput(
                probs=np.array([0.5, 0.6]), logits=np.zeros(2), embedding=np.zeros(4)
            )

    def test_nan_output_rejected(self):
        with pytest.raises(InvalidInputError):
            model.ReneOutput(
                probs=np.array([np.nan, np.nan]), logits=np.zeros(2),
                embedding=np.zeros(4),
            )


class TestEndToEndGradient:
    def test_sampled_params_match_finite_differences(self):
        params = model.init_rene(TINY, seed=32, n_mels=5)
        rng = np.random.default_rng(33)
        frames = rng.uniform(-1, 1, (12, 5))
        weights = rng.standard_normal(TINY.n_classes)

        def loss():
            out, _ = model.rene_apply(frames, params, TINY)
            return float(np.sum(out.logits * weights))

        _, cache = model.rene_apply(frames, params, TINY)
        grads = model.rene_grad(weights, cache, params, TINY)
        flat_p = nn.flatten_params(params)
        flat_g = nn.flatten_params(grads)
        assert set(flat_p) == set(flat_g)
        for name in flat_p:
            assert flat_p[name].shape == flat_g[name].shape, name
        err = nn.grad_check(
            loss, flat_p, flat_g, max_entries=2, rng=np.random.default_rng(34)
        )
        assert err <= 1e-3


class TestParameterCount:
    def test_analytic_matches_actual_toy(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=35)
        assert model.estimate_parameter_count(cfg) == model.count_parameters(params)

    def test_analytic_matches_actual_tiny(self):
        params = model.init_rene(TINY, seed=36, n_mels=5)
        assert model.estimate_parameter_count(TINY, n_mels=5) == model.count_parameters(params)

    def test_toy_under_two_million(self):
        assert model.estimate_parameter_count(model.preset_config("toy")) < 2_000_000

    def test_preset_ordering(self):
        toy = model.estimate_parameter_count(model.preset_config("toy"))
        s = model.estimate_parameter_count(model.preset_config("rene_s"))
        large = model.estimate_parameter_count(model.preset_config("rene_l"))
        assert toy < s < large
        assert large > 100_000_000


    @pytest.mark.parametrize("cfg, n_mels, expected", [
        (model.preset_config("toy"), 80, 393_406),
        (model.preset_config("toy", n_classes=2), 80, 393_388),
        (TINY, 5, 4_299),
        (model.preset_config("rene_s"), 80, 34_230_526),
        (model.preset_config("rene_l"), 80, 746_969_342),
    ], ids=["toy", "toy2", "tiny", "rene_s", "rene_l"])
    def test_pinned_counts(self, cfg, n_mels, expected):
        assert model.estimate_parameter_count(cfg, n_mels=n_mels) == expected

    def test_large_estimate_allocates_no_weights(self):
        # a real rene_l tree would take about 5.6 GiB of float64
        tracemalloc.start()
        try:
            model.estimate_parameter_count(model.preset_config("rene_l"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def tree_digest(params):
    h = hashlib.sha256()
    for name, arr in nn.flatten_params(params).items():
        for part in (name, str(arr.dtype), str(arr.shape)):
            h.update(part.encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


class TestInitBitIdentity:
    @pytest.mark.parametrize("cfg, seed, n_mels, expected", [
        (model.preset_config("toy"), 0, 80, "cb5b98a763263808"),
        (model.preset_config("toy", n_classes=2), 0, 80, "6369e603321e365b"),
        (TINY, 32, 5, "7a53319ade5b26ec"),
    ], ids=["toy", "toy2", "tiny"])
    def test_digest(self, cfg, seed, n_mels, expected):
        assert tree_digest(model.init_rene(cfg, seed, n_mels=n_mels)) == expected


def shape_map(params):
    return {k: v.shape for k, v in nn.flatten_params(params).items()}


small_configs = st.builds(
    model.ReneConfig,
    whisper_layers=st.integers(1, 2),
    whisper_dim=st.sampled_from([2, 4]),
    whisper_heads=st.sampled_from([1, 2]),
    conformer_layers=st.integers(1, 2),
    conformer_dim=st.sampled_from([2, 4]),
    conformer_heads=st.sampled_from([1, 2]),
    bigru_hidden=st.sampled_from([2, 3]),
    n_classes=st.integers(2, 3),
    trial_kernel_sizes=st.sampled_from([((3,), (), (3,)), ((5, 3), (), (3,)),
                                        ((3,), (), (1, 3))]),
    trial_channels=st.integers(1, 2),
)


class TestCheckParams:
    def test_matching_tree_passes(self):
        model.check_params(model.init_rene(TINY, seed=40, n_mels=5), TINY, n_mels=5)

    def test_missing_leaf_named(self):
        flat = nn.flatten_params(model.init_rene(TINY, seed=41, n_mels=5))
        del flat["conformer.block0.conv.dw.b"]
        with pytest.raises(FormatError, match=r"conformer\.block0\.conv\.dw\.b"):
            model.check_params(nn.unflatten_params(flat), TINY, n_mels=5)

    def test_extra_leaf_named(self):
        params = model.init_rene(TINY, seed=42, n_mels=5)
        params["trial"]["left1"] = {"pw_bias": np.zeros(2)}
        with pytest.raises(FormatError, match=r"trial\.left1\.pw_bias"):
            model.check_params(params, TINY, n_mels=5)

    def test_wrong_shape_named(self):
        params = model.init_rene(TINY, seed=43, n_mels=5)
        with pytest.raises(FormatError, match=r"encoder\.conv1\.w"):
            model.check_params(params, TINY, n_mels=6)

    @settings(max_examples=40, deadline=None)
    @given(a=small_configs, b=small_configs)
    def test_raises_exactly_when_shapes_differ(self, a, b):
        params = model.init_rene(a, seed=0, n_mels=3)
        differ = shape_map(params) != shape_map(model.init_rene(b, seed=0, n_mels=3))
        if differ:
            with pytest.raises(FormatError):
                model.check_params(params, b, n_mels=3)
        else:
            model.check_params(params, b, n_mels=3)


class TestAuditShapes:
    def test_ten_second_rene_s(self):
        audit = model.audit_shapes(model.preset_config("rene_s"), 998)
        assert audit["whisper_encoder"] == (499, 384)
        assert audit["conformer_encoder"] == (125, 256)
        assert audit["decoder_state"] == (1024,)
        assert audit["feature_map"] == (32, 32)

    def test_matches_real_toy_forward(self):
        cfg = model.preset_config("toy")
        params = model.init_rene(cfg, seed=37)
        rng = np.random.default_rng(38)
        frames = rng.uniform(-1, 1, (98, 80))
        audit = model.audit_shapes(cfg, 98)

        enc = model.encoder_forward(frames, params, cfg)
        assert enc.shape == audit["whisper_encoder"]
        conf = model.conformer_encoder_forward(enc, params, cfg)
        assert conf.shape == audit["conformer_encoder"]
        fmap = model.bigru_decode(conf, params, cfg)
        assert fmap.shape == audit["feature_map"]
        out = model.rene_apply(frames, params, cfg)[0]
        assert out.embedding.shape == audit["decoder_state"]
        assert out.logits.shape == audit["logits"]


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = model.preset_config("rene_s", n_classes=7)
        path = tmp_path / "model.cfg"
        model.save_model_config(path, cfg)
        assert model.load_model_config(path) == cfg

    def test_file_is_flat_key_value(self, tmp_path):
        path = tmp_path / "model.cfg"
        model.save_model_config(path, model.preset_config("toy"))
        for line in path.read_text().splitlines():
            assert "=" in line

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        model.save_model_config(path, model.preset_config("toy"))
        path.write_text(path.read_text() + "mystery=1\n")
        with pytest.raises(ParseError) as exc:
            model.load_model_config(path)
        assert "line" in str(exc.value)

    def test_bad_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        model.save_model_config(path, model.preset_config("toy"))
        path.write_text(path.read_text().replace("bigru_hidden=64", "bigru_hidden=x"))
        with pytest.raises(ParseError):
            model.load_model_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        model.save_model_config(path, model.preset_config("toy"))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("n_classes")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            model.load_model_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "model.cfg"
        model.save_model_config(path, model.preset_config("toy"))
        path.write_text("# architecture\n\n" + path.read_text())
        assert model.load_model_config(path) == model.preset_config("toy")
