import numpy as np
import pytest

from auscult import frontend
from auscult.errors import InvalidInputError, TooShortError
from auscult.frontend import (
    AudioSignal,
    FrontendConfig,
    LogMelSpectrogram,
    build_mel_filterbank,
    frame_signal,
    hamming_window,
    hz_to_mel,
    inverse_mfcc,
    log_mel_spectrogram,
    mel_to_hz,
    mfcc,
    preemphasize,
    read_spectrogram_csv,
    read_spectrogram_f32,
    spectrum,
    write_spectrogram_csv,
    write_spectrogram_f32,
)


def naive_dft(x, n_fft):
    # Direct O(n^2) definition, the independent reference for the FFT.
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < n_fft:
        x = np.concatenate([x, np.zeros(n_fft - x.shape[0])])
    n = np.arange(n_fft)
    basis = np.exp(-2j * np.pi * np.outer(n, n) / n_fft)
    return basis @ x


def reference_log_mel(x, sr, cfg):
    # Independent pipeline: preemphasis, Hamming frames and an rfft power
    # spectrum through triangles drawn bin by bin from the mel formula, then
    # per-clip min-max scaling.
    y = np.append(x[0], x[1:] - cfg.preemphasis_alpha * x[:-1])
    win = int(round(cfg.win_ms * sr / 1000.0))
    hop = int(round(cfg.hop_ms * sr / 1000.0))
    window = 0.53836 - 0.46164 * np.cos(2 * np.pi * np.arange(win) / (win - 1))
    frames = np.array([y[s : s + win] * window
                       for s in range(0, len(y) - win + 1, hop)])
    power = np.abs(np.fft.rfft(frames, n=cfg.n_fft, axis=1)) ** 2
    mel_edges = np.linspace(2595 * np.log10(1 + cfg.f_min_hz / 700),
                            2595 * np.log10(1 + cfg.f_max_hz / 700),
                            cfg.n_mels + 2)
    edges = 700 * (10 ** (mel_edges / 2595) - 1)
    freqs = np.fft.rfftfreq(cfg.n_fft, 1.0 / sr)
    fb = np.zeros((cfg.n_mels, len(freqs)))
    for m in range(cfg.n_mels):
        lo, center, hi = edges[m : m + 3]
        for j, f in enumerate(freqs):
            if lo < f <= center:
                fb[m, j] = (f - lo) / (center - lo)
            elif center < f < hi:
                fb[m, j] = (hi - f) / (hi - center)
    log_mel = np.log(power @ fb.T + 1e-10)
    lo, hi = log_mel.min(), log_mel.max()
    return 2.0 * (log_mel - lo) / (hi - lo) - 1.0


def naive_dct_ii(row):
    # Orthonormal DCT-II straight from the summation formula.
    n = row.shape[0]
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += row[m] * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


class TestPreemphasis:
    def test_matches_recurrence(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(257)
        y = preemphasize(AudioSignal(x), 0.97).samples
        assert y[0] == x[0]
        for n in range(1, len(x)):
            assert y[n] == pytest.approx(x[n] - 0.97 * x[n - 1], abs=1e-15)

    def test_alpha_zero_is_identity(self):
        x = np.linspace(-1, 1, 50)
        y = preemphasize(AudioSignal(x), 0.0).samples
        np.testing.assert_array_equal(y, x)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidInputError):
            preemphasize(AudioSignal(np.zeros(10)), 1.0)
        with pytest.raises(InvalidInputError):
            preemphasize(AudioSignal(np.zeros(10)), -0.1)

    def test_suppresses_dc(self):
        x = np.ones(1000)
        y = preemphasize(AudioSignal(x), 0.97).samples
        assert abs(y[1:]).max() == pytest.approx(0.03)


class TestHammingWindow:
    def test_endpoints_and_peak(self):
        w = hamming_window(401)
        assert w[0] == pytest.approx(0.53836 - 0.46164)
        assert w[-1] == pytest.approx(0.53836 - 0.46164)
        assert w[200] == pytest.approx(1.0)

    def test_symmetry(self):
        w = hamming_window(400)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            hamming_window(1)


class TestFraming:
    def test_frame_count_formula(self):
        sr = 16000
        for n_samples, expected in [(400, 1), (560, 2), (160000, 998)]:
            sig = AudioSignal(np.zeros(n_samples), sr)
            frames = frame_signal(sig, 25.0, 10.0)
            assert frames.shape == (expected, 400)

    def test_frames_are_hop_shifted_slices(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1200)
        frames = frame_signal(AudioSignal(x, 16000), 25.0, 10.0)
        for i in range(frames.shape[0]):
            np.testing.assert_array_equal(frames[i], x[i * 160 : i * 160 + 400])

    def test_short_signal_raises(self):
        with pytest.raises(TooShortError):
            frame_signal(AudioSignal(np.zeros(399), 16000), 25.0, 10.0)

    def test_frames_are_read_only(self):
        frames = frame_signal(AudioSignal(np.zeros(1200), 16000), 25.0, 10.0)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0


class TestSpectrum:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(2)
        for n_fft in (8, 64, 512):
            x = rng.standard_normal(n_fft)
            np.testing.assert_allclose(
                spectrum(x, n_fft), naive_dft(x, n_fft), atol=1e-9
            )

    def test_zero_padding_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        np.testing.assert_allclose(spectrum(x, 512), naive_dft(x, 512), atol=1e-9)

    def test_batch_equals_per_frame(self):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((7, 100))
        stacked = spectrum(batch, 128)
        for i in range(7):
            np.testing.assert_allclose(
                stacked[i], spectrum(batch[i], 128), atol=1e-12
            )

    def test_parseval(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        bins = spectrum(x, 512)
        time_energy = np.sum(x**2)
        freq_energy = np.sum(np.abs(bins) ** 2) / 512
        assert abs(time_energy - freq_energy) < 1e-8

    def test_impulse_is_flat(self):
        x = np.zeros(64)
        x[0] = 1.0
        np.testing.assert_allclose(spectrum(x, 64), np.ones(64), atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidInputError):
            spectrum(np.zeros(100), 100)

    def test_rejects_frame_longer_than_n_fft(self):
        with pytest.raises(InvalidInputError):
            spectrum(np.zeros(600), 512)


class TestMelScale:
    def test_reference_point(self):
        # 2595 * log10(2) at exactly 700 Hz.
        assert hz_to_mel(700.0) == pytest.approx(781.1728387480312, abs=1e-9)

    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(0.0) == 0.0

    def test_round_trip(self):
        hz = np.linspace(0.0, 8000.0, 97)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(hz)), hz, atol=1e-9)

    def test_monotonic(self):
        mel = hz_to_mel(np.linspace(1.0, 8000.0, 500))
        assert np.all(np.diff(mel) > 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            hz_to_mel(-1.0)


class TestMelFilterbank:
    def setup_method(self):
        self.cfg = FrontendConfig()
        self.fb = build_mel_filterbank(self.cfg, 16000)

    def test_shape(self):
        assert self.fb.weights.shape == (80, 257)
        assert self.fb.center_freqs_hz.shape == (80,)

    def test_weights_bounded(self):
        assert self.fb.weights.min() >= 0.0
        assert self.fb.weights.max() <= 1.0 + 1e-12

    def test_centers_equally_spaced_in_mel(self):
        mels = hz_to_mel(self.fb.center_freqs_hz)
        np.testing.assert_allclose(np.diff(mels), np.diff(mels)[0], atol=1e-9)

    def test_support_within_band(self):
        bin_freqs = np.arange(257) * 16000 / 512
        active = self.fb.weights.sum(axis=0) > 0
        assert bin_freqs[active].min() >= self.cfg.f_min_hz
        assert bin_freqs[active].max() <= self.cfg.f_max_hz

    def test_adjacent_filters_sum_to_one_between_centers(self):
        # Triangles sharing edges are exact partitions of unity on the
        # interior span, which pins both slopes at once.
        bin_freqs = np.arange(257) * 16000 / 512
        centers = self.fb.center_freqs_hz
        interior = (bin_freqs > centers[0]) & (bin_freqs < centers[-1])
        col_sums = self.fb.weights.sum(axis=0)
        np.testing.assert_allclose(col_sums[interior], 1.0, atol=1e-9)

    def test_rejects_band_beyond_nyquist(self):
        with pytest.raises(InvalidInputError):
            build_mel_filterbank(FrontendConfig(f_max_hz=9000.0), 16000)


class TestLogMelSpectrogram:
    def test_ten_second_clip_shape(self):
        rng = np.random.default_rng(6)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, 160000), 16000)
        spec = log_mel_spectrogram(sig, FrontendConfig())
        assert spec.frames.shape == (998, 80)
        np.testing.assert_allclose(
            spec.frame_times, np.arange(998) * 0.010, atol=1e-12
        )

    def test_per_clip_normalization_hits_both_ends(self):
        rng = np.random.default_rng(7)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, 16000), 16000)
        spec = log_mel_spectrogram(sig, FrontendConfig())
        assert spec.frames.min() == pytest.approx(-1.0)
        assert spec.frames.max() == pytest.approx(1.0)

    def test_silence_normalizes_to_zeros(self):
        spec = log_mel_spectrogram(AudioSignal(np.zeros(16000), 16000), FrontendConfig())
        np.testing.assert_array_equal(spec.frames, np.zeros_like(spec.frames))

    def test_global_normalization_clips(self):
        rng = np.random.default_rng(8)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, 16000), 16000)
        spec = log_mel_spectrogram(sig, FrontendConfig(), normalization=(-5.0, 1.0))
        assert spec.frames.min() >= -1.0
        assert spec.frames.max() <= 1.0

    def test_global_normalization_formula(self):
        rng = np.random.default_rng(9)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, 16000), 16000)
        wide = log_mel_spectrogram(sig, FrontendConfig(), normalization=(0.0, 1e9))
        shifted = log_mel_spectrogram(sig, FrontendConfig(), normalization=(1.0, 1e9))
        np.testing.assert_allclose(
            wide.frames - shifted.frames, 1e-9, atol=1e-15
        )

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-0.5, 0.5, 16000)
        a = log_mel_spectrogram(AudioSignal(x, 16000), FrontendConfig())
        b = log_mel_spectrogram(AudioSignal(x.copy(), 16000), FrontendConfig())
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(13)
        t = np.arange(160000) / 16000
        x = 0.3 * np.sin(2 * np.pi * 440 * t) + rng.uniform(-0.2, 0.2, t.size)
        cfg = FrontendConfig()
        spec = log_mel_spectrogram(AudioSignal(x, 16000), cfg)
        np.testing.assert_allclose(
            spec.frames, reference_log_mel(x, 16000, cfg), rtol=0, atol=1e-9
        )


def complex_fft_log_mel(x, sr, cfg):
    # The front end as it stood with a gathered frame matrix and a complex FFT
    # cut to its first n_fft // 2 + 1 bins.
    y = np.append(x[0], x[1:] - cfg.preemphasis_alpha * x[:-1])
    win, hop = cfg.win_samples(sr), cfg.hop_samples(sr)
    idx = np.arange((len(y) - win) // hop + 1)[:, None] * hop + np.arange(win)
    frames = y[idx] * hamming_window(win)[None, :]
    bins = np.fft.fft(frames, n=cfg.n_fft, axis=-1)[:, : cfg.n_fft // 2 + 1]
    power = bins.real**2 + bins.imag**2
    log_mel = np.log(power @ build_mel_filterbank(cfg, sr).weights.T + 1e-10)
    lo, hi = log_mel.min(), log_mel.max()
    return 2.0 * (log_mel - lo) / (hi - lo) - 1.0


class TestRealFftPath:
    def test_matches_complex_fft_path_and_keeps_input(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-0.5, 0.5, 32000)
        sig = AudioSignal(x, 16000)
        before = sig.samples.copy()
        cfg = FrontendConfig()
        spec = log_mel_spectrogram(sig, cfg)
        assert np.array_equal(sig.samples, before)
        np.testing.assert_allclose(
            spec.frames, complex_fft_log_mel(x, 16000, cfg), rtol=0, atol=1e-12
        )

    def test_non_power_of_two_n_fft_rejected(self):
        sig = AudioSignal(np.zeros(16000), 16000)
        with pytest.raises(InvalidInputError):
            log_mel_spectrogram(sig, FrontendConfig(n_fft=500))


class TestMelProjectionCache:
    def test_read_only_and_per_sample_rate(self):
        cfg = FrontendConfig()
        win16, weights16 = frontend._mel_projection(cfg, 16000)
        win8, weights8 = frontend._mel_projection(cfg, 8000)
        for arr in (win16, weights16, win8, weights8):
            assert not arr.flags.writeable
        assert (len(win16), len(win8)) == (400, 200)
        np.testing.assert_array_equal(
            weights16, build_mel_filterbank(cfg, 16000).weights.T
        )
        np.testing.assert_array_equal(
            weights8, build_mel_filterbank(cfg, 8000).weights.T
        )
        assert not np.array_equal(weights16, weights8)

    def test_filterbank_built_once_per_setting(self, monkeypatch):
        built = []
        real = frontend.build_mel_filterbank

        def counting(config, sample_rate):
            built.append(sample_rate)
            return real(config, sample_rate)

        monkeypatch.setattr(frontend, "build_mel_filterbank", counting)
        frontend._mel_projection.cache_clear()
        sig = AudioSignal(np.random.default_rng(14).uniform(-0.5, 0.5, 8000), 16000)
        first = log_mel_spectrogram(sig, FrontendConfig())
        again = log_mel_spectrogram(sig, FrontendConfig())
        assert built == [16000]
        np.testing.assert_array_equal(first.frames, again.frames)


class TestMfcc:
    def _spec(self, seed, n_frames=5, n_mels=80):
        rng = np.random.default_rng(seed)
        frames = rng.uniform(-1, 1, (n_frames, n_mels))
        return LogMelSpectrogram(frames=frames, frame_times=np.arange(n_frames) * 0.01)

    def test_matches_naive_dct(self):
        spec = self._spec(11, n_frames=3, n_mels=16)
        got = mfcc(spec, 16)
        for i in range(3):
            np.testing.assert_allclose(got[i], naive_dct_ii(spec.frames[i]), atol=1e-12)

    def test_truncation_keeps_leading_coefficients(self):
        spec = self._spec(12)
        full = mfcc(spec, 80)
        lead = mfcc(spec, 13)
        assert lead.shape == (5, 13)
        np.testing.assert_allclose(lead, full[:, :13], atol=1e-12)

    def test_orthonormal_round_trip(self):
        spec = self._spec(13)
        coeffs = mfcc(spec, 80)
        np.testing.assert_allclose(inverse_mfcc(coeffs, 80), spec.frames, atol=1e-9)

    def test_rejects_too_many_coefficients(self):
        with pytest.raises(InvalidInputError):
            mfcc(self._spec(14), 81)


class TestSpectrogramIo:
    def _spec(self):
        rng = np.random.default_rng(15)
        frames = rng.uniform(-1, 1, (40, 80))
        return LogMelSpectrogram(frames=frames, frame_times=np.arange(40) * 0.01)

    def test_csv_round_trip(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(spec, path)
        back = read_spectrogram_csv(path)
        np.testing.assert_allclose(back.frames, spec.frames, atol=1e-12)
        # 80 comma-separated columns per line, no header row
        first = path.read_text().splitlines()[0]
        assert len(first.split(",")) == 80

    def test_f32_round_trip(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.f32"
        write_spectrogram_f32(spec, path)
        back = read_spectrogram_f32(path)
        assert back.frames.shape == (40, 80)
        np.testing.assert_allclose(back.frames, spec.frames, atol=1e-6)

    def test_f32_header_is_two_u32(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.f32"
        write_spectrogram_f32(spec, path)
        raw = path.read_bytes()
        assert len(raw) == 8 + 40 * 80 * 4
        assert int.from_bytes(raw[0:4], "little") == 40
        assert int.from_bytes(raw[4:8], "little") == 80

    def test_f32_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.f32"
        path.write_bytes((10).to_bytes(4, "little") + (80).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(InvalidInputError):
            read_spectrogram_f32(path)


class TestValidation:
    def test_audio_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            AudioSignal(np.array([0.0, np.nan]))

    def test_audio_rejects_2d(self):
        with pytest.raises(InvalidInputError):
            AudioSignal(np.zeros((2, 100)))

    def test_config_rejects_inverted_band(self):
        with pytest.raises(InvalidInputError):
            FrontendConfig(f_min_hz=3000.0, f_max_hz=2500.0)

    def test_config_rejects_hop_above_win(self):
        with pytest.raises(InvalidInputError):
            FrontendConfig(win_ms=10.0, hop_ms=25.0)

    def test_nfft_smaller_than_window_rejected(self):
        sig = AudioSignal(np.zeros(16000), 16000)
        with pytest.raises(InvalidInputError):
            log_mel_spectrogram(sig, FrontendConfig(n_fft=256))
