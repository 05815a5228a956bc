"""Deterministic DSP front end: raw audio to log-mel spectrograms and MFCCs.

The pipeline is preemphasis -> framing -> Hamming window -> FFT -> power
spectrum -> triangular mel filterbank -> log -> normalization. Everything is
a pure function over immutable inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, TooShortError

LOG_FLOOR = 1e-10

# Window coefficients for the Hamming family member used throughout.
HAMMING_A = 0.53836
HAMMING_B = 0.46164


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM sample sequence with its sample rate.

    Samples are dimensionless amplitudes, expected (not enforced) in [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError("audio must be a 1-D sample sequence")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("audio contains non-finite samples")
        if self.sample_rate <= 0:
            raise InvalidInputError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


class FrontendConfig:
    """The front end's settings: one value each, so class constants."""

    __slots__ = ()

    preemphasis_alpha = 0.97
    win_ms = 25.0
    hop_ms = 10.0
    n_mels = 80
    f_min_hz = 50.0
    f_max_hz = 2500.0
    n_fft = 512


def _ms_to_samples(ms: float, sample_rate: int) -> int:
    return int(round(ms * sample_rate / 1000.0))


@dataclass(frozen=True)
class LogMelSpectrogram:
    """Time x n_mels matrix of normalized log-mel energies."""

    frames: np.ndarray  # (T, n_mels)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.frames.shape[1]


def preemphasize(signal: AudioSignal) -> AudioSignal:
    """First-order high-pass: y[n] = x[n] - alpha * x[n-1], with y[0] = x[0]
    and alpha = FrontendConfig.preemphasis_alpha."""
    x = signal.samples
    if x.size == 0:
        raise InvalidInputError("cannot preemphasize an empty signal")
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - FrontendConfig.preemphasis_alpha * x[:-1]
    return AudioSignal(y, signal.sample_rate)


def hamming_window(n_points: int) -> np.ndarray:
    """w(n) = 0.53836 - 0.46164 * cos(2*pi*n / (N-1)), length N >= 2."""
    if n_points < 2:
        raise InvalidInputError("window needs at least 2 points")
    n = np.arange(n_points, dtype=np.float64)
    return HAMMING_A - HAMMING_B * np.cos(2.0 * np.pi * n / (n_points - 1))


def frame_signal(signal: AudioSignal) -> np.ndarray:
    """Slice a signal into overlapping FrontendConfig.win_ms frames every
    FrontendConfig.hop_ms, no padding.

    Returns a read-only (T, win) strided view of the samples, where
    T = floor((L - win) / hop) + 1 and frame i starts at sample i * hop.
    """
    sr = signal.sample_rate
    win = _ms_to_samples(FrontendConfig.win_ms, sr)
    hop = _ms_to_samples(FrontendConfig.hop_ms, sr)
    x = signal.samples
    if len(x) < win:
        raise TooShortError(
            f"signal of {len(x)} samples is shorter than one {win}-sample window"
        )
    return sliding_window_view(x, win)[::hop]


def _check_fft_size(frame_len: int, n_fft: int) -> None:
    if not (n_fft > 0 and (n_fft & (n_fft - 1)) == 0):
        raise InvalidInputError(f"n_fft={n_fft} is not a power of two")
    if frame_len > n_fft:
        raise InvalidInputError(
            f"frame of {frame_len} samples is longer than n_fft={n_fft}"
        )


def spectrum(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """FFT of a real frame, zero-padded to a power-of-two n_fft.

    Accepts a single frame (win,) or a batch (B, win); returns complex bins of
    matching leading shape with n_fft values per frame.
    """
    x = np.asarray(frame, dtype=np.float64)
    _check_fft_size(x.shape[-1], n_fft)
    return np.fft.fft(x, n=n_fft, axis=-1)


def hz_to_mel(hz) -> np.ndarray | float:
    """mel = 2595 * log10(1 + hz / 700)."""
    hz = np.asarray(hz, dtype=np.float64)
    if np.any(hz < 0):
        raise InvalidInputError("frequency must be non-negative")
    out = 2595.0 * np.log10(1.0 + hz / 700.0)
    return float(out) if out.ndim == 0 else out


def mel_to_hz(mel) -> np.ndarray | float:
    """hz = 700 * (10^(mel / 2595) - 1)."""
    mel = np.asarray(mel, dtype=np.float64)
    if np.any(mel < 0):
        raise InvalidInputError("mel value must be non-negative")
    out = 700.0 * (10.0 ** (mel / 2595.0) - 1.0)
    return float(out) if out.ndim == 0 else out


def build_mel_filterbank(sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft // 2 + 1) weights: one triangular filter per mel
    channel over the FFT bin frequencies, centers equally spaced in mel.

    Adjacent triangles share band edges, so they cross at half height. All
    support lies within [f_min_hz, f_max_hz].
    """
    cfg = FrontendConfig
    if cfg.f_max_hz > sample_rate / 2:
        raise InvalidInputError(
            f"f_max_hz={cfg.f_max_hz} exceeds Nyquist {sample_rate / 2}"
        )
    n_bins = cfg.n_fft // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / cfg.n_fft

    mel_pts = np.linspace(
        hz_to_mel(cfg.f_min_hz), hz_to_mel(cfg.f_max_hz), cfg.n_mels + 2
    )
    hz_pts = mel_to_hz(mel_pts)

    weights = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


@functools.lru_cache(maxsize=16)
def _mel_projection(sample_rate: int):
    """(window, weights.T) for one sample rate, built on first use and
    shared read-only by every later call at that rate."""
    window = hamming_window(_ms_to_samples(FrontendConfig.win_ms, sample_rate))
    weights_t = np.ascontiguousarray(build_mel_filterbank(sample_rate).T)
    window.flags.writeable = False
    weights_t.flags.writeable = False
    return window, weights_t


def log_mel_spectrogram(signal: AudioSignal,
                        config: FrontendConfig) -> LogMelSpectrogram:
    """Full front-end pipeline producing a normalized (T, n_mels) matrix with
    the FrontendConfig constants, which `config` names.

    The clip is min-max scaled to [-1, 1] on its own; a degenerate constant
    spectrogram (e.g. digital silence) normalizes to all zeros.
    """
    sr = signal.sample_rate
    _check_fft_size(_ms_to_samples(FrontendConfig.win_ms, sr), FrontendConfig.n_fft)

    frames = frame_signal(preemphasize(signal))
    window, weights_t = _mel_projection(sr)

    # the real FFT gives the n_fft // 2 + 1 bins the filterbank spans
    bins = np.fft.rfft(frames * window, n=FrontendConfig.n_fft, axis=-1)
    power = bins.real * bins.real
    power += bins.imag * bins.imag
    log_mel = power @ weights_t
    log_mel += LOG_FLOOR
    np.log(log_mel, out=log_mel)

    lo, hi = log_mel.min(), log_mel.max()
    if hi - lo < 1e-12:
        scaled = np.zeros_like(log_mel)
    else:
        scaled = 2.0 * (log_mel - lo) / (hi - lo) - 1.0
    return LogMelSpectrogram(frames=scaled)


def _dct_ii_matrix(n: int) -> np.ndarray:
    # Orthonormal DCT-II basis: rows are cosine vectors, row 0 scaled by 1/sqrt(2).
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    basis[0] /= np.sqrt(2.0)
    return basis


def mfcc(spec: LogMelSpectrogram, n_mfcc: int) -> np.ndarray:
    """Orthonormal DCT-II of each log-mel frame, first n_mfcc coefficients."""
    n = spec.n_mels
    if n_mfcc > n:
        raise InvalidInputError(f"n_mfcc={n_mfcc} exceeds n_mels={n}")
    return spec.frames @ _dct_ii_matrix(n)[:n_mfcc].T


def write_spectrogram_csv(spec: LogMelSpectrogram, path) -> None:
    """One row per frame, comma-separated mel channels, no header."""
    np.savetxt(path, spec.frames, delimiter=",", fmt="%.17e")


def write_spectrogram_f32(spec: LogMelSpectrogram, path) -> None:
    """Raw little-endian float32 dump with an 8-byte (u32 T, u32 n_mels) header."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", spec.n_frames, spec.n_mels))
        fh.write(spec.frames.astype("<f4").tobytes())
