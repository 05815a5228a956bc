"""Dataset ingestion: RIFF/PCM16 WAV loading, cycle annotations, manifests,
and slicing recordings into labeled per-cycle clips.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, InvalidInputError, ParseError
from .frontend import AudioSignal, FrontendConfig, log_mel_spectrogram
from .textio import read_csv, read_lines
from .training import LabeledDataset

TARGET_SAMPLE_RATE = 16000
# no stethoscope records this slowly (ICBHI's lowest rate is 4 kHz); a lower
# rate is a corrupt header, and 0 Hz cannot be resampled at all
MIN_SAMPLE_RATE = 1000


def synthetic_tone_noise_dataset(n_clips: int = 60, duration_s: float = 2.0,
                                 seed: int = 0) -> LabeledDataset:
    """Separable 2-class demo set: narrowband tones (label 0) vs broadband
    noise (label 1). Used by the train command's self-contained demo and by
    the learnability checks."""
    if n_clips < 2 or not 0 < duration_s < np.inf:
        raise InvalidInputError("need n_clips >= 2 and a positive, finite duration")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = int(duration_s * TARGET_SAMPLE_RATE)
    try:
        t = np.arange(n) / TARGET_SAMPLE_RATE
    except MemoryError:
        raise InvalidInputError(
            f"cannot allocate a {duration_s:g} s clip ({n} samples)") from None
    pairs = []
    for i in range(n_clips):
        if i % 2 == 0:
            freq = rng.uniform(300.0, 600.0)
            x = 0.5 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(n)
            label = 0
        else:
            x = rng.uniform(-0.5, 0.5, n)
            label = 1
        spec = log_mel_spectrogram(
            AudioSignal(np.clip(x, -1, 1), TARGET_SAMPLE_RATE), FrontendConfig()
        )
        pairs.append((spec.frames, label))
    return LabeledDataset(pairs, n_classes=2)

# label schemes -> (n_classes, (crackles, wheezes) -> class index)
LABEL_SCHEMES = {
    "cw4": (4, {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}),
    "binary": (2, {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 1}),
}


@dataclass(frozen=True)
class AnnotationRecord:
    begin_s: float
    end_s: float
    crackles: bool
    wheezes: bool

    def __post_init__(self):
        if not 0.0 <= self.begin_s < self.end_s < np.inf:
            raise InvalidInputError(
                f"need 0 <= begin < end < inf, got [{self.begin_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class ManifestEntry:
    wav_path: str
    annotation_path: str | None
    inline_label: int | None
    patient_id: str
    emr_key: str | None


@dataclass(frozen=True)
class Manifest:
    entries: tuple


# ----------------------------------------------------------------------- WAV

def _need(data: bytes, offset: int, count: int, what: str) -> memoryview:
    """The `count` bytes at `offset`, as a view: the data chunk is not copied."""
    if offset + count > len(data):
        raise FormatError(f"truncated while reading {what}", offset=offset)
    return memoryview(data)[offset:offset + count]


def load_wav(path) -> AudioSignal:
    """Parse a RIFF PCM16 WAV; scale by 1/32768, average stereo to mono,
    linearly resample to 16 kHz when the file rate differs."""
    with open(path, "rb") as fh:
        data = fh.read()

    if _need(data, 0, 4, "RIFF tag") != b"RIFF":
        raise FormatError("not a RIFF file", offset=0)
    if _need(data, 8, 4, "WAVE tag") != b"WAVE":
        raise FormatError("not a WAVE file", offset=8)

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body_start = pos + 8
        if chunk_id == b"fmt ":
            body = _need(data, body_start, 16, "fmt chunk")
            fmt = struct.unpack("<HHIIHH", body)
            audio_format, n_channels, sample_rate, _, _, bits = fmt
            if audio_format != 1:
                raise FormatError(
                    f"unsupported encoding {audio_format} (want PCM)",
                    offset=body_start,
                )
            if bits != 16:
                raise FormatError(
                    f"unsupported bit depth {bits} (want 16)", offset=body_start + 14
                )
            if n_channels not in (1, 2):
                raise FormatError(
                    f"unsupported channel count {n_channels}", offset=body_start + 2
                )
            if sample_rate < MIN_SAMPLE_RATE:
                raise FormatError(f"sample rate {sample_rate} Hz is below "
                                  f"{MIN_SAMPLE_RATE} Hz", offset=body_start + 4)
        elif chunk_id == b"data":
            payload = _need(data, body_start, size, "data chunk")
        # chunk bodies are padded to even length
        pos = body_start + size + (size % 2)

    if fmt is None:
        raise FormatError("missing fmt chunk", offset=len(data))
    if payload is None:
        raise FormatError("missing data chunk", offset=len(data))

    _, n_channels, sample_rate, _, _, _ = fmt
    raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
    samples = raw / 32768.0  # int16 over a float: float64 in one pass
    if n_channels == 2:
        if len(samples) % 2:
            samples = samples[:-1]
        samples = samples.reshape(-1, 2).mean(axis=1)

    if sample_rate != TARGET_SAMPLE_RATE and samples.size:
        samples = _resample_linear(samples, sample_rate, TARGET_SAMPLE_RATE)
    if samples.size == 0:
        raise FormatError("empty data chunk", offset=len(data))
    return AudioSignal(samples=samples, sample_rate=TARGET_SAMPLE_RATE)


def _resample_linear(samples, rate_in: int, rate_out: int):
    n_out = int(round(len(samples) * rate_out / rate_in))
    positions = np.arange(n_out) * (rate_in / rate_out)
    return np.interp(positions, np.arange(len(samples)), samples)


# --------------------------------------------------------------- annotations

def parse_cycle_annotations(path):
    """Whitespace-separated lines: begin end crackles wheezes."""
    records = []
    for line_no, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 columns, got {len(fields)}", line=line_no)
        try:
            begin, end = float(fields[0]), float(fields[1])
        except ValueError:
            raise ParseError("times must be numeric", line=line_no)
        if fields[2] not in ("0", "1") or fields[3] not in ("0", "1"):
            raise ParseError("flags must be 0 or 1", line=line_no)
        try:
            records.append(
                AnnotationRecord(
                    begin_s=begin,
                    end_s=end,
                    crackles=fields[2] == "1",
                    wheezes=fields[3] == "1",
                )
            )
        except InvalidInputError as exc:
            raise ParseError(str(exc), line=line_no)
    return records


# ------------------------------------------------------------------ manifest

MANIFEST_COLUMNS = ["wav_path", "annotation_path", "patient_id", "emr_key"]
INLINE_PREFIX = "label:"


def load_manifest(path) -> Manifest:
    """CSV with columns wav_path, annotation_path, patient_id, emr_key.
    The annotation cell may instead carry an inline "label:<int>" for
    whole-clip labels. Referenced files must exist; a WAV may not appear
    under two patient ids."""
    base = os.path.dirname(os.path.abspath(path))
    rows = read_csv(path)
    if not rows or [h.strip() for h in rows[0]] != MANIFEST_COLUMNS:
        raise ParseError(
            f"manifest header must be {','.join(MANIFEST_COLUMNS)}", line=1
        )

    entries = []
    patient_by_wav = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ParseError(f"expected 4 cells, got {len(row)}", line=line_no)
        wav_cell, ann_cell, patient, emr_key = (c.strip() for c in row)
        wav_path = os.path.join(base, wav_cell)
        if not os.path.isfile(wav_path):
            raise DataError(f"missing WAV file: {wav_cell} (line {line_no})")
        inline = None
        ann_path = None
        if ann_cell.startswith(INLINE_PREFIX):
            try:
                inline = int(ann_cell[len(INLINE_PREFIX):])
            except ValueError:
                raise ParseError(f"bad inline label {ann_cell!r}", line=line_no)
        elif ann_cell:
            ann_path = os.path.join(base, ann_cell)
            if not os.path.isfile(ann_path):
                raise DataError(
                    f"missing annotation file: {ann_cell} (line {line_no})"
                )
        else:
            raise ParseError("entry needs an annotation path or inline label",
                             line=line_no)
        if patient_by_wav.get(wav_path, patient) != patient:
            raise DataError(f"{wav_cell} listed under two patient ids")
        patient_by_wav[wav_path] = patient
        entries.append(ManifestEntry(
            wav_path=wav_path,
            annotation_path=ann_path,
            inline_label=inline,
            patient_id=patient,
            emr_key=emr_key or None,
        ))
    return Manifest(entries=tuple(entries))


# ------------------------------------------------------------- event dataset

def build_event_dataset(manifest: Manifest,
                        label_scheme: str = "cw4") -> LabeledDataset:
    """Slice each recording into per-cycle clips and attach class labels."""
    if label_scheme not in LABEL_SCHEMES:
        raise InvalidInputError(f"unknown label scheme {label_scheme!r}")
    n_classes, mapping = LABEL_SCHEMES[label_scheme]

    pairs = []
    for entry in manifest.entries:
        signal = load_wav(entry.wav_path)
        sr = signal.sample_rate
        if entry.inline_label is not None:
            label = entry.inline_label
            if not 0 <= label < n_classes:
                raise DataError(
                    f"inline label {label} outside scheme {label_scheme!r} "
                    f"for {entry.wav_path}"
                )
            features = log_mel_spectrogram(signal, FrontendConfig())
            pairs.append((features.frames, label))
            continue
        for record in parse_cycle_annotations(entry.annotation_path):
            begin = int(round(record.begin_s * sr))
            end = int(round(record.end_s * sr))
            if end > len(signal.samples):
                raise DataError(
                    f"annotation [{record.begin_s}, {record.end_s}] exceeds "
                    f"audio length of {entry.wav_path}"
                )
            clip = AudioSignal(samples=signal.samples[begin:end], sample_rate=sr)
            features = log_mel_spectrogram(clip, FrontendConfig())
            label = mapping[(int(record.crackles), int(record.wheezes))]
            pairs.append((features.frames, label))
    return LabeledDataset(pairs, n_classes=n_classes)
