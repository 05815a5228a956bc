"""WAV parsing, annotation parsing, manifest loading, dataset slicing."""

import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auscult.data import (
    AnnotationRecord,
    build_event_dataset,
    load_manifest,
    load_wav,
    parse_cycle_annotations,
)
from auscult.errors import (
    AuscultError,
    DataError,
    FormatError,
    InvalidInputError,
    ParseError,
)


def write_wav(path, pcm, sample_rate, channels=1):
    """Reference writer from the standard library."""
    pcm = np.asarray(pcm, dtype="<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


class TestLoadWav:
    def test_full_scale_sample(self, tmp_path):
        path = tmp_path / "full.wav"
        write_wav(path, [32767, -32768], 16000)
        signal = load_wav(path)
        assert signal.samples[0] == pytest.approx(32767 / 32768)
        assert signal.samples[1] == pytest.approx(-1.0)

    def test_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, np.zeros(1600, dtype=np.int16), 16000)
        signal = load_wav(path)
        np.testing.assert_array_equal(signal.samples, 0.0)
        assert signal.sample_rate == 16000

    def test_stereo_averaged(self, tmp_path):
        path = tmp_path / "stereo.wav"
        # interleaved L/R pairs
        write_wav(path, [1000, 3000, -2000, 2000], 16000, channels=2)
        signal = load_wav(path)
        np.testing.assert_allclose(
            signal.samples, [2000 / 32768, 0.0], atol=1e-12
        )

    def test_resamples_8k_to_double_length(self, tmp_path):
        path = tmp_path / "low.wav"
        n = 800
        write_wav(path, np.arange(n, dtype=np.int16), 8000)
        signal = load_wav(path)
        assert len(signal.samples) == 2 * n
        assert signal.sample_rate == 16000
        # linear interpolation keeps a ramp a ramp at interior points
        expected = np.arange(n)[None].repeat(2, axis=0)  # placeholder shape
        mid = signal.samples[1:2 * n - 2:2] * 32768
        np.testing.assert_allclose(mid, np.arange(n - 1) + 0.5, atol=1e-9)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKxxxxWAVE")
        with pytest.raises(FormatError, match="offset 0"):
            load_wav(path)

    def test_not_wave(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x04\x00\x00\x00AVI ")
        with pytest.raises(FormatError, match="offset 8"):
            load_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 16)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 0)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(FormatError, match="encoding"):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 100) + b"\x00" * 10
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(FormatError, match="truncated"):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "nodata.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(FormatError, match="data chunk"):
            load_wav(path)

    def test_8_bit_rejected(self, tmp_path):
        path = tmp_path / "byte.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 16000, 1, 8)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 2) + b"\x00\x00"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(FormatError, match="bit depth"):
            load_wav(path)

    @pytest.mark.parametrize("rate", [16000, 8000])
    def test_empty_data_chunk_rejected(self, tmp_path, rate):
        path = tmp_path / "empty.wav"
        write_wav(path, [], rate)
        with pytest.raises(FormatError, match="empty data chunk"):
            load_wav(path)

    @pytest.mark.parametrize("rate", [0, 1, 999])
    def test_sample_rate_below_1_khz_rejected(self, tmp_path, rate):
        path = tmp_path / "slow.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
        body = b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(FormatError, match="offset 24"):
            load_wav(path)


@st.composite
def wav_bytes(draw):
    """A RIFF/WAVE header and up to three chunks, sizes true or arbitrary."""
    chunks = b""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([b"fmt ", b"data", b"LIST"]))
        if kind == b"fmt ":
            body = struct.pack(
                "<HHIIHH", draw(st.sampled_from([1, 3])), draw(st.integers(0, 3)),
                draw(st.one_of(st.integers(0, 20000), st.integers(0, 2**32 - 1))),
                0, 2, draw(st.sampled_from([8, 16])))
        else:
            body = draw(st.binary(max_size=64))
        size = draw(st.one_of(st.just(len(body)), st.integers(0, 2**32 - 1)))
        chunks += kind + struct.pack("<I", size) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestLoadWavFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), wav_bytes()))
    def test_returns_signal_or_raises_typed_error(self, fuzz_dir, raw):
        path = fuzz_dir / "fuzz.wav"
        path.write_bytes(raw)
        try:
            signal = load_wav(path)
        except AuscultError:
            return
        assert signal.sample_rate == 16000 and len(signal) > 0


class TestAnnotations:
    def test_worked_line(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.364 2.436 0 0\n")
        records = parse_cycle_annotations(path)
        assert records == [
            AnnotationRecord(begin_s=0.364, end_s=2.436, crackles=False,
                             wheezes=False)
        ]

    def test_multiple_lines_in_order(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0 1.0 1 0\n1.0 2.5 0 1\n2.5 3.0 1 1\n")
        records = parse_cycle_annotations(path)
        assert [r.crackles for r in records] == [True, False, True]
        assert [r.wheezes for r in records] == [False, True, True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("")
        assert parse_cycle_annotations(path) == []

    def test_end_before_begin(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("1.0 0.5 0 0\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_cycle_annotations(path)

    def test_line_number_counts_blanks(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0 1.0 0 0\n\n1.0 bad 0 0\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_cycle_annotations(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0 1.0 0\n")
        with pytest.raises(ParseError, match="4 columns"):
            parse_cycle_annotations(path)

    def test_bad_flag(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0 1.0 2 0\n")
        with pytest.raises(ParseError, match="flags"):
            parse_cycle_annotations(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_bytes(b"0.0 1.0 0 0\n\xff\xfe 2.0 0 0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_cycle_annotations(path)

    @pytest.mark.parametrize("line", ["0.0 inf 1 0", "nan 1.0 0 0", "0.0 1e999 0 1"])
    def test_non_finite_time_rejected(self, tmp_path, line):
        path = tmp_path / "ann.txt"
        path.write_text(f"0.0 1.0 0 0\n{line}\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_cycle_annotations(path)

    def test_record_invariant(self):
        with pytest.raises(InvalidInputError):
            AnnotationRecord(begin_s=-0.5, end_s=1.0, crackles=False, wheezes=False)


def make_corpus(tmp_path, seconds=4.0):
    """One 4 s recording with 4 annotated cycles covering all label pairs."""
    rng = np.random.default_rng(0)
    n = int(seconds * 16000)
    pcm = (rng.uniform(-0.3, 0.3, n) * 32768).astype(np.int16)
    wav = tmp_path / "rec.wav"
    write_wav(wav, pcm, 16000)
    ann = tmp_path / "rec.txt"
    ann.write_text(
        "0.10 1.00 0 0\n1.00 2.00 1 0\n2.00 3.00 0 1\n3.00 3.90 1 1\n"
    )
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "wav_path,annotation_path,patient_id,emr_key\nrec.wav,rec.txt,p1,101\n"
    )
    return manifest


class TestManifest:
    def test_loads_entries(self, tmp_path):
        path = make_corpus(tmp_path)
        manifest = load_manifest(path)
        assert len(manifest.entries) == 1
        entry = manifest.entries[0]
        assert entry.patient_id == "p1"
        assert entry.emr_key == "101"
        assert entry.annotation_path.endswith("rec.txt")

    def test_inline_label(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "inline.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,label:2,p1,\n"
        )
        manifest = load_manifest(path)
        assert manifest.entries[0].inline_label == 2
        assert manifest.entries[0].annotation_path is None
        assert manifest.entries[0].emr_key is None

    def test_missing_wav(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nghost.wav,label:0,p1,\n"
        )
        with pytest.raises(DataError, match="ghost.wav"):
            load_manifest(path)

    def test_missing_annotation(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,ghost.txt,p1,\n"
        )
        with pytest.raises(DataError, match="ghost.txt"):
            load_manifest(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("wav,ann,pid,key\n")
        with pytest.raises(ParseError, match="line 1"):
            load_manifest(path)

    def test_conflicting_patient_ids(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\n"
            "rec.wav,label:0,p1,\nrec.wav,label:1,p2,\n"
        )
        with pytest.raises(DataError, match="two patient ids"):
            load_manifest(path)

    def test_bad_inline_label(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "m.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,label:x,p1,\n"
        )
        with pytest.raises(ParseError, match="inline label"):
            load_manifest(path)

    def test_non_utf8_rejected(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "m.csv"
        path.write_bytes(b"wav_path,annotation_path,patient_id,emr_key\n"
                         b"rec.wav,label:0,p\xe9,\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_manifest(path)


MANIFEST_CELLS = st.sampled_from(
    ["", "rec.wav", "ghost.wav", "rec.txt", "label:0", "label:x", "label:",
     "p1", "p2", "101", '"rec.wav"', "a,b", "\x00"])


@st.composite
def manifest_bytes(draw):
    rows = draw(st.lists(st.lists(MANIFEST_CELLS, min_size=3, max_size=5),
                         max_size=5))
    return ("wav_path,annotation_path,patient_id,emr_key\n"
            + "".join(",".join(r) + "\n" for r in rows)).encode()


class TestManifestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), manifest_bytes()))
    def test_returns_manifest_or_raises_typed_error(self, fuzz_dir, raw):
        if not (fuzz_dir / "rec.wav").exists():
            make_corpus(fuzz_dir)
        path = fuzz_dir / "m.csv"
        path.write_bytes(raw)
        try:
            manifest = load_manifest(path)
        except AuscultError:
            return
        assert all(e.inline_label is not None or e.annotation_path
                   for e in manifest.entries)


class TestBuildEventDataset:
    def test_four_cycles_four_clips(self, tmp_path):
        manifest = load_manifest(make_corpus(tmp_path))
        dataset = build_event_dataset(manifest)
        assert len(dataset.items) == 4
        assert dataset.labels.tolist() == [0, 1, 2, 3]
        assert list(dataset.class_counts) == [1, 1, 1, 1]

    def test_binary_scheme(self, tmp_path):
        manifest = load_manifest(make_corpus(tmp_path))
        dataset = build_event_dataset(manifest,
                                      label_scheme="binary")
        assert dataset.labels.tolist() == [0, 1, 1, 1]
        assert list(dataset.class_counts) == [1, 3]

    def test_clip_frame_count(self, tmp_path):
        manifest = load_manifest(make_corpus(tmp_path))
        dataset = build_event_dataset(manifest)
        # 0.9 s cycle at 16 kHz: floor((14400 - 400)/160) + 1 = 88 frames
        frames, _ = dataset.items[0]
        assert frames.shape == (88, 80)

    def test_inline_label_clip(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "inline.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,label:3,p1,\n"
        )
        dataset = build_event_dataset(load_manifest(path))
        assert len(dataset.items) == 1
        assert dataset.labels.tolist() == [3]

    def test_annotation_beyond_audio(self, tmp_path):
        make_corpus(tmp_path)
        ann = tmp_path / "rec.txt"
        ann.write_text("0.0 9.5 0 0\n")
        manifest = load_manifest(tmp_path / "manifest.csv")
        with pytest.raises(DataError, match="rec.wav"):
            build_event_dataset(manifest)

    def test_unknown_scheme(self, tmp_path):
        manifest = load_manifest(make_corpus(tmp_path))
        with pytest.raises(InvalidInputError):
            build_event_dataset(manifest, label_scheme="x")

    def test_inline_label_outside_scheme(self, tmp_path):
        make_corpus(tmp_path)
        path = tmp_path / "inline.csv"
        path.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,label:7,p1,\n"
        )
        with pytest.raises(DataError, match="label 7"):
            build_event_dataset(load_manifest(path))
