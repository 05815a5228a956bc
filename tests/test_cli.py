"""End-to-end command-line tests; commands run in-process via main()."""

import csv
import dataclasses
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auscult.cli import main
from auscult.model import init_rene, preset_config, save_model_config
from auscult.nn import flatten_params, load_params, save_params
from auscult.training import TrainConfig, train_toy, write_loss_trace
from test_data import make_corpus, manifest_bytes, write_wav
from test_model import TINY, config_bytes


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A quickly trained 2-class toy model on disk (params + config)."""
    from auscult.data import synthetic_tone_noise_dataset

    base = tmp_path_factory.mktemp("model")
    dataset = synthetic_tone_noise_dataset(n_clips=8, duration_s=0.5, seed=0)
    cfg = preset_config("toy", n_classes=2)
    params, _ = train_toy(
        dataset, cfg,
        TrainConfig(batch_size=4, epochs=2, lr0=0.3, seed=0),
    )
    params_path = base / "params.bin"
    config_path = base / "model.cfg"
    save_params(params_path, flatten_params(params))
    save_model_config(config_path, cfg)
    return str(params_path), str(config_path)


def make_wav(path, seconds, seed=0):
    rng = np.random.default_rng(seed)
    pcm = (rng.uniform(-0.3, 0.3, int(seconds * 16000)) * 32768).astype(np.int16)
    write_wav(path, pcm, 16000)
    return str(path)


def make_emr(path, n_a=12, n_b=8, seed=0, n_c=0):
    rng = np.random.default_rng(seed)
    lines = ["age,bmi,diagnosis"]
    for _ in range(n_a):
        lines.append(f"{rng.normal(30, 2):.2f},{rng.normal(20, 1):.2f},asthma")
    for _ in range(n_b):
        lines.append(f"{rng.normal(70, 2):.2f},{rng.normal(30, 1):.2f},copd")
    for _ in range(n_c):
        lines.append(f"{rng.normal(50, 2):.2f},{rng.normal(25, 1):.2f},lrti")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

    def test_missing_required_flag(self):
        assert main(["featurize"]) == 1

    def test_missing_input_file(self, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["featurize", "ghost.wav", "--out", out]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--k", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["cluster", "--k-range", "2:3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["smote", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--duration", "nan"], "positive, finite duration"),
        (["train", "--duration", "inf"], "positive, finite duration"),
        (["train", "--duration", "1e12"], "cannot allocate a 1e+12 s clip"),
    ], ids=["cluster-k", "cluster-k-range", "smote", "train-seed", "train-nan",
            "train-inf", "train-huge"])
    def test_negative_seed_or_non_finite_duration_exits_two(self, tmp_path, capsys,
                                                            argv, message):
        emr = make_emr(tmp_path / "emr.csv")
        out = str(tmp_path / "out")
        inputs = {"cluster": ["--emr", emr, "--features", "age,bmi", "--out-json", out],
                  "smote": ["--emr", emr, "--features", "age,bmi", "--out", out],
                  "train": ["--out", out]}
        assert main(argv + inputs[argv[0]]) == 2
        assert message in capsys.readouterr().err


class TestFeaturize:
    def test_csv_output(self, tmp_path, capsys):
        wav = make_wav(tmp_path / "in.wav", seconds=1.0)
        out = tmp_path / "spec.csv"
        assert main(["featurize", wav, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",")
        assert rows.shape == (98, 80)
        assert "98 x 80" in capsys.readouterr().out

    def test_f32_output(self, tmp_path):
        wav = make_wav(tmp_path / "in.wav", seconds=1.0)
        out = tmp_path / "spec.f32"
        assert main(["featurize", wav, "--out", str(out), "--format", "f32"]) == 0
        assert out.stat().st_size == 8 + 98 * 80 * 4


class TestTrain:
    def test_synthetic_demo(self, tmp_path, capsys):
        out = tmp_path / "params.bin"
        cfg_out = tmp_path / "model.cfg"
        trace = tmp_path / "trace.csv"
        code = main([
            "train", "--clips", "6", "--duration", "0.5", "--epochs", "2",
            "--batch-size", "4", "--out", str(out),
            "--config-out", str(cfg_out), "--trace", str(trace),
        ])
        assert code == 0
        assert out.stat().st_size > 0
        assert "n_classes=2" in cfg_out.read_text().replace(" ", "")
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_loss", "lr"]
        assert len(rows) == 3
        assert "training accuracy" in capsys.readouterr().out


class TestEval:
    def test_metrics_over_manifest(self, tmp_path, model_files, capsys):
        params_path, config_path = model_files
        make_wav(tmp_path / "rec.wav", seconds=4.0)
        (tmp_path / "rec.txt").write_text("0.0 2.0 0 0\n2.0 4.0 1 0\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,rec.txt,p1,\n"
        )
        out = tmp_path / "metrics.csv"
        code = main([
            "eval", "--manifest", str(manifest), "--params", params_path,
            "--config", config_path, "--scheme", "binary", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "se:" in printed and "final_score:" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["se", "sp", "as", "hs", "score"]
        assert len(rows) == 2

    def test_non_utf8_config_exits_two(self, tmp_path, model_files, capsys):
        params_path, config_path = model_files
        make_wav(tmp_path / "rec.wav", seconds=1.0)
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "wav_path,annotation_path,patient_id,emr_key\nrec.wav,label:0,p1,\n"
        )
        config = tmp_path / "bad.cfg"
        config.write_bytes(Path(config_path).read_bytes() + b"# \xff\n")
        assert main(["eval", "--manifest", str(manifest), "--params", params_path,
                     "--config", str(config)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_class_count_must_match_scheme(self, fuzz_dir, tiny_files, model_files,
                                           capsys):
        # the 3-class TINY model can never predict cw4's fourth class
        manifest = str(fuzz_dir / "manifest.csv")
        assert main(["eval", "--manifest", manifest, "--params", tiny_files[0],
                     "--config", tiny_files[1], "--scheme", "cw4"]) == 2
        assert "model has 3 classes, scheme 'cw4' has 4" in capsys.readouterr().err
        params_path, config_path = model_files
        assert main(["eval", "--manifest", manifest, "--params", params_path,
                     "--config", config_path, "--scheme", "binary"]) == 0
        assert main(["eval", "--manifest", manifest, "--params", params_path,
                     "--config", config_path, "--scheme", "cw4"]) == 2


class TestCluster:
    def test_fixed_k(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "emr.csv")
        out_json = tmp_path / "model.json"
        summary = tmp_path / "summary.csv"
        code = main([
            "cluster", "--emr", emr, "--features", "age,bmi", "--k", "2",
            "--out-json", str(out_json), "--summary", str(summary),
        ])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["k"] == 2
        assert doc["silhouette"] > 0.5
        with open(summary, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["count"] for r in rows} == {"12", "8"}

    def test_k_range_selection(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "emr.csv")
        out_json = tmp_path / "model.json"
        code = main([
            "cluster", "--emr", emr, "--features", "age,bmi",
            "--k-range", "2:4", "--out-json", str(out_json),
        ])
        assert code == 0
        assert "selected k=2" in capsys.readouterr().out

    @pytest.mark.parametrize("k_range", ["2", "2:x"])
    def test_malformed_k_range_exits_two(self, tmp_path, k_range):
        emr = make_emr(tmp_path / "emr.csv")
        code = main([
            "cluster", "--emr", emr, "--features", "age,bmi",
            "--k-range", k_range, "--out-json", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_non_utf8_table_exits_two(self, tmp_path):
        path = tmp_path / "emr.csv"
        path.write_bytes("age,bmi,name\n30,20,Jos\u00e9\n".encode("latin-1"))
        code = main([
            "cluster", "--emr", str(path), "--features", "age,bmi", "--k", "2",
            "--out-json", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_unknown_column_exits_two(self, tmp_path):
        emr = make_emr(tmp_path / "emr.csv")
        assert main(["cluster", "--emr", emr, "--features", "age,nosuch", "--k", "2",
                     "--out-json", str(tmp_path / "m.json")]) == 2
        assert main(["gbdt", "--train", emr, "--features", "age,bmi",
                     "--label", "nosuch"]) == 2

    def test_coords_needs_three_features(self, tmp_path):
        emr = make_emr(tmp_path / "emr.csv")
        code = main([
            "cluster", "--emr", emr, "--features", "age,bmi", "--k", "2",
            "--out-json", str(tmp_path / "m.json"),
            "--coords", str(tmp_path / "c.csv"),
        ])
        assert code == 2


# cells a hand-made table might hold, numbers that overflow a sum among them
CELLS = st.sampled_from(
    ["", "0", "1.5", "-3", "42", "7e2", "1e308", "-1e308", "inf", "nan", "x", '"9"', " 2 "])


@st.composite
def emr_csv_bytes(draw):
    rows = draw(st.lists(st.lists(CELLS, min_size=2, max_size=3), max_size=10))
    return ("age,bmi\n" + "".join(",".join(r) + "\n" for r in rows)).encode()


class TestClusterFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), emr_csv_bytes()))
    @example(raw=b"age,bmi\n1e308,1\n1e308,2\n,3\n")  # the median overflows
    def test_cluster_exits_zero_or_two(self, fuzz_dir, raw):
        path = fuzz_dir / "emr.csv"
        path.write_bytes(raw)
        code = main([
            "cluster", "--emr", str(path), "--features", "age,bmi",
            "--k-range", "2:3", "--out-json", str(fuzz_dir / "model.json"),
            "--summary", str(fuzz_dir / "summary.csv"),
        ])
        assert code in (0, 2)


def save_tiny(fuzz_dir, cfg, name):
    """`cfg`'s seed-0 model stored as float32 records, beside the 4 s
    recording a manifest names."""
    make_corpus(fuzz_dir)
    params_path, config_path = fuzz_dir / f"{name}.params", fuzz_dir / f"{name}.cfg"
    flat = flatten_params(init_rene(cfg, seed=0))
    save_params(params_path, {k: v.astype(np.float32) for k, v in flat.items()})
    save_model_config(config_path, cfg)
    return str(params_path), str(config_path)


@pytest.fixture(scope="module")
def tiny_files(fuzz_dir):
    """The TINY model that an unedited `config_bytes()` document describes."""
    return save_tiny(fuzz_dir, TINY, "tiny")


@pytest.fixture(scope="module")
def tiny4_files(fuzz_dir):
    """TINY's layers with cw4's four classes, so `eval` reaches its scoring."""
    return save_tiny(fuzz_dir, dataclasses.replace(TINY, n_classes=4), "tiny4")


SCORED_MANIFEST = b"wav_path,annotation_path,patient_id,emr_key\nrec.wav,rec.txt,p1,\n"


class TestModelInputFuzz:
    @settings(max_examples=40, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), config_bytes()))
    @example(raw=b"whisper_layers=1\nwhisper_dim=8\nwhisper_heads=2\n"
                 b"conformer_layers=1\nconformer_dim=8\nconformer_heads=2\n"
                 b"bigru_hidden=8\nn_classes=3\ntrial_channels=2\n"
                 b"trial_kernels_left=3\ntrial_kernels_right=3\n")  # TINY: decodes
    def test_replay_config_exits_zero_or_two(self, fuzz_dir, tiny_files, raw):
        path = fuzz_dir / "fuzz.cfg"
        path.write_bytes(raw)
        code = main([
            "replay", "--source", str(fuzz_dir / "rec.wav"), "--model", tiny_files[0],
            "--config", str(path), "--window-s", "2",
        ])
        assert code in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=200), manifest_bytes()),
           scheme=st.sampled_from(["cw4", "binary"]))
    @example(raw=SCORED_MANIFEST, scheme="cw4")  # four labelled cycles: scores
    def test_eval_manifest_exits_zero_or_two(self, fuzz_dir, tiny4_files, raw, scheme):
        path = fuzz_dir / "fuzz.csv"
        path.write_bytes(raw)
        code = main([
            "eval", "--manifest", str(path), "--params", tiny4_files[0],
            "--config", tiny4_files[1], "--scheme", scheme,
        ])
        if (raw, scheme) == (SCORED_MANIFEST, "cw4"):
            assert code == 0
        else:
            assert code in (0, 2)


class TestCorrelate:
    def test_matrix_csv(self, tmp_path):
        emr = make_emr(tmp_path / "emr.csv")
        out = tmp_path / "corr.csv"
        assert main(["correlate", "--emr", emr, "--features", "age,bmi",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "age", "bmi"]
        assert float(rows[1][1]) == 1.0
        assert float(rows[1][2]) == pytest.approx(float(rows[2][1]))


class TestSmote:
    def test_balances_classes(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "emr.csv", n_a=12, n_b=8)
        out = tmp_path / "balanced.csv"
        assert main(["smote", "--emr", emr, "--features", "age,bmi",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts = {}
        for row in rows:
            counts[row["diagnosis"]] = counts.get(row["diagnosis"], 0) + 1
        assert counts == {"asthma": 12, "copd": 12}
        assert "added 4 synthetic rows" in capsys.readouterr().out

    def test_default_class_has_more_rows_than_neighbours(self, tmp_path, capsys):
        # ICBHI-shaped: the rarest class is too small for five neighbours
        emr = make_emr(tmp_path / "emr.csv", n_a=12, n_b=8, n_c=2)
        out = tmp_path / "balanced.csv"
        assert main(["smote", "--emr", emr, "--features", "age,bmi",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            labels = [row["diagnosis"] for row in csv.DictReader(fh)]
        assert {c: labels.count(c) for c in set(labels)} == {
            "asthma": 12, "copd": 12, "lrti": 2}
        assert "for class 'copd'" in capsys.readouterr().out

    def test_no_class_large_enough_exits_two(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "emr.csv", n_a=4, n_b=3)
        assert main(["smote", "--emr", emr, "--features", "age,bmi",
                     "--out", str(tmp_path / "balanced.csv")]) == 2
        err = capsys.readouterr().err
        assert "--k-neighbors=5" in err and "'asthma': 4" in err and "'copd': 3" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_neighbor_count_below_one_exits_two(self, tmp_path, capsys, k):
        emr = make_emr(tmp_path / "emr.csv", n_a=12, n_b=8)
        assert main(["smote", "--emr", emr, "--features", "age,bmi",
                     "--k-neighbors", k, "--out", str(tmp_path / "b.csv")]) == 2
        assert "k_neighbors must be >= 1" in capsys.readouterr().err


class TestGbdt:
    def test_fit_importance_predict(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "train.csv")
        importance = tmp_path / "imp.csv"
        probs_out = tmp_path / "probs.csv"
        code = main([
            "gbdt", "--train", emr, "--features", "age,bmi",
            "--rounds", "10", "--importance", str(importance),
            "--predict", emr, "--out", str(probs_out),
        ])
        assert code == 0
        assert "training accuracy 1.000" in capsys.readouterr().out
        with open(importance, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "gain"]
        assert len(rows) == 3
        with open(probs_out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["asthma", "copd"]
        assert len(rows) == 21

    def test_predict_without_out_fails_before_fitting(self, tmp_path, capsys):
        emr = make_emr(tmp_path / "train.csv", n_a=3, n_b=3)
        importance = tmp_path / "imp.csv"
        code = main([
            "gbdt", "--train", emr, "--features", "age,bmi",
            "--importance", str(importance), "--predict", emr,
        ])
        assert code == 2
        assert not importance.exists()
        captured = capsys.readouterr()
        assert "training accuracy" not in captured.out
        assert "--predict needs --out" in captured.err


class TestFuse:
    def write_probs(self, path, vectors):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["normal", "crackle"])
            writer.writerows(vectors)

    def test_sweep(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        truths = rng.integers(0, 2, size=20)
        rene_rows, gbdt_rows = [], []
        for t in truths:
            noisy = rng.dirichlet(np.ones(2))
            rene_rows.append([f"{p:.6f}" for p in noisy])
            exact = [0.9, 0.1] if t == 0 else [0.1, 0.9]
            gbdt_rows.append([f"{p:.6f}" for p in exact])
        rene = tmp_path / "rene.csv"
        gbdt = tmp_path / "gbdt.csv"
        self.write_probs(rene, rene_rows)
        self.write_probs(gbdt, gbdt_rows)
        truth = tmp_path / "truth.csv"
        truth.write_text("label\n" + "\n".join(str(t) for t in truths) + "\n")
        out = tmp_path / "sweep.csv"
        code = main(["fuse", "--rene", str(rene), "--gbdt", str(gbdt),
                     "--truth", str(truth), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12
        assert "best alpha 0.0" in capsys.readouterr().out

    def test_mismatched_classes(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,y\n0.5,0.5\n")
        b = tmp_path / "b.csv"
        b.write_text("x,z\n0.5,0.5\n")
        truth = tmp_path / "t.csv"
        truth.write_text("label\n0\n")
        assert main(["fuse", "--rene", str(a), "--gbdt", str(b),
                     "--truth", str(truth), "--out",
                     str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("name, raw, message", [
        ("rene", b"normal,crackle\n0.5,0.5\nhigh,0.5\n", "is not numeric"),
        ("truth", b"label\n0\n\n", "class indices"),
        ("truth", b"label\n0\nzero\n", "class indices"),
        ("truth", b"label\n0\n1.5\n", "class indices"),
        ("truth", b"label\n0\n2\n", "class indices"),
        ("gbdt", b"normal,crackle\n0.5,0.5\n0.5,0.5\xff\n", "not UTF-8"),
        ("truth", b"label\n0\n\xff\n", "not UTF-8"),
        ("rene", b"normal,crackle\n", "at least one row"),
        ("truth", b"class\n0\n1\n", "header must be 'label'"),
    ], ids=["non-numeric-prob", "blank-truth", "word-truth", "fraction-truth",
            "truth-out-of-range", "non-utf8-probs", "non-utf8-truth", "no-rows",
            "truth-header"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, name, raw, message):
        files = {"rene": b"normal,crackle\n0.5,0.5\n0.2,0.8\n",
                 "gbdt": b"normal,crackle\n0.9,0.1\n0.4,0.6\n",
                 "truth": b"label\n0\n1\n", name: raw}
        argv = ["fuse", "--out", str(tmp_path / "o.csv")]
        for key, content in files.items():
            path = tmp_path / f"{key}.csv"
            path.write_bytes(content)
            argv += [f"--{key}", str(path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestStreamCommands:
    def test_replay_jsonl(self, tmp_path, model_files, capsys):
        params_path, config_path = model_files
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        out = tmp_path / "events.jsonl"
        code = main([
            "replay", "--source", wav, "--model", params_path,
            "--config", config_path, "--labels", "tone,noise",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert set(doc["probs"]) == {"tone", "noise"}
        assert "1 events" in capsys.readouterr().out

    def test_replay_corrupt_params_exits_two(self, tmp_path, model_files):
        params_path, config_path = model_files
        with open(params_path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[12:14] = b"\xff\xfe"  # first record name is no longer UTF-8
        bad = tmp_path / "bad.params"
        bad.write_bytes(bytes(raw))
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        code = main([
            "replay", "--source", wav, "--model", str(bad),
            "--config", config_path, "--out", str(tmp_path / "e.jsonl"),
        ])
        assert code == 2

    def test_replay_oversized_record_exits_two(self, tmp_path, model_files, capsys):
        params_path, config_path = model_files
        with open(params_path, "rb") as fh:
            raw = fh.read()
        # one more record whose dims claim 8 TiB in a file of a few hundred kB
        huge = struct.pack("<I", 1) + b"z" + struct.pack("<BB2I", 1, 2, 2**20, 2**20)
        bad = tmp_path / "huge.params"
        bad.write_bytes(raw + huge + bytes(8))
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        code = main([
            "replay", "--source", wav, "--model", str(bad),
            "--config", config_path, "--out", str(tmp_path / "e.jsonl"),
        ])
        assert code == 2
        assert f"record payload truncated (at byte offset {len(raw)})" in capsys.readouterr().err

    # a window shorter than one 10 ms unit rounds to no samples at all, at
    # a rate factor of 1e-9 each unit would take 2e7 s to arrive, and
    # 1.23456 min is 7407.36 units of 10 ms (1.2345 would be 7407)
    @pytest.mark.parametrize("command, flag, value", [
        ("replay", "--window-s", "nan"), ("replay", "--buffer-min", "nan"),
        ("stream", "--rate-factor", "nan"), ("replay", "--window-s", "1e-12"),
        ("stream", "--window-s", "1e-12"), ("stream", "--rate-factor", "1e-9"),
        ("replay", "--buffer-min", "1.23456"), ("stream", "--buffer-min", "1.23456")],
        ids=["replay---window-s", "replay---buffer-min", "stream---rate-factor",
             "replay---window-s-tiny", "stream---window-s-tiny",
             "stream---rate-factor-tiny", "replay---buffer-min-fraction",
             "stream---buffer-min-fraction"])
    def test_non_finite_session_value_exits_two(self, tmp_path, model_files,
                                                 command, flag, value):
        params_path, config_path = model_files
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        code = main([
            command, "--source", wav, "--model", params_path,
            "--config", config_path, flag, value,
        ])
        assert code == 2

    def _replay(self, tmp_path, params_path, config_path):
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        return main([
            "replay", "--source", wav, "--model", str(params_path),
            "--config", str(config_path), "--out", str(tmp_path / "e.jsonl"),
        ])

    @pytest.mark.parametrize("line, leaf", [
        ("whisper_dim=128", "encoder.block0.attn.ln.bias"),
        ("conformer_layers=3", "conformer.block2.attn.ln.bias"),
        ("n_classes=3", "trial.head.b"),
        ("whisper_layers=1", "encoder.block1.attn.ln.bias"),
        ("trial_kernels_left=5,3", "trial.left0.dw_kernel"),
        ("bigru_hidden=32", "bigru.bwd.bn"),
    ])
    def test_replay_config_mismatch_exits_two(self, tmp_path, model_files, capsys,
                                              line, leaf):
        params_path, config_path = model_files
        key = line.split("=")[0] + "="
        lines = Path(config_path).read_text().splitlines()
        text = "\n".join(line if row.startswith(key) else row for row in lines)
        assert text.count(line) == 1
        edited = tmp_path / "edited.cfg"
        edited.write_text(text + "\n")
        assert self._replay(tmp_path, params_path, edited) == 2
        assert f"parameter {leaf}:" in capsys.readouterr().err

    def test_replay_repeated_config_key_exits_two(self, tmp_path, model_files,
                                                  capsys):
        # the file's own whisper_layers comes second, so a last-wins reader
        # would load a config that matches the parameters
        params_path, config_path = model_files
        edited = tmp_path / "edited.cfg"
        edited.write_text("whisper_layers=3\n" + Path(config_path).read_text())
        assert self._replay(tmp_path, params_path, edited) == 2
        assert "config key 'whisper_layers' repeats (line 2)" in capsys.readouterr().err

    def test_replay_oversized_config_exits_two(self, tmp_path, model_files, capsys):
        # the shapes-only tree of this config would allocate 29.1 TiB of biases
        params_path, config_path = model_files
        lines = Path(config_path).read_text().splitlines()
        edited = tmp_path / "huge.cfg"
        edited.write_text("\n".join("whisper_dim=4000000000000"
                                    if row.startswith("whisper_dim=") else row
                                    for row in lines) + "\n")
        tracemalloc.start()
        try:
            code = self._replay(tmp_path, params_path, edited)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "config whisper_dim=4000000000000 cannot match" in capsys.readouterr().err
        # the 10 s WAV and the toy parameter file, nothing sized by the config
        assert peak < 32 * 2**20

    def test_stream_unallocatable_buffer_exits_two(self, tmp_path, model_files, capsys):
        # 1e9 minutes at 16 kHz is 3.41 PiB of float32, beyond any address space
        params_path, config_path = model_files
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        code = main([
            "stream", "--source", wav, "--model", params_path,
            "--config", config_path, "--buffer-min", "1e9",
        ])
        assert code == 2
        assert "cannot allocate a 1e+09-minute ring buffer" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, leaf", [
        ("drop", "subsample.proj.b"),
        ("add", "trial.right3.pw_bias"),
    ])
    def test_replay_params_leaf_mismatch_exits_two(self, tmp_path, model_files,
                                                   capsys, edit, leaf):
        params_path, config_path = model_files
        flat = flatten_params(load_params(params_path))
        if edit == "drop":
            del flat[leaf]
        else:
            flat[leaf] = np.zeros(8)
        bad = tmp_path / "bad.params"
        save_params(bad, flat)
        assert self._replay(tmp_path, bad, config_path) == 2
        assert f"parameter {leaf}:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["whisper_heads=0", "whisper_heads=-2",
                                      "conformer_heads=0", "conformer_heads=-2"])
    def test_replay_bad_head_count_exits_two(self, tmp_path, model_files, capsys,
                                             line):
        params_path, config_path = model_files
        key = line.split("=")[0] + "="
        lines = Path(config_path).read_text().splitlines()
        edited = tmp_path / "edited.cfg"
        edited.write_text("\n".join(line if row.startswith(key) else row
                                    for row in lines) + "\n")
        assert self._replay(tmp_path, params_path, edited) == 2
        assert "head counts must be positive" in capsys.readouterr().err

    def test_stream_accelerated(self, tmp_path, model_files, capsys):
        params_path, config_path = model_files
        wav = make_wav(tmp_path / "long.wav", seconds=10.0)
        out = tmp_path / "events.jsonl"
        code = main([
            "stream", "--source", wav, "--model", params_path,
            "--config", config_path, "--rate-factor", "400",
            "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 1
        assert "1 events, 0 overruns" in capsys.readouterr().out


# ------------------------------------------------------------------ CSV bytes

# a label with a comma and quotes pins the quoting rule too
PIN_EMR = ("age,bmi,fev1,diagnosis\n"
           "30,20,3.1,asthma\n31,21,2.9,asthma\n33,20.5,3.3,asthma\n"
           '70,30,2.2,"copd, ""late"""\n71,31,2,"copd, ""late"""\n'
           '72,29,2.4,"copd, ""late"""\n74,30.5,1.9,"copd, ""late"""\n')
PIN_CLUSTER = ["cluster", "--emr", "emr.csv", "--features", "age,bmi,fev1",
               "--k", "2", "--out-json", "c.json"]
PIN_GBDT = ["gbdt", "--train", "emr.csv", "--features", "age,bmi", "--rounds", "2"]
PIN_ARGV = {
    "correlate": ["correlate", "--emr", "emr.csv", "--features", "age,bmi,fev1",
                  "--out", "out.csv"],
    "cluster-summary": PIN_CLUSTER + ["--summary", "out.csv"],
    "cluster-coords": PIN_CLUSTER + ["--coords", "out.csv"],
    "smote": ["smote", "--emr", "emr.csv", "--features", "age,bmi",
              "--k-neighbors", "2", "--out", "out.csv"],
    "gbdt-importance": PIN_GBDT + ["--importance", "out.csv"],
    "gbdt-predict": PIN_GBDT + ["--predict", "emr.csv", "--out", "out.csv"],
    "fuse": ["fuse", "--rene", "rene.csv", "--gbdt", "gbdt.csv",
             "--truth", "truth.csv", "--out", "out.csv"],
    "eval": ["eval", "--manifest", "m.csv", "--scheme", "binary", "--out", "out.csv"],
}


def write_pin_output(case, params_path, config_path):
    """Write the `case` writer's out.csv into the current directory."""
    if case == "trace":
        write_loss_trace("out.csv", [(0, 0.6931471805599453, 0.5), (1, 1 / 3, 0.05)])
        return
    Path("emr.csv").write_text(PIN_EMR)
    Path("rene.csv").write_text("normal,crackle\n0.75,0.25\n0.5,0.5\n0.125,0.875\n")
    Path("gbdt.csv").write_text("normal,crackle\n0.5,0.5\n0.25,0.75\n0,1\n")
    Path("truth.csv").write_text("label\n0\n1\n1\n")
    make_wav(Path("a.wav"), seconds=1.0, seed=1)
    make_wav(Path("b.wav"), seconds=1.0, seed=2)
    Path("m.csv").write_text("wav_path,annotation_path,patient_id,emr_key\n"
                             "a.wav,label:0,p1,\nb.wav,label:1,p2,\n")
    model = ["--params", params_path, "--config", config_path] if case == "eval" else []
    assert main(PIN_ARGV[case] + model) == 0


PIN_BYTES = {
    "cluster-coords": (
        b'age,bmi,fev1,cluster\r\n'
        b'30,20,3.1,1\r\n'
        b'31,21,2.9,1\r\n'
        b'33,20.5,3.3,1\r\n'
        b'70,30,2.2,0\r\n'
        b'71,31,2,0\r\n'
        b'72,29,2.4,0\r\n'
        b'74,30.5,1.9,0\r\n'
    ),
    "cluster-summary": (
        b'cluster,count,percentage,mean_age,mean_bmi,mean_fev1,mode_diagnosis\r\n'
        b'0,4,57.142857142857146,71.75,30.125,2.125,"copd, ""late"""\r\n'
        b'1,3,42.857142857142854,31.333333333333332,20.5,3.1,asthma\r\n'
    ),
    "correlate": (
        b',age,bmi,fev1\r\n'
        b'age,1,0.9902047582,-0.9355511989\r\n'
        b'bmi,0.9902047582,1,-0.9642897528\r\n'
        b'fev1,-0.9355511989,-0.9642897528,1\r\n'
    ),
    "eval": (
        b'se,sp,as,hs,score\r\n'
        b'0.000000,1.000000,0.500000,0.000000,0.250000\r\n'
    ),
    "fuse": (
        b'alpha,se,sp,as,hs,score\r\n'
        b'0.0,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.1,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.2,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.3,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.4,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.5,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.6,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.7,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.8,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'0.9,1.000000,1.000000,1.000000,1.000000,1.000000\r\n'
        b'1.0,0.500000,1.000000,0.750000,0.666667,0.708333\r\n'
    ),
    "gbdt-importance": (
        b'feature,gain\r\n'
        b'age,11.45362317\r\n'
        b'bmi,0\r\n'
    ),
    "gbdt-predict": (
        b'asthma,"copd, ""late"""\r\n'
        b'0.675696,0.324304\r\n'
        b'0.675696,0.324304\r\n'
        b'0.675696,0.324304\r\n'
        b'0.324304,0.675696\r\n'
        b'0.324304,0.675696\r\n'
        b'0.324304,0.675696\r\n'
        b'0.324304,0.675696\r\n'
    ),
    "smote": (
        b'age,bmi,diagnosis\r\n'
        b'30,20,asthma\r\n'
        b'31,21,asthma\r\n'
        b'33,20.5,asthma\r\n'
        b'70,30,"copd, ""late"""\r\n'
        b'71,31,"copd, ""late"""\r\n'
        b'72,29,"copd, ""late"""\r\n'
        b'74,30.5,"copd, ""late"""\r\n'
        b'32.19063986,20.36510664,asthma\r\n'
    ),
    "trace": (
        b'epoch,mean_loss,lr\r\n'
        b'0,0.6931471806,0.5\r\n'
        b'1,0.3333333333,0.05\r\n'
    ),
}


class TestCsvBytes:
    """Every CSV writer's exact bytes on a tiny table: the csv module's \\r\\n
    line ends and each column's number format. The other tests parse the
    files back, which would not notice a change of dialect."""

    @pytest.mark.parametrize("case", sorted(PIN_BYTES))
    def test_writer_bytes(self, tmp_path, monkeypatch, model_files, case):
        monkeypatch.chdir(tmp_path)
        write_pin_output(case, *model_files)
        assert Path("out.csv").read_bytes() == PIN_BYTES[case]
