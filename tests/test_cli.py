"""End-to-end command-line tests; commands run in-process via main()."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auscult.cli import main
from auscult.model import preset_config, save_model_config
from auscult.nn import flatten_params, load_params, save_params
from auscult.training import TrainConfig, train_toy
from test_data import write_wav


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
