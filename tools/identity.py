"""Save a fixed set of program outputs to an .npz file, or compare two.

    python3 tools/identity.py dump --src <checkout>/src --out a.npz
    python3 tools/identity.py compare a.npz b.npz

`dump` imports `auscult` from the given source directory, so two checkouts
(say, a `git worktree` of the parent commit and the working tree) can be
dumped one after the other and compared. Every input is made here from fixed
seeds, so both sides read the same bytes. It saves:

- every leaf of `load_params` over a float32 and a float64 file of the toy
  model, and the bytes `save_params` wrote for each;
- `rene_apply(cache=False)` probabilities, logits and embedding for toy
  windows (from the float64 file) and `rene_s` windows (from a float32
  file, as perfbench stores it);
- the `replay_offline` events of a 30 s mono WAV;
- the `load_wav` samples of a mono 16 kHz WAV and a stereo 22.05 kHz WAV;
- `cluster_summary` rows of k-means fits on a generated table, and of a
  model with an empty cluster.

The `rene_s` part holds its 34.2 M-parameter tree, about 260 MiB as float64.
`compare` prints every array that is missing on one side or differs in
dtype, shape or value (NaN equals NaN) and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import wave
from pathlib import Path

# one BLAS thread, so both sides sum every product in the same order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

WINDOW = 160_000  # 10 s at 16 kHz


def _window(rng, label):
    """A 10 s tone (label 0) or noise (label 1) window in [-1, 1]."""
    if label == 0:
        t = np.arange(WINDOW) / 16000
        x = 0.5 * np.sin(2 * np.pi * rng.uniform(300, 600) * t)
        return np.clip(x + 0.01 * rng.standard_normal(WINDOW), -1, 1)
    return rng.uniform(-0.5, 0.5, WINDOW)


def _write_wav(path, samples, rate, channels=1):
    pcm = np.round(np.clip(samples, -1, 1) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def _import_auscult(src):
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import auscult
    if Path(auscult.__file__).resolve().parent != src / "auscult":
        sys.exit(f"auscult was imported from {auscult.__file__}, not {src}")


def _params(out, tag, path, tree, dtype, nn):
    nn.save_params(path, {k: v.astype(dtype) for k, v in nn.flatten_params(tree).items()})
    out[f"params.{tag}.file"] = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    loaded = nn.load_params(path)
    for name, leaf in nn.flatten_params(loaded).items():
        out[f"params.{tag}.{name}"] = np.array(leaf)
    return loaded


def _decode(out, tag, windows, params, cfg, model, frontend):
    for i, x in enumerate(windows):
        spec = frontend.log_mel_spectrogram(frontend.AudioSignal(x, 16000),
                                            frontend.FrontendConfig())
        res, _ = model.rene_apply(spec.frames, params, cfg, cache=False)
        for field in ("probs", "logits", "embedding"):
            out[f"apply.{tag}.{i}.{field}"] = getattr(res, field)


def _summary(out, tag, rows):
    for key in rows[0]:
        out[f"summary.{tag}.{key}"] = np.array([row[key] for row in rows])


def dump(src, out_path):
    _import_auscult(src)
    from auscult import data, emr, frontend, model, nn, stream

    rng = np.random.default_rng(2024)
    windows = [_window(rng, i % 2) for i in range(3)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        toy_cfg = model.preset_config("toy")
        toy = model.init_rene(toy_cfg, 7)
        _params(out, "toy_f32", tmp / "toy32.params", toy, np.float32, nn)
        toy64 = _params(out, "toy_f64", tmp / "toy64.params", toy, np.float64, nn)
        _decode(out, "toy", windows, toy64, toy_cfg, model, frontend)

        mono = tmp / "mono.wav"
        _write_wav(mono, np.concatenate(windows), 16000)
        session = stream.SessionConfig(source=str(mono))
        for i, event in enumerate(stream.replay_offline(session, toy64, toy_cfg)):
            out[f"replay.{i}.probs"] = event.probs.probs
            out[f"replay.{i}.span"] = np.array(event.window_span)
            out[f"replay.{i}.timestamp"] = np.array(event.timestamp)
        out["wav.mono"] = data.load_wav(mono).samples
        stereo = tmp / "stereo.wav"
        _write_wav(stereo, rng.uniform(-1, 1, 2 * 22050 * 3 + 2), 22050, channels=2)
        out["wav.stereo"] = data.load_wav(stereo).samples

        s_cfg = model.preset_config("rene_s")
        flat = nn.flatten_params(model.init_rene(s_cfg, 0))
        for name in flat:  # narrowed one leaf at a time, to hold one tree
            flat[name] = flat[name].astype(np.float32)
        path = tmp / "rene_s.params"
        nn.save_params(path, flat)
        del flat
        _decode(out, "rene_s", windows[:2], nn.load_params(path), s_cfg, model,
                frontend)

    n = 240
    table = emr.EmrTable(columns={
        "age": np.round(rng.uniform(1, 90, n)),
        "bmi": rng.normal(24, 4, n),
        "spo2": rng.normal(96, 2, n),
        "sex": [str(v) for v in rng.choice(["F", "M"], n)],
        "site": [str(v) for v in rng.choice(["Tc", "Al", "Ar", "Pl", "Pr"], n)],
    })
    points = emr.zscore(table.matrix(["age", "bmi", "spo2"]))[0]
    for k in (2, 3, 5):
        _summary(out, f"k{k}", emr.cluster_summary(table, emr.kmeans_fit(points, k, 0)))
    empty = emr.ClusterModel(k=3, centroids=np.zeros((3, 3)),
                             assignments=np.arange(n) % 2, inertia=0.0,
                             silhouette_mean=0.0)
    _summary(out, "empty", emr.cluster_summary(table, empty))

    np.savez(out_path, **out)
    print(f"wrote {len(out)} arrays to {out_path}")


def compare(a_path, b_path):
    with np.load(a_path) as a, np.load(b_path) as b:
        differ = sorted(set(a.files) ^ set(b.files))
        for name in sorted(set(a.files) & set(b.files)):
            x, y = a[name], b[name]
            nan_kind = x.dtype.kind in "fc" and y.dtype.kind in "fc"
            if x.dtype != y.dtype or not np.array_equal(x, y, equal_nan=nan_kind):
                differ.append(name)
        n = len(set(a.files) | set(b.files))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {n} arrays differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="save the fixed output set of one checkout")
    p.add_argument("--src", required=True, help="the checkout's src/ directory")
    p.add_argument("--out", required=True, help="the .npz file to write")
    p = sub.add_parser("compare", help="report the arrays two dumps disagree on")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
