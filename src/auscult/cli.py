"""Command-line surface: featurize, train, eval, cluster, correlate, smote,
gbdt, fuse, stream, replay.

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import emr as emr_mod
from .data import (
    TARGET_SAMPLE_RATE,
    build_event_dataset,
    load_manifest,
    load_wav,
    synthetic_tone_noise_dataset,
)
from .errors import AuscultError, InvalidInputError
from .frontend import (
    FrontendConfig,
    log_mel_spectrogram,
    write_spectrogram_csv,
    write_spectrogram_f32,
)
from .fusion import (
    ProbabilityVector,
    alpha_sweep,
    compute_metrics,
    confusion_counts,
    predict_class,
    write_sweep_csv,
)
from .model import (
    check_params,
    load_model_config,
    preset_config,
    rene_apply,
    save_model_config,
)
from .nn import flatten_params, load_params, save_params
from .stream import (
    SessionConfig,
    replay_offline,
    run_session,
    write_events_jsonl,
)
from .training import TrainConfig, train_toy, training_accuracy, write_loss_trace

SCHEME_LABELS = {
    "cw4": ("normal", "crackle", "wheeze", "both"),
    "binary": ("normal", "adventitious"),
}


def _features_list(text: str):
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise InvalidInputError("empty feature list")
    return names


def _k_range(text: str) -> range:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise InvalidInputError(f"--k-range must be lo:hi, got {text!r}") from None
    return range(lo, hi + 1)


def _load_model(params_path, config_path):
    cfg = load_model_config(config_path)
    params = load_params(params_path)
    check_params(params, cfg, FrontendConfig().n_mels)
    return params, cfg


def _emr_features(path, names):
    table = emr_mod.impute_median(emr_mod.read_emr_csv(path))
    return table, table.matrix(names)


# ------------------------------------------------------------------ commands

def cmd_featurize(args):
    signal = load_wav(args.wav)
    spec = log_mel_spectrogram(signal, FrontendConfig())
    if args.format == "csv":
        write_spectrogram_csv(spec, args.out)
    else:
        write_spectrogram_f32(spec, args.out)
    print(f"wrote {spec.n_frames} x {spec.n_mels} spectrogram to {args.out}")
    return 0


def cmd_train(args):
    frontend_cfg = FrontendConfig()
    if args.manifest:
        dataset = build_event_dataset(load_manifest(args.manifest), frontend_cfg,
                                      label_scheme=args.scheme)
        n_classes = len(dataset.class_counts)
    else:
        dataset = synthetic_tone_noise_dataset(
            n_clips=args.clips, duration_s=args.duration, seed=args.seed
        )
        n_classes = 2
    model_cfg = preset_config("toy", n_classes=n_classes)
    train_cfg = TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr0=args.lr,
        gamma=args.gamma,
        seed=args.seed,
    )
    params, trace = train_toy(dataset, model_cfg, train_cfg)
    save_params(args.out, flatten_params(params))
    if args.config_out:
        save_model_config(args.config_out, model_cfg)
    if args.trace:
        write_loss_trace(args.trace, trace)
    acc = training_accuracy(dataset, params, model_cfg)
    print(f"final loss {trace[-1][1]:.6f}, training accuracy {acc:.3f}")
    return 0


def cmd_eval(args):
    frontend_cfg = FrontendConfig()
    params, model_cfg = _load_model(args.params, args.config)
    dataset = build_event_dataset(load_manifest(args.manifest), frontend_cfg,
                                  label_scheme=args.scheme)
    predictions = []
    for frames, _ in dataset.items:
        out, _ = rene_apply(frames, params, model_cfg)
        predictions.append(predict_class(out.probs))
    metrics = compute_metrics(
        confusion_counts(predictions, dataset.labels, args.normal_class)
    )
    for name in ("se", "sp", "as_score", "hs", "final_score"):
        print(f"{name}: {getattr(metrics, name):.4f}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["se", "sp", "as", "hs", "score"])
            writer.writerow([
                f"{metrics.se:.6f}", f"{metrics.sp:.6f}",
                f"{metrics.as_score:.6f}", f"{metrics.hs:.6f}",
                f"{metrics.final_score:.6f}",
            ])
    return 0


def cmd_cluster(args):
    names = _features_list(args.features)
    table, matrix = _emr_features(args.emr, names)
    z, _, _ = emr_mod.zscore(matrix)
    if args.k_range:
        k, model = emr_mod.select_k(z, _k_range(args.k_range), seed=args.seed)
        print(f"selected k={k}, mean silhouette {model.silhouette_mean:.4f}")
    else:
        model = emr_mod.kmeans_fit(z, args.k, seed=args.seed)
        print(f"k={args.k}, mean silhouette {model.silhouette_mean:.4f}")
    emr_mod.write_cluster_json(model, args.out_json)
    if args.summary:
        rows = emr_mod.cluster_summary(table, model)
        emr_mod.write_cluster_summary_csv(rows, args.summary)
    if args.coords:
        if len(names) != 3:
            raise InvalidInputError("--coords needs exactly three features")
        coords_table = emr_mod.EmrTable(columns={
            **{n: table.columns[n] for n in names},
            "cluster": [str(c) for c in model.assignments],
        })
        emr_mod.export_3d_coordinates(coords_table, names, "cluster", args.coords)
    return 0


def cmd_correlate(args):
    names = _features_list(args.features)
    _, matrix = _emr_features(args.emr, names)
    corr = emr_mod.correlation_matrix(
        emr_mod.EmrTable(columns={n: matrix[:, i] for i, n in enumerate(names)}),
        names,
    )
    emr_mod.write_correlation_csv(corr, names, args.out)
    print(f"wrote {len(names)}x{len(names)} correlation matrix to {args.out}")
    return 0


def cmd_smote(args):
    names = _features_list(args.features)
    table, matrix = _emr_features(args.emr, names)
    labels = table.column(args.label)
    if isinstance(labels, np.ndarray):
        labels = [f"{v:.10g}" for v in labels]
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    minority = args.minority
    if not minority:
        # the smallest class SMOTE can oversample: more rows than neighbours
        usable = [c for c in counts if counts[c] > args.k_neighbors]
        if not usable:
            raise InvalidInputError(
                f"no class has more than --k-neighbors={args.k_neighbors} "
                f"rows; class counts {counts}")
        minority = min(usable, key=lambda c: (counts[c], c))
    if minority not in counts:
        raise InvalidInputError(f"label {minority!r} not present")
    need = max(counts.values()) - counts[minority]
    z, mean, std = emr_mod.zscore(matrix)
    rows = z[np.array([lab == minority for lab in labels])]
    synthetic = emr_mod.smote_oversample(
        rows, n_synthetic=need, k_neighbors=args.k_neighbors, seed=args.seed
    )
    synthetic = synthetic * std + mean
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + [args.label])
        for row, lab in zip(matrix, labels):
            writer.writerow([f"{v:.10g}" for v in row] + [lab])
        for row in synthetic:
            writer.writerow([f"{v:.10g}" for v in row] + [minority])
    print(f"added {need} synthetic rows for class {minority!r}")
    return 0


def cmd_gbdt(args):
    names = _features_list(args.features)
    table, matrix = _emr_features(args.train, names)
    raw_labels = table.column(args.label)
    if isinstance(raw_labels, np.ndarray):
        raw_labels = [f"{v:.10g}" for v in raw_labels]
    codes, classes = emr_mod.label_encode(raw_labels)
    params = emr_mod.GbdtParams(
        n_rounds=args.rounds, max_depth=args.depth, learning_rate=args.lr
    )
    model = emr_mod.gbdt_fit(matrix, codes, params)
    probs = emr_mod.gbdt_predict_proba(model, matrix)
    acc = (probs.argmax(axis=1) == codes).mean()
    print(f"training accuracy {acc:.3f} over {len(classes)} classes")
    if args.importance:
        gains = emr_mod.gain_importance(model)
        with open(args.importance, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "gain"])
            for name, gain in zip(names, gains):
                writer.writerow([name, f"{gain:.10g}"])
    if args.predict:
        _, test_matrix = _emr_features(args.predict, names)
        test_probs = emr_mod.gbdt_predict_proba(model, test_matrix)
        if not args.out:
            raise InvalidInputError("--predict needs --out")
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(classes)
            for row in test_probs:
                writer.writerow([f"{p:.6f}" for p in row])
    return 0


def _read_prob_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: need a header and at least one row")
    labels = tuple(h.strip() for h in rows[0])
    vectors = []
    for row in rows[1:]:
        probs = np.array([float(v) for v in row])
        vectors.append(ProbabilityVector(probs=probs, label_map=labels))
    return vectors, labels


def _read_truth_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["label"]:
        raise InvalidInputError(f"{path}: header must be 'label'")
    return np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)


def cmd_fuse(args):
    p_rene, labels_a = _read_prob_csv(args.rene)
    p_gbdt, labels_b = _read_prob_csv(args.gbdt)
    if labels_a != labels_b:
        raise InvalidInputError("probability files have different classes")
    truths = _read_truth_csv(args.truth)
    rows = alpha_sweep(p_rene, p_gbdt, truths, normal_class=args.normal_class)
    write_sweep_csv(rows, args.out)
    best_alpha, best = max(rows, key=lambda r: r[1].final_score)
    print(f"best alpha {best_alpha:.1f} with score {best.final_score:.4f}")
    return 0


def _session_from_args(args):
    return SessionConfig(
        source=args.source,
        window_s=args.window_s,
        buffer_min=args.buffer_min,
        rate_factor=getattr(args, "rate_factor", 1.0),
    )


def cmd_stream(args):
    params, model_cfg = _load_model(args.model, args.config)
    labels = tuple(_features_list(args.labels)) if args.labels else None
    events, warnings = run_session(_session_from_args(args), params, model_cfg,
                                   labels=labels)
    for w in warnings:
        print(
            f"overrun at t={w.timestamp:.1f}s: skipped windows "
            f"{w.skipped_from}..{w.skipped_to - 1}",
            file=sys.stderr,
        )
    if args.out:
        write_events_jsonl(events, TARGET_SAMPLE_RATE, args.out)
    print(f"{len(events)} events, {len(warnings)} overruns")
    return 0


def cmd_replay(args):
    params, model_cfg = _load_model(args.model, args.config)
    labels = tuple(_features_list(args.labels)) if args.labels else None
    events = replay_offline(_session_from_args(args), params, model_cfg,
                            labels=labels)
    if args.out:
        write_events_jsonl(events, TARGET_SAMPLE_RATE, args.out)
    print(f"{len(events)} events")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auscult", description="Respiratory-sound analysis pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="WAV to log-mel spectrogram file")
    p.add_argument("wav")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "f32"), default="csv")
    p.set_defaults(handler=cmd_featurize)

    p = sub.add_parser("train", help="train the toy model")
    p.add_argument("--manifest")
    p.add_argument("--scheme", choices=("cw4", "binary"), default="cw4")
    p.add_argument("--clips", type=int, default=60)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.add_argument("--config-out")
    p.add_argument("--trace")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="metrics over a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", choices=("cw4", "binary"), default="cw4")
    p.add_argument("--normal-class", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("cluster", help="k-means over EMR features")
    p.add_argument("--emr", required=True)
    p.add_argument("--features", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--k-range", help="lo:hi inclusive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-json", required=True)
    p.add_argument("--summary")
    p.add_argument("--coords")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("correlate", help="pairwise correlation matrix")
    p.add_argument("--emr", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_correlate)

    p = sub.add_parser("smote", help="balance an EMR CSV by oversampling")
    p.add_argument("--emr", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--label", default="diagnosis")
    p.add_argument("--minority")
    p.add_argument("--k-neighbors", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_smote)

    p = sub.add_parser("gbdt", help="fit boosted trees on EMR features")
    p.add_argument("--train", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--label", default="diagnosis")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--importance")
    p.add_argument("--predict")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_gbdt)

    p = sub.add_parser("fuse", help="alpha sweep over fused probabilities")
    p.add_argument("--rene", required=True)
    p.add_argument("--gbdt", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--normal-class", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fuse)

    for name, handler in (("stream", cmd_stream), ("replay", cmd_replay)):
        p = sub.add_parser(name, help=f"{name} a WAV through the model")
        p.add_argument("--source", required=True)
        p.add_argument("--model", required=True)
        p.add_argument("--config", required=True)
        p.add_argument("--window-s", type=float, default=10.0)
        p.add_argument("--buffer-min", type=float, default=60.0)
        if name == "stream":
            p.add_argument("--rate-factor", type=float, default=1.0)
        p.add_argument("--labels")
        p.add_argument("--out")
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (AuscultError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
