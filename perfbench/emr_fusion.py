"""emr_fusion: the medical-record half of the multi-modal method. Each round
reads an ICBHI-shaped table and runs read_emr_csv -> impute_median ->
zscore -> select_k, then SMOTE -> gbdt_fit -> gbdt_predict_proba ->
alpha_sweep against seeded audio probabilities. Rounds repeat, all alike,
until the run's time is up. No audio or model code runs here.

A round is OPS_PER_ROUND operations: the clustering, one SMOTE top-up per
class below SMOTE_FLOOR training rows, the booster fit and predict, and
the sweep. smote_oversample refuses a class with no more than k_neighbors
rows, so the top-ups of ICBHI's Asthma (1 training row) and LRTI (2) fail
in every round; those classes go into the fit as they are.
"""

from __future__ import annotations

import os
import time

import numpy as np

import inputs
from common import median, overhead_pct

K_RANGE = range(2, 13)
GBDT_ROUNDS = 10
SMOTE_FLOOR = 60        # training rows each class is topped up to
TEST_SHARE = 0.25
K_NEIGHBORS = 5
TOPUPS = sum(n - round(n * TEST_SHARE) < SMOTE_FLOOR for n in inputs.CLASS_ROWS)
OPS_PER_ROUND = 1 + TOPUPS + 2
BALANCED_ACCURACY_FLOOR = 0.7
SILHOUETTE_SAMPLE = 120


def split(seed, planted):
    """Stratified train/test row indices."""
    rng = np.random.default_rng([seed, 5])
    train, test = [], []
    for c in np.unique(planted):
        rows = rng.permutation(np.flatnonzero(planted == c))
        cut = int(round(len(rows) * TEST_SHARE))
        test += rows[:cut].tolist()
        train += rows[cut:].tolist()
    return np.sort(train), np.sort(test)


def one_round(emr, fusion, csv_path, train, test, audio, normal_name):
    from auscult.errors import InvalidInputError

    t0 = time.perf_counter()
    table = emr.impute_median(emr.read_emr_csv(csv_path))
    z, _mean, _std = emr.zscore(table.matrix(table.numeric_names()))
    best_k, clusters = emr.select_k(z, K_RANGE, seed=0)
    t1 = time.perf_counter()

    codes, classes = emr.label_encode(table.columns["diagnosis"])
    x_train, y_train = z[train], codes[train]
    parts_x, parts_y, synthetic, refused = [x_train], [y_train], {}, []
    for c in range(len(classes)):
        members = x_train[y_train == c]
        if len(members) < SMOTE_FLOOR:
            try:
                extra = emr.smote_oversample(members, SMOTE_FLOOR - len(members),
                                             k_neighbors=K_NEIGHBORS, seed=c)
            except InvalidInputError:
                refused.append(classes[c])
                continue
            synthetic[c] = (members, extra)
            parts_x.append(extra)
            parts_y.append(np.full(len(extra), c))
    x_fit, y_fit = np.concatenate(parts_x), np.concatenate(parts_y)
    booster = emr.gbdt_fit(x_fit, y_fit, emr.GbdtParams(n_rounds=GBDT_ROUNDS))
    p_tree = emr.gbdt_predict_proba(booster, z[test])
    labels = tuple(classes)
    sweep = fusion.alpha_sweep(
        [fusion.ProbabilityVector(p, labels) for p in audio],
        [fusion.ProbabilityVector(p, labels) for p in p_tree],
        codes[test], classes.index(normal_name))
    t2 = time.perf_counter()
    return (t1 - t0, t2 - t1), dict(
        z=z, best_k=best_k, clusters=clusters, codes=codes, classes=classes,
        synthetic=synthetic, refused=refused, booster=booster, x_fit=x_fit,
        y_fit=y_fit, p_tree=p_tree, sweep=sweep)


def run(r) -> None:
    from auscult import emr, fusion

    csv_path = inputs.out_dir(r.root) / f"emr-{os.getpid()}.csv"
    with r.generating():
        planted = inputs.emr_table(r.seed, csv_path)
        train, test = split(r.seed, planted)
        names = sorted(inputs.DIAGNOSES)
        truth_codes = np.array([names.index(inputs.DIAGNOSES[d]) for d in planted])
        audio = inputs.audio_probabilities(r.seed, truth_codes[test], len(names))

    r.setup_done()
    if r.tracer is not None:
        r.tracer.uninstall()  # traced rounds alternate with untraced ones
    phases, traced, untraced = [], [], []
    t_start = time.perf_counter()
    rounds = 0
    try:
        while time.perf_counter() - t_start < r.seconds:
            trace_this = r.tracer is not None and rounds % 2 == 1
            if trace_this:
                r.tracer.install()
            times, out = one_round(emr, fusion, csv_path, train, test, audio,
                                   "Healthy")
            if trace_this:
                r.tracer.uninstall()
            phases.append(times)
            if rounds > 0:  # the first round pays for warm-up
                (traced if trace_this else untraced).append(sum(times))
            rounds += 1
    finally:
        csv_path.unlink()
    r.measured_done()
    r.op_ms = [sum(t) * 1000.0 for t in phases]
    r.attempted = rounds * OPS_PER_ROUND
    r.failed = rounds * len(out["refused"])
    r.units = len(traced)

    # ---------------------------------------------------------------- checks
    check_round(r, out, planted, train, test, truth_codes, audio)
    r.details.update(rounds=rounds, smote_refused=out["refused"])
    if r.tracer is not None:
        r.layer["emr.cluster.s"] = median([t[0] for t in phases])
        r.layer["emr.classify.s"] = median([t[1] for t in phases])
        r.layer["trace.overhead_pct"] = overhead_pct(traced, untraced)


def check_round(r, out, planted, train, test, truth_codes, audio) -> None:
    from auscult import emr

    r.check("the table's diagnosis codes are the planted ones",
            np.array_equal(out["codes"], truth_codes))
    z, assign = out["z"], out["clusters"].assignments
    infants = np.isin(planted, [inputs.DIAGNOSES.index(d)
                                for d in inputs.INFANT_DIAGNOSES])
    r.check(f"select_k recovers the planted k={inputs.PLANTED_K}: the infants "
            "and everyone else",
            out["best_k"] == inputs.PLANTED_K
            and len(np.unique(assign[infants])) == 1
            and not np.isin(assign[~infants], assign[infants]).any(),
            f"picked k={out['best_k']}")
    too_few = {c for c, n in zip(inputs.DIAGNOSES, inputs.CLASS_ROWS)
               if n - round(n * TEST_SHARE) <= K_NEIGHBORS}
    r.check("smote_oversample refuses no class with more than "
            f"{K_NEIGHBORS} training rows", set(out["refused"]) <= too_few,
            f"refused {out['refused']}")

    # up to SILHOUETTE_SAMPLE / k seeded rows from each cluster
    rng = np.random.default_rng([r.seed, 40])
    per = SILHOUETTE_SAMPLE // len(np.unique(assign))
    rows = np.sort(np.concatenate([
        rng.permutation(np.flatnonzero(assign == c))[:per] for c in np.unique(assign)]))
    pts, lab = z[rows], assign[rows]
    _scores, theirs = emr.silhouette(pts, lab)
    ours = silhouette_double_loop(pts, lab)
    r.check("silhouette equals the direct double-loop definition",
            abs(theirs - ours) <= 1e-9, f"{theirs:.12g} vs {ours:.12g}")

    worst = max((smote_residual(m, s) for m, s in out["synthetic"].values()),
                default=0.0)
    r.check("every SMOTE point lies on a segment from a minority point to one "
            "of its 5 nearest neighbours", out["synthetic"] and worst <= 1e-9,
            f"worst residual {worst:.3g}")

    predicted, truths = out["p_tree"].argmax(axis=1), truth_codes[test]
    recalls = [float(np.mean(predicted[truths == c] == c)) for c in np.unique(truths)]
    balanced = float(np.mean(recalls))
    r.check(f"boosted-tree balanced accuracy on held-out rows >= "
            f"{BALANCED_ACCURACY_FLOOR} (chance {1 / len(recalls):.2f})",
            balanced >= BALANCED_ACCURACY_FLOOR,
            f"per-class recall {[round(x, 2) for x in recalls]}")

    booster, x_fit, y_fit = out["booster"], out["x_fit"], out["y_fit"]
    losses = []
    for n in range(booster.n_rounds + 1):
        s = emr.gbdt_decision_scores(booster, x_fit, n_rounds=n)
        s = s - s.max(axis=1, keepdims=True)
        logp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        losses.append(float(-logp[np.arange(len(y_fit)), y_fit].mean()))
    rises = [i for i in range(1, len(losses)) if losses[i] > losses[i - 1] + 1e-12]
    r.check("staged training log-loss never rises", not rises,
            f"rises after rounds {rises}")

    sweep = out["sweep"]
    normal = out["classes"].index("Healthy")
    truths = truth_codes[test]
    expect = {1.0: audio.argmax(axis=1), 0.0: out["p_tree"].argmax(axis=1)}
    ok = len(sweep) == 11
    for alpha, metrics in sweep:
        if alpha in expect:
            se, sp = tally(expect[alpha], truths, normal)
            ok = ok and abs(metrics.se - se) <= 1e-12 and abs(metrics.sp - sp) <= 1e-12
    r.check("sweep SE/SP at alpha 0 and 1 equal tallies of the tree and audio "
            "argmaxes", ok)


def silhouette_double_loop(points, labels) -> float:
    n = len(points)
    total = 0.0
    for i in range(n):
        same, other = [], {}
        for j in range(n):
            if i == j:
                continue
            d = float(np.sqrt(((points[i] - points[j]) ** 2).sum()))
            if labels[j] == labels[i]:
                same.append(d)
            else:
                other.setdefault(labels[j], []).append(d)
        if not same:
            continue
        a = sum(same) / len(same)
        b = min(sum(v) / len(v) for v in other.values())
        total += (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return total / n


def smote_residual(minority, synthetic) -> float:
    """Largest distance from a synthetic point to its nearest segment between
    a minority point and one of its five nearest neighbours."""
    d2 = ((minority[:, None] - minority[None]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :5]
    starts = np.repeat(minority, 5, axis=0)
    seg = minority[nearest.ravel()] - starts
    seg_len2 = np.maximum((seg**2).sum(axis=1), 1e-300)
    rel = synthetic[:, None] - starts[None]
    t = np.clip((rel * seg[None]).sum(axis=2) / seg_len2, 0.0, 1.0)
    foot = starts[None] + t[..., None] * seg[None]
    return float(np.sqrt(((synthetic[:, None] - foot) ** 2).sum(axis=2)).min(axis=1).max())


def tally(predicted, truths, normal):
    adventitious = truths != normal
    se = float(np.mean(predicted[adventitious] == truths[adventitious]))
    sp = float(np.mean(predicted[~adventitious] == normal))
    return se, sp
