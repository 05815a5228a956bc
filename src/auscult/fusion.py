"""Audio/tabular probability fusion and challenge-style metrics.

Fusion is the convex combination alpha * p_audio + (1 - alpha) * p_tabular,
applied elementwise with no renormalization (a convex combination of
simplices is already a simplex). Metrics follow the sensitivity/specificity
family: SE over the pooled adventitious classes, SP on the normal class,
their arithmetic and harmonic means, and the mean of those two as the final
score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonFiniteError
from .textio import write_csv

SIMPLEX_TOL = 1e-9


def check_simplex(probs: np.ndarray) -> None:
    """Each row along the last axis must be finite and a simplex."""
    if not np.all(np.isfinite(probs)):
        raise NonFiniteError("probs must be finite")
    if probs.min() < 0 or np.abs(probs.sum(axis=-1) - 1.0).max() > SIMPLEX_TOL:
        raise InvalidInputError("probs must be a simplex")


@dataclass(frozen=True)
class ProbabilityVector:
    probs: np.ndarray
    label_map: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "label_map", tuple(self.label_map))
        if probs.ndim != 1 or len(probs) != len(self.label_map):
            raise InvalidInputError("probs and label_map lengths differ")
        check_simplex(probs)


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class correct/total tallies plus the index of the normal class."""

    correct: np.ndarray
    totals: np.ndarray
    normal_class: int

    def __post_init__(self):
        correct = np.asarray(self.correct, dtype=np.int64)
        totals = np.asarray(self.totals, dtype=np.int64)
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "totals", totals)
        if correct.shape != totals.shape or correct.ndim != 1:
            raise InvalidInputError("correct/totals misaligned")
        if not 0 <= self.normal_class < len(totals):
            raise InvalidInputError("normal_class out of range")
        if (correct < 0).any() or (correct > totals).any():
            raise InvalidInputError("need 0 <= correct <= total per class")


# the CSV header over TaskMetrics.cells()
METRIC_COLUMNS = ["se", "sp", "as", "hs", "score"]


@dataclass(frozen=True)
class TaskMetrics:
    se: float
    sp: float
    as_score: float
    hs: float
    final_score: float

    def __post_init__(self):
        for name in ("se", "sp", "as_score", "hs", "final_score"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name} outside [0, 1]")
        if self.hs > self.as_score + 1e-12:
            raise InvalidInputError("harmonic mean exceeds arithmetic mean")

    def cells(self) -> list:
        return [f"{v:.6f}" for v in
                (self.se, self.sp, self.as_score, self.hs, self.final_score)]


def fuse_probabilities(p_rene: ProbabilityVector, p_gbdt: ProbabilityVector,
                       alpha: float) -> ProbabilityVector:
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1], got {alpha}")
    if p_rene.label_map != p_gbdt.label_map:
        raise InvalidInputError("label maps differ")
    fused = alpha * p_rene.probs + (1.0 - alpha) * p_gbdt.probs
    return ProbabilityVector(probs=fused, label_map=p_rene.label_map)


def predict_class(probs) -> int:
    """Argmax; ties resolve to the lower class index."""
    return int(np.argmax(np.asarray(probs)))


def confusion_counts(predictions, truths, normal_class: int) -> ConfusionCounts:
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if predictions.shape != truths.shape or predictions.ndim != 1:
        raise InvalidInputError("predictions and truths misaligned")
    if predictions.size == 0:
        raise InvalidInputError("empty input")
    if predictions.min() < 0 or truths.min() < 0:
        raise InvalidInputError("class indices must be >= 0")
    n_classes = int(max(predictions.max(), truths.max(), normal_class)) + 1
    totals = np.bincount(truths, minlength=n_classes)
    correct = np.bincount(truths[predictions == truths], minlength=n_classes)
    return ConfusionCounts(correct=correct, totals=totals,
                           normal_class=normal_class)


def compute_metrics(counts: ConfusionCounts) -> TaskMetrics:
    adventitious = np.arange(len(counts.totals)) != counts.normal_class
    n_adv = int(counts.totals[adventitious].sum())
    n_norm = int(counts.totals[counts.normal_class])
    if n_adv == 0 or n_norm == 0:
        raise InvalidInputError("metrics need adventitious and normal samples")
    se = int(counts.correct[adventitious].sum()) / n_adv
    sp = int(counts.correct[counts.normal_class]) / n_norm
    as_score = (se + sp) / 2.0
    hs = 0.0 if se + sp == 0.0 else 2.0 * se * sp / (se + sp)
    final = (as_score + hs) / 2.0
    return TaskMetrics(se=se, sp=sp, as_score=as_score, hs=hs,
                       final_score=final)


def alpha_sweep(p_rene_set, p_gbdt_set, truths, normal_class: int):
    """Metrics at alpha = 0.0, 0.1, ..., 1.0; eleven (alpha, TaskMetrics) rows."""
    if not (len(p_rene_set) == len(p_gbdt_set) == len(truths)):
        raise InvalidInputError("sample sets misaligned")
    if not p_rene_set:
        raise InvalidInputError("empty input")
    label_map = p_rene_set[0].label_map
    if any(p.label_map != label_map for p in (*p_rene_set, *p_gbdt_set)):
        raise InvalidInputError("label maps differ")
    rene = np.stack([p.probs for p in p_rene_set])
    gbdt = np.stack([p.probs for p in p_gbdt_set])
    rows = []
    for step in range(11):
        alpha = step / 10.0
        # row for row what fuse_probabilities computes and checks
        fused = alpha * rene + (1.0 - alpha) * gbdt
        check_simplex(fused)
        preds = fused.argmax(axis=1)  # ties resolve to the lower class index
        metrics = compute_metrics(confusion_counts(preds, truths, normal_class))
        rows.append((alpha, metrics))
    return rows


def write_sweep_csv(rows, path) -> None:
    write_csv(path, ["alpha", *METRIC_COLUMNS],
              ([f"{alpha:.1f}", *m.cells()] for alpha, m in rows))
