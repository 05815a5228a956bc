"""Focal loss, imbalance-weighted sampling, the lr schedule, and a small
mini-batch SGD loop for toy-scale runs.

Updates never mutate a parameter tree in place: each step builds a new one,
so concurrent readers of the previous parameters stay valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonFiniteError, TrainingDivergedError
from .model import ReneConfig, init_rene, rene_apply, rene_grad
from .textio import write_csv

PT_FLOOR = 1e-12
# step decay: the learning rate is multiplied by LR_DECAY_FACTOR every
# LR_DECAY_EVERY updates
LR_DECAY_FACTOR = 0.1
LR_DECAY_EVERY = 2000


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 60
    lr0: float = 1e-6
    gamma: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidInputError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.gamma <= 5.0:
            raise InvalidInputError("gamma must be in [0, 5]")
        if self.lr0 <= 0:
            raise InvalidInputError("lr0 must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LabeledDataset:
    """(features, label) pairs, each label a class index in [0, n_classes)."""

    items: tuple
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        for _, label in self.items:
            if not 0 <= label < self.n_classes:
                raise InvalidInputError(f"label {label} outside [0, {self.n_classes})")

    @property
    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.items], dtype=np.int64)

    @property
    def class_counts(self) -> np.ndarray:
        """Items per class, derived from the labels."""
        return np.bincount(self.labels, minlength=self.n_classes)


# --------------------------------------------------------------------- losses

def focal_loss(probs, target: int, gamma: float) -> float:
    """-(1 - p_t)^gamma * log(p_t), with p_t floored at 1e-12 inside the log."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= target < probs.shape[0]:
        raise InvalidInputError(f"target {target} outside [0, {probs.shape[0]})")
    if not 0.0 <= gamma <= 5.0:
        raise InvalidInputError("gamma must be in [0, 5]")
    p_t = float(probs[target])
    return -((1.0 - p_t) ** gamma) * math.log(max(p_t, PT_FLOOR))


def cross_entropy(probs, target: int) -> float:
    return focal_loss(probs, target, 0.0)


def focal_loss_grad(probs, target: int, gamma: float) -> np.ndarray:
    """Gradient of the focal loss w.r.t. the logits behind `probs`."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= target < p.shape[0]:
        raise InvalidInputError(f"target {target} outside [0, {p.shape[0]})")
    p_t = float(p[target])
    log_pt = math.log(max(p_t, PT_FLOOR))
    one_minus = max(1.0 - p_t, 0.0)
    if gamma == 0.0 or one_minus == 0.0:
        modulating = 0.0
    else:
        modulating = gamma * one_minus ** (gamma - 1.0) * log_pt
    dl_dpt = modulating - one_minus**gamma / max(p_t, PT_FLOOR)
    onehot = np.zeros_like(p)
    onehot[target] = 1.0
    return dl_dpt * p_t * (onehot - p)


# -------------------------------------------------------------------- sampler

def weighted_sampler_weights(class_counts) -> np.ndarray:
    """Per-class item weight, 1/(n_present * count); items of class c drawn
    with weight w[c], so every present class has equal total draw probability."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.sum() <= 0:
        raise InvalidInputError("empty dataset")
    present = counts > 0
    weights = np.zeros_like(counts)
    weights[present] = 1.0 / (present.sum() * counts[present])
    return weights


def item_sampling_weights(dataset: LabeledDataset) -> np.ndarray:
    return weighted_sampler_weights(dataset.class_counts)[dataset.labels]


# ------------------------------------------------------------------- schedule

def lr_at_step(step: int, cfg: TrainConfig) -> float:
    if step < 0:
        raise InvalidInputError("step must be >= 0")
    return cfg.lr0 * LR_DECAY_FACTOR ** (step // LR_DECAY_EVERY)


# ------------------------------------------------------------------ tree math

def _tree_zeros_like(tree):
    return {k: _tree_zeros_like(v) if isinstance(v, dict) else np.zeros_like(v)
            for k, v in tree.items()}


def _tree_add_(acc, tree):
    for k, v in tree.items():
        if isinstance(v, dict):
            _tree_add_(acc[k], v)
        else:
            acc[k] += v


def sgd_step(params, grads, lr: float):
    """New parameter tree: params - lr * grads."""
    return {
        k: sgd_step(v, grads[k], lr) if isinstance(v, dict) else v - lr * grads[k]
        for k, v in params.items()
    }


# -------------------------------------------------------------- training loop

def train_toy(dataset: LabeledDataset, model_cfg: ReneConfig, train_cfg: TrainConfig):
    """Mini-batch SGD with focal loss, replacement sampling weighted for class
    balance, and the step-decay schedule. Returns (params, trace) where trace
    rows are (epoch, mean_loss, lr of the epoch's last update).
    """
    if not dataset.items:
        raise InvalidInputError("dataset is empty")
    params = init_rene(model_cfg, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    weights = item_sampling_weights(dataset)
    n_items = len(dataset.items)
    batches_per_epoch = -(-n_items // train_cfg.batch_size)

    step = 0
    trace = []
    for epoch in range(train_cfg.epochs):
        epoch_losses = []
        lr = train_cfg.lr0
        for _ in range(batches_per_epoch):
            chosen = rng.choice(n_items, size=train_cfg.batch_size,
                                replace=True, p=weights)
            grads = _tree_zeros_like(params)
            batch_loss = 0.0
            for idx in chosen:
                frames, label = dataset.items[idx]
                try:
                    out, cache = rene_apply(frames, params, model_cfg)
                except NonFiniteError as exc:
                    raise TrainingDivergedError(step) from exc
                batch_loss += focal_loss(out.probs, label, train_cfg.gamma)
                dlogits = focal_loss_grad(out.probs, label, train_cfg.gamma)
                _tree_add_(grads, rene_grad(dlogits, cache, params, model_cfg))
            batch_loss /= train_cfg.batch_size
            if not math.isfinite(batch_loss):
                raise TrainingDivergedError(step)
            lr = lr_at_step(step, train_cfg)
            params = sgd_step(params, grads, lr / train_cfg.batch_size)
            epoch_losses.append(batch_loss)
            step += 1
        trace.append((epoch, float(np.mean(epoch_losses)), lr))

    return params, trace


def write_loss_trace(path, trace) -> None:
    write_csv(path, ["epoch", "mean_loss", "lr"],
              ([epoch, f"{loss:.10g}", f"{lr:.10g}"] for epoch, loss, lr in trace))


def training_accuracy(dataset: LabeledDataset, params, model_cfg: ReneConfig) -> float:
    hits = 0
    for frames, label in dataset.items:
        out, _ = rene_apply(frames, params, model_cfg, cache=False)
        hits += int(np.argmax(out.probs) == label)
    return hits / len(dataset.items)
