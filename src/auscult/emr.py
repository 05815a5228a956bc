"""Tabular patient-record analytics: encoding, correlation, k-means with
silhouette selection, SMOTE balancing, and a from-scratch gradient-boosted
tree classifier with gain importance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    NonFiniteError,
    ParseError,
    UndefinedCorrelationError,
)

EPS_HESSIAN = 1e-12
KMEANS_MAX_ITER = 300


# -------------------------------------------------------------------- table

@dataclass
class EmrTable:
    """Rectangular patient table: numeric columns as float arrays (NaN marks a
    missing cell), categorical columns as string lists."""

    columns: dict

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise InvalidInputError("columns have inconsistent lengths")

    @property
    def n_rows(self) -> int:
        for v in self.columns.values():
            return len(v)
        return 0

    def column(self, name: str):
        if name not in self.columns:
            raise InvalidInputError(f"no column {name!r}")
        return self.columns[name]

    def is_numeric(self, name: str) -> bool:
        return isinstance(self.column(name), np.ndarray)

    def numeric_names(self):
        return [n for n in self.columns if self.is_numeric(n)]

    def categorical_names(self):
        return [n for n in self.columns if not self.is_numeric(n)]

    def matrix(self, names) -> np.ndarray:
        for n in names:
            if not self.is_numeric(n):
                raise InvalidInputError(f"column {n!r} is not numeric")
        return np.column_stack([self.columns[n] for n in names])


def read_emr_csv(path) -> EmrTable:
    """Header row required; empty cells are missing values. A column is
    numeric when every non-empty cell parses as a finite float."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(str(exc)) from None
    if not rows:
        raise ParseError("empty CSV", line=1)
    header = [h.strip() for h in rows[0]]
    width = len(header)
    if len(set(header)) != width:
        raise ParseError("duplicate column name", line=1)
    raw = {name: [] for name in header}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            # blank line: a full row of missing cells
            row = [""] * width
        if len(row) != width:
            raise ParseError(f"expected {width} cells, got {len(row)}", line=line_no)
        for name, cell in zip(header, row):
            raw[name].append(cell.strip())

    columns: dict = {}
    for name, cells in raw.items():
        values = []
        numeric = True
        for cell in cells:
            if cell == "":
                values.append(np.nan)
                continue
            try:
                values.append(float(cell))
            except ValueError:
                numeric = False
                break
            if not np.isfinite(values[-1]):
                numeric = False
                break
        columns[name] = np.array(values, dtype=np.float64) if numeric else list(cells)
    return EmrTable(columns=columns)


def impute_median(table: EmrTable) -> EmrTable:
    """Replace missing numeric cells with the column median (non-missing)."""
    out: dict = {}
    for name, col in table.columns.items():
        if isinstance(col, np.ndarray):
            col = col.copy()
            missing = np.isnan(col)
            if missing.any():
                known = col[~missing]
                if known.size == 0:
                    raise InvalidInputError(f"column {name!r} has no known values")
                with np.errstate(over="ignore"):
                    fill = np.median(known)  # may average two huge values
                if not np.isfinite(fill):
                    raise NonFiniteError(f"column {name!r} median overflows")
                col[missing] = fill
            out[name] = col
        else:
            out[name] = list(col)
    return EmrTable(columns=out)


def zscore(points: np.ndarray):
    """Column-standardize; returns (z, mean, std) so callers can invert.
    Constant columns map to zero instead of dividing by 0."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidInputError("zscore needs an (n, d) matrix with n >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = points.mean(axis=0)
        std = points.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise NonFiniteError("columns must be finite and small enough to standardize")
    std = np.where(std > 0, std, 1.0)
    return (points - mean) / std, mean, std


# ------------------------------------------------------------ label encoding

def label_encode(values):
    """Distinct values sorted lexicographically -> codes 0..m-1 and mapping."""
    values = list(values)
    if not values:
        raise InvalidInputError("cannot encode an empty column")
    classes = sorted(set(values))
    index = {v: i for i, v in enumerate(classes)}
    codes = np.array([index[v] for v in values], dtype=np.int64)
    return codes, classes


def label_decode(codes, classes):
    return [classes[int(i)] for i in codes]


# ---------------------------------------------------------------- correlation

def pearson(x, y) -> float:
    """Sample covariance over the product of sample deviations (shared ddof)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise InvalidInputError("pearson needs two equal-length columns (n >= 2)")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        sx = np.sqrt((dx**2).sum())
        sy = np.sqrt((dy**2).sum())
    if not (np.isfinite(sx) and np.isfinite(sy)):
        raise NonFiniteError("columns must be finite and small enough to square")
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("constant column has no defined correlation")
    return float((dx * dy).sum() / (sx * sy))


def correlation_matrix(table: EmrTable, names) -> np.ndarray:
    data = table.matrix(names)
    m = len(names)
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = pearson(data[:, i], data[:, j])
    return out


def write_correlation_csv(matrix: np.ndarray, names, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(names))
        for name, row in zip(names, matrix):
            writer.writerow([name] + [f"{v:.10g}" for v in row])


# -------------------------------------------------------------------- k-means

@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    silhouette_mean: float

    def __post_init__(self):
        if self.assignments.min() < 0 or self.assignments.max() >= self.k:
            raise InvalidInputError("assignment outside [0, k)")
        if self.centroids.shape[0] != self.k:
            raise InvalidInputError("centroid count != k")
        if not -1.0 <= self.silhouette_mean <= 1.0:
            raise InvalidInputError("silhouette_mean outside [-1, 1]")


def _sq_dists(a, b):
    """(n, m) squared distances between the rows of a and b, summed one
    feature at a time through one reused difference buffer. Never builds the
    (n, m, d) difference cube; for d < 8 the sum is bit-for-bit NumPy's
    left-to-right sum over that cube's last axis (an array's `**2` is the
    same multiply as `diff *= diff`)."""
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for f in range(a.shape[1]):
        np.subtract(a[:, None, f], b[None, :, f], out=diff)
        diff *= diff
        out += diff
    return out


def _distance_matrix(points):
    """(n, n) Euclidean distances between the rows of points."""
    dists = _sq_dists(points, points)
    return np.sqrt(dists, out=dists)


def _check_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be a finite (n, d) matrix")
    return points


def _kmeans_pp_init(points, k, rng):
    """Greedy k-means++ (Arthur & Vassilvitskii 2007): each centroid after
    the first is the best of 2 + floor(ln k) candidates drawn with weight D^2,
    the squared distance to the nearest centroid so far. The best candidate
    leaves the smallest potential, the sum of D^2 over all points."""
    n = points.shape[0]
    trials = 2 + int(np.log(k))
    first = rng.integers(n)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[first]
    closest = _sq_dists(points[first:first + 1], points)[0]
    for i in range(1, k):
        cum = np.cumsum(closest)
        drawn = np.searchsorted(cum, rng.random(trials) * cum[-1], side="right")
        candidates = np.minimum(drawn, n - 1)
        d2 = np.minimum(closest, _sq_dists(points[candidates], points))
        best = d2.sum(axis=1).argmin()
        centroids[i] = points[candidates[best]]
        closest = d2[best]
    return centroids


def _lloyd_run(points, centroids):
    """Lloyd iterations until assignments stabilize.

    A row goes to the centroid c minimizing |c|^2 - 2 x.c: its own |x|^2
    is the same for every centroid, so it drops out. The final assignments
    and the inertia come from exact squared distances.
    """
    n, k = points.shape[0], centroids.shape[0]
    assignments = None
    for _ in range(KMEANS_MAX_ITER):
        scores = (centroids * centroids).sum(axis=1) - 2.0 * (points @ centroids.T)
        new_assign = scores.argmin(axis=1)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        counts = np.bincount(assignments, minlength=k)
        sums = np.eye(k)[assignments].T @ points  # per-cluster row sums, (k, d)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        if empty.size:
            # Reseat emptied centroids at the worst-fit points.
            misfit = ((points - centroids[assignments]) ** 2).sum(axis=1)
            centroids[empty] = points[np.argsort(misfit)[::-1][:empty.size]]
    d2 = _sq_dists(points, centroids)
    assignments = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    return centroids, assignments, inertia


def kmeans_fit(points, k: int, seed: int = 0, restarts: int = 4,
               dists=None) -> ClusterModel:
    """Best of `restarts` greedy k-means++ / Lloyd runs by inertia. `dists`,
    the points' (n, n) distance matrix, is handed on to `silhouette`."""
    points = _check_points(points)
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        init = _kmeans_pp_init(points, k, rng)
        centroids, assignments, inertia = _lloyd_run(points, init)
        if best is None or inertia < best[2]:
            best = (centroids, assignments, inertia)
    centroids, assignments, inertia = best
    if k >= 2 and len(np.unique(assignments)) >= 2:
        _, sil_mean = silhouette(points, assignments, dists=dists)
    else:
        sil_mean = 0.0
    return ClusterModel(k=k, centroids=centroids, assignments=assignments,
                        inertia=inertia, silhouette_mean=sil_mean)


def silhouette(points, assignments, dists=None):
    """Per-sample S(i) = (b - a) / max(a, b) and the mean.

    a(i) averages distances to the other members of i's cluster; b(i) is the
    smallest mean distance to any other cluster. Singletons score 0, as does
    the degenerate a = b = 0 case. `dists` is an optional precomputed (n, n)
    distance matrix of the points; without it one is built here.
    """
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    if points.ndim != 2 or assignments.shape != points.shape[:1]:
        raise InvalidInputError("need an (n, d) point matrix and n assignments")
    if not np.all(np.isfinite(points)):
        raise NonFiniteError("points must be finite")
    n = points.shape[0]
    if dists is None:
        dists = _distance_matrix(points)
    elif np.shape(dists) != (n, n):
        raise InvalidInputError(
            f"distance matrix must be ({n}, {n}), got {np.shape(dists)}")
    clusters, own = np.unique(assignments, return_inverse=True)
    if len(clusters) < 2:
        raise InvalidInputError("silhouette needs at least two clusters")
    rows = np.arange(n)
    members = np.eye(len(clusters))[own]  # one-hot cluster membership, (n, K)
    sizes = members.sum(axis=0)
    # sums[i, c]: total distance from point i to the members of cluster c
    sums = dists @ members
    n_own = sizes[own]
    a = sums[rows, own] / np.maximum(n_own - 1, 1)
    mean_to = sums / sizes
    mean_to[rows, own] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    ok = (n_own > 1) & (denom > 0)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return scores, float(scores.mean())


def select_k(points, k_range, seed: int = 0, restarts: int = 4):
    """Fit every k; return (best_k, model) maximizing mean silhouette,
    ties broken toward smaller k. One distance matrix serves every k."""
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise InvalidInputError("empty k range")
    points = _check_points(points)
    n = points.shape[0]
    if ks[0] < 2 or ks[-1] > n - 1:
        raise InvalidInputError("k range must lie within [2, n-1]")
    dists = _distance_matrix(points)
    best_k, best_model = None, None
    for k in ks:
        model = kmeans_fit(points, k, seed=seed, restarts=restarts, dists=dists)
        if best_model is None or model.silhouette_mean > best_model.silhouette_mean:
            best_k, best_model = k, model
    return best_k, best_model


def cluster_summary(table: EmrTable, model: ClusterModel):
    """Per-cluster count, percentage, numeric means, categorical modes;
    rows sorted by count descending."""
    if len(model.assignments) != table.n_rows:
        raise InvalidInputError("assignments do not align with table rows")
    n = table.n_rows
    rows = []
    for c in range(model.k):
        member = model.assignments == c
        count = int(member.sum())
        row = {"cluster": c, "count": count, "percentage": 100.0 * count / n}
        for name in table.numeric_names():
            values = table.columns[name][member]
            row[f"mean_{name}"] = float(values.mean()) if count else float("nan")
        for name in table.categorical_names():
            values = [v for v, m in zip(table.columns[name], member) if m]
            if values:
                uniq, counts = np.unique(values, return_counts=True)
                # ties resolve to the lexicographically smallest value
                row[f"mode_{name}"] = str(uniq[counts.argmax()])
            else:
                row[f"mode_{name}"] = ""
        rows.append(row)
    rows.sort(key=lambda r: (-r["count"], r["cluster"]))
    return rows


def write_cluster_summary_csv(rows, path) -> None:
    if not rows:
        raise InvalidInputError("no summary rows to write")
    names = list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        writer.writerows(rows)


def write_cluster_json(model: ClusterModel, path) -> None:
    doc = {
        "k": model.k,
        "centroids": model.centroids.tolist(),
        "silhouette": model.silhouette_mean,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------- SMOTE

def smote_oversample(minority, n_synthetic: int, k_neighbors: int = 5, seed: int = 0):
    """Each synthetic row is x + u * (nn - x) for a random minority row x, one
    of its k nearest neighbors nn, and u uniform on [0, 1]."""
    minority = np.asarray(minority, dtype=np.float64)
    if minority.ndim != 2:
        raise InvalidInputError("minority rows must be an (m, d) matrix")
    if not np.all(np.isfinite(minority)):
        raise NonFiniteError("minority rows must be finite")
    m = minority.shape[0]
    if m <= k_neighbors:
        raise InvalidInputError(
            f"need more than k_neighbors={k_neighbors} minority rows, got {m}"
        )
    if n_synthetic < 0:
        raise InvalidInputError("n_synthetic must be >= 0")
    dists = _sq_dists(minority, minority)
    np.fill_diagonal(dists, np.inf)
    neighbor_ids = np.argsort(dists, axis=1)[:, :k_neighbors]

    rng = np.random.default_rng(seed)
    out = np.empty((n_synthetic, minority.shape[1]))
    for s in range(n_synthetic):
        i = rng.integers(m)
        j = neighbor_ids[i, rng.integers(k_neighbors)]
        u = rng.uniform()
        out[s] = minority[i] + u * (minority[j] - minority[i])
    return out


# ----------------------------------------------------------------------- GBDT

@dataclass(frozen=True)
class GbdtParams:
    n_rounds: int = 50
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples: int = 2

    def __post_init__(self):
        if self.n_rounds < 0 or self.max_depth < 1 or self.min_samples < 2:
            raise InvalidInputError("bad GBDT params")
        if not 0 < self.learning_rate <= 1:
            raise InvalidInputError("learning_rate must be in (0, 1]")


@dataclass
class GbdtModel:
    trees: list            # trees[round][class] -> node dict
    n_classes: int
    n_features: int
    learning_rate: float
    feature_gains: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.trees)


def _fit_tree(x, grad, hess, depth_left, min_samples, gains):
    g_total = grad.sum()
    h_total = hess.sum()
    leaf = {"leaf": -g_total / (h_total + EPS_HESSIAN)}
    n = x.shape[0]
    if depth_left == 0 or n < min_samples:
        return leaf

    parent_score = g_total**2 / (h_total + EPS_HESSIAN)
    # gain[pos, j]: cutting feature j between sorted rows pos and pos + 1,
    # scored from prefix sums of grad and hess in that feature's order.
    # float_power squares through pow(), as `**` does on a float64 scalar;
    # an array's `**2` multiplies instead and can differ in the last bit.
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    gl = np.cumsum(grad[order], axis=0)[:-1]
    hl = np.cumsum(hess[order], axis=0)[:-1]
    gr, hr = g_total - gl, h_total - hl
    gain = 0.5 * (
        np.float_power(gl, 2) / (hl + EPS_HESSIAN)
        + np.float_power(gr, 2) / (hr + EPS_HESSIAN)
        - parent_score
    )
    gain[xs[:-1] == xs[1:]] = -np.inf  # no cut between equal values
    # argmax keeps the first maximum, so ties go to the earliest feature,
    # then to the earliest cut
    cut = gain.argmax(axis=0)
    per_feature = gain[cut, np.arange(x.shape[1])]
    j = int(per_feature.argmax())
    best_gain = per_feature[j]
    if not best_gain > 0.0:
        return leaf

    pos = cut[j]
    threshold = 0.5 * (xs[pos, j] + xs[pos + 1, j])
    gains[j] += best_gain
    mask = x[:, j] <= threshold
    return {
        "feature": j,
        "threshold": threshold,
        "gain": best_gain,
        "left": _fit_tree(x[mask], grad[mask], hess[mask],
                          depth_left - 1, min_samples, gains),
        "right": _fit_tree(x[~mask], grad[~mask], hess[~mask],
                           depth_left - 1, min_samples, gains),
    }


def _tree_predict(node, x):
    """Leaf value per row: index arrays go down the tree, `<=` to the left."""
    out = np.empty(x.shape[0])
    pending = [(node, np.arange(x.shape[0]))]
    while pending:
        cur, rows = pending.pop()
        if "leaf" in cur:
            out[rows] = cur["leaf"]
            continue
        left = x[rows, cur["feature"]] <= cur["threshold"]
        pending.append((cur["left"], rows[left]))
        pending.append((cur["right"], rows[~left]))
    return out


def gbdt_fit(features, labels, params: GbdtParams = GbdtParams()) -> GbdtModel:
    """Multi-class Newton boosting on the softmax objective with exact greedy
    splits; per-split gains accumulate into feature_gains."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InvalidInputError("features and labels misaligned")
    if x.shape[1] == 0:
        raise InvalidInputError("need at least one feature column")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("features must be finite")
    if y.size and y.min() < 0:
        raise InvalidInputError("labels must be class indices >= 0")
    n_classes = int(y.max()) + 1 if y.size else 0
    if len(np.unique(y)) < 2:
        raise InvalidInputError("need at least two classes")
    onehot = np.zeros((x.shape[0], n_classes))
    onehot[np.arange(x.shape[0]), y] = 1.0

    gains = np.zeros(x.shape[1])
    scores = np.zeros((x.shape[0], n_classes))
    trees = []
    for _ in range(params.n_rounds):
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        round_trees = []
        for c in range(n_classes):
            grad = probs[:, c] - onehot[:, c]
            hess = probs[:, c] * (1.0 - probs[:, c])
            tree = _fit_tree(x, grad, hess, params.max_depth,
                             params.min_samples, gains)
            round_trees.append(tree)
            scores[:, c] += params.learning_rate * _tree_predict(tree, x)
        trees.append(round_trees)
    return GbdtModel(trees=trees, n_classes=n_classes, n_features=x.shape[1],
                     learning_rate=params.learning_rate, feature_gains=gains)


def gbdt_decision_scores(model: GbdtModel, rows, n_rounds=None) -> np.ndarray:
    """Accumulated per-class leaf scores after `n_rounds` rounds (default all)."""
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if x.shape[1] != model.n_features:
        raise InvalidInputError(
            f"expected {model.n_features} features, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("rows must be finite")
    use = model.n_rounds if n_rounds is None else n_rounds
    if not 0 <= use <= model.n_rounds:
        raise InvalidInputError(f"n_rounds must lie in [0, {model.n_rounds}], got {use}")
    scores = np.zeros((x.shape[0], model.n_classes))
    for round_trees in model.trees[:use]:
        for c, tree in enumerate(round_trees):
            scores[:, c] += model.learning_rate * _tree_predict(tree, x)
    return scores


def gbdt_predict_proba(model: GbdtModel, row) -> np.ndarray:
    """Softmax over accumulated leaf scores; a 1-D row gives a 1-D simplex."""
    single = np.asarray(row).ndim == 1
    scores = gbdt_decision_scores(model, row)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


def gain_importance(model: GbdtModel) -> np.ndarray:
    return model.feature_gains.copy()


# ----------------------------------------------------------------- 3D export

def export_3d_coordinates(table: EmrTable, axes, color: str, path) -> None:
    """CSV of (x, y, z, color label) rows for external plotting."""
    if len(axes) != 3:
        raise InvalidInputError("need exactly three axis columns")
    data = table.matrix(axes)
    labels = table.columns[color]
    if isinstance(labels, np.ndarray):
        labels = [f"{v:.10g}" for v in labels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(axes) + [color])
        for row, lab in zip(data, labels):
            writer.writerow([f"{v:.10g}" for v in row] + [lab])
