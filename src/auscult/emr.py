"""Tabular patient-record analytics: encoding, correlation, k-means with
silhouette selection, SMOTE balancing, and a from-scratch gradient-boosted
tree classifier with gain importance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NonFiniteError,
    ParseError,
    UndefinedCorrelationError,
)
from .nn import softmax
from .textio import read_csv, write_csv

EPS_HESSIAN = 1e-12
KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 4
# float64 elements in _sq_dists' difference buffer (1 MiB)
SQ_DISTS_BUFFER = 2**17
# a node with fewer rows than this becomes a leaf
GBDT_MIN_SAMPLES = 2


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

    def label_column(self, name: str) -> list:
        """The column as label strings; numeric cells print as %.10g."""
        values = self.column(name)
        if isinstance(values, np.ndarray):
            return [f"{v:.10g}" for v in values]
        return values

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
    rows = read_csv(path)
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
    """Distinct values sorted lexicographically -> codes 0..m-1 and mapping.
    Object, not fixed-width, strings: NumPy's would drop a trailing NUL."""
    classes, codes = np.unique(np.array(values, dtype=object), return_inverse=True)
    if not codes.size:
        raise InvalidInputError("cannot encode an empty column")
    return codes.astype(np.int64), classes.tolist()


# ---------------------------------------------------------------- correlation

def correlation_matrix(data) -> np.ndarray:
    """(d, d) Pearson correlations between the columns of an (n, d) matrix:
    sample covariance over the product of sample deviations. Each column is
    centred and normed once; row i's upper pairs are one product."""
    m = data.shape[1]
    out = np.eye(m)
    if m < 2:
        return out
    if data.shape[0] < 2:
        raise InvalidInputError("correlation needs n >= 2 rows")
    dev = np.array(data.T, dtype=np.float64, order="C")  # one column a row
    with np.errstate(over="ignore", invalid="ignore"):
        dev -= dev.mean(axis=1, keepdims=True)
        norms = np.sqrt((dev**2).sum(axis=1))
    if not np.all(np.isfinite(norms)):
        raise NonFiniteError("columns must be finite and small enough to square")
    if (norms == 0.0).any():
        raise UndefinedCorrelationError("constant column has no defined correlation")
    for i in range(m - 1):
        out[i, i + 1:] = out[i + 1:, i] = (
            (dev[i] * dev[i + 1:]).sum(axis=1) / (norms[i] * norms[i + 1:]))
    return out


def write_correlation_csv(matrix: np.ndarray, names, path) -> None:
    write_csv(path, [""] + list(names),
              ([name] + [f"{v:.10g}" for v in row]
               for name, row in zip(names, matrix)))


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
    """(n, m) squared distances between the rows of a and b, filled a block
    of SQ_DISTS_BUFFER // m rows at a time and summed one feature at a time
    through one reused difference buffer of at most SQ_DISTS_BUFFER
    elements, so a large (n, n) call holds one n x n array. Never builds the
    (n, m, d) difference cube; for d < 8 the sum is bit-for-bit NumPy's
    left-to-right sum over that cube's last axis (an array's `**2` is the
    same multiply as `diff *= diff`)."""
    out = np.zeros((a.shape[0], b.shape[0]))
    rows = max(1, SQ_DISTS_BUFFER // max(1, b.shape[0]))
    buf = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for r in range(0, a.shape[0], rows):
        block = out[r:r + rows]
        diff = buf[:block.shape[0]]
        for f in range(a.shape[1]):
            np.subtract(a[r:r + rows, None, f], b[None, :, f], out=diff)
            diff *= diff
            block += diff
    return out


def _distance_matrix(points):
    """(n, n) Euclidean distances between the rows of points."""
    dists = _sq_dists(points, points)
    return np.sqrt(dists, out=dists)


def _check_dists(dists, n):
    if np.shape(dists) != (n, n):
        raise InvalidInputError(
            f"distance matrix must be ({n}, {n}), got {np.shape(dists)}")


def _check_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be a finite (n, d) matrix")
    return points


def _kmeans_pp_init(points, dists, k, rng):
    """Greedy k-means++ (Arthur & Vassilvitskii 2007): each centroid after
    the first is the best of 2 + floor(ln k) candidates drawn with weight D^2,
    the squared distance to the nearest centroid so far. The best candidate
    leaves the smallest potential, the sum of D^2 over all points. Every D^2
    is a squared row of `dists`, the points' (n, n) distance matrix."""
    n = points.shape[0]
    trials = 2 + int(np.log(k))
    first = rng.integers(n)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[first]
    if k == 1:
        return centroids
    closest = dists[first] ** 2
    for i in range(1, k):
        cum = np.cumsum(closest)
        drawn = np.searchsorted(cum, rng.random(trials) * cum[-1], side="right")
        candidates = np.minimum(drawn, n - 1)
        d2 = np.minimum(closest, dists[candidates] ** 2)
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
    neg2_points = -2.0 * points  # a power-of-two scale, so exact
    one_hot = np.eye(k)
    members = np.empty((n, k))  # one_hot rows of the current assignments
    assignments = None
    for _ in range(KMEANS_MAX_ITER):
        scores = neg2_points @ centroids.T
        scores += (centroids * centroids).sum(axis=1)
        new_assign = scores.argmin(axis=1)
        if assignments is not None and not (new_assign != assignments).any():
            break
        assignments = new_assign
        counts = np.bincount(assignments, minlength=k)
        # every assignment lies in [0, k), so "clip" skips the bounds check
        np.take(one_hot, assignments, axis=0, out=members, mode="clip")
        sums = members.T @ points  # per-cluster row sums, (k, d)
        filled = counts > 0
        np.divide(sums, counts[:, None], out=centroids, where=filled[:, None])
        empty = np.flatnonzero(~filled)
        if empty.size:
            # Reseat emptied centroids at the worst-fit points.
            misfit = ((points - centroids[assignments]) ** 2).sum(axis=1)
            centroids[empty] = points[np.argsort(misfit)[::-1][:empty.size]]
    d2 = _sq_dists(points, centroids)
    assignments = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    return centroids, assignments, inertia


def kmeans_fit(points, k: int, seed: int = 0, dists=None) -> ClusterModel:
    """Best of KMEANS_RESTARTS greedy k-means++ / Lloyd runs by inertia.
    `dists`, the points' (n, n) distance matrix, is built here when not
    handed in (for k >= 2 only); the seeding reads its rows and `silhouette`
    scores the best run from it."""
    points = _check_points(points)
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if dists is not None:
        _check_dists(dists, n)
    elif k >= 2:
        dists = _distance_matrix(points)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        init = _kmeans_pp_init(points, dists, k, rng)
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
    else:
        _check_dists(dists, n)
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


def select_k(points, k_range, seed: int = 0):
    """Fit every k; return (best_k, model) maximizing mean silhouette,
    ties broken toward smaller k. One distance matrix serves every k's
    seeding and silhouette."""
    points = _check_points(points)
    n = points.shape[0]
    ks = set()
    for k in map(int, k_range):
        # checked as read, so a range too long to hold fails at its first bad k
        if not 2 <= k <= n - 1:
            raise InvalidInputError("k range must lie within [2, n-1]")
        ks.add(k)
    if not ks:
        raise InvalidInputError("empty k range")
    dists = _distance_matrix(points)
    best_k, best_model = None, None
    for k in sorted(ks):
        model = kmeans_fit(points, k, seed=seed, dists=dists)
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
            # the mode over object strings, since a fixed-width array drops a
            # trailing NUL; ties resolve to the lexicographically smallest value
            column = np.array(table.columns[name], dtype=object)[member]
            uniq, tally = np.unique(column, return_counts=True)
            row[f"mode_{name}"] = str(uniq[tally.argmax()]) if count else ""
        rows.append(row)
    rows.sort(key=lambda r: (-r["count"], r["cluster"]))
    return rows


def write_cluster_summary_csv(rows, path) -> None:
    if not rows:
        raise InvalidInputError("no summary rows to write")
    names = list(rows[0])
    write_csv(path, names, ([row[name] for name in names] for row in rows))


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
    if k_neighbors < 1:
        raise InvalidInputError(f"k_neighbors must be >= 1, got {k_neighbors}")
    m = minority.shape[0]
    if m <= k_neighbors:
        raise InvalidInputError(
            f"need more than k_neighbors={k_neighbors} minority rows, got {m}"
        )
    if n_synthetic < 0:
        raise InvalidInputError("n_synthetic must be >= 0")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
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

    def __post_init__(self):
        if self.n_rounds < 0 or self.max_depth < 1:
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


def _fit_tree(x, grad, hess, rows, order, depth_left, gains, out):
    """Fit the node over `rows` and write each leaf's value into out[rows],
    the tree's scores on the training rows.

    `rows` stay ascending, so the node totals sum in row order. order[j]
    lists the node's rows sorted by feature j, ties in row order; a child's
    orders are a stable filter of its parent's, so no node sorts.
    """
    g_total = grad[rows].sum()
    h_total = hess[rows].sum()
    leaf = {"leaf": -g_total / (h_total + EPS_HESSIAN)}
    out[rows] = leaf["leaf"]  # a split's leaves overwrite their own rows
    d, n = order.shape
    if depth_left == 0 or n < GBDT_MIN_SAMPLES:
        return leaf

    parent_score = g_total**2 / (h_total + EPS_HESSIAN)
    # Only the cuts between distinct neighbours in a feature's order are
    # scored, from prefix sums of grad and hess along that order.
    # float_power squares through pow(), as `**` does on a float64 scalar;
    # an array's `**2` multiplies instead and can differ in the last bit.
    xs = x[order, np.arange(d)[:, None]]
    cut = xs[:, :-1] != xs[:, 1:]
    if not cut.any():
        return leaf
    gl = np.cumsum(grad[order], axis=1)[:, :-1][cut]
    hl = np.cumsum(hess[order], axis=1)[:, :-1][cut]
    gr, hr = g_total - gl, h_total - hl
    gain = 0.5 * (
        np.float_power(gl, 2) / (hl + EPS_HESSIAN)
        + np.float_power(gr, 2) / (hr + EPS_HESSIAN)
        - parent_score
    )
    # argmax keeps the first maximum in feature-major order, so ties go to
    # the earliest feature, then to the earliest cut
    best = gain.argmax()
    best_gain = gain[best]
    if not best_gain > 0.0:
        return leaf

    j, pos = divmod(int(np.flatnonzero(cut)[best]), n - 1)
    threshold = 0.5 * (xs[j, pos] + xs[j, pos + 1])
    gains[j] += best_gain
    left = x[:, j] <= threshold
    keep = left[order]
    return {
        "feature": j,
        "threshold": threshold,
        "gain": best_gain,
        "left": _fit_tree(x, grad, hess, rows[left[rows]],
                          order[keep].reshape(d, -1), depth_left - 1, gains, out),
        "right": _fit_tree(x, grad, hess, rows[~left[rows]],
                           order[~keep].reshape(d, -1), depth_left - 1, gains, out),
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
    splits; per-split gains accumulate into feature_gains.

    Each feature is sorted once per fit (one stable argsort, the column
    blocks of XGBoost, Chen & Guestrin 2016, section 4.1); every node
    filters its parent's orders stably instead of sorting again. The
    leaves write the training rows' scores as the tree is grown, so the
    fit never walks its own trees."""
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

    rows = np.arange(x.shape[0])
    order = np.argsort(x.T, axis=1, kind="stable")  # (d, n), once per fit
    gains = np.zeros(x.shape[1])
    scores = np.zeros((x.shape[0], n_classes))
    tree_scores = np.empty(x.shape[0])
    trees = []
    for _ in range(params.n_rounds):
        probs = softmax(scores)
        round_trees = []
        for c in range(n_classes):
            grad = probs[:, c] - (y == c)
            hess = probs[:, c] * (1.0 - probs[:, c])
            round_trees.append(_fit_tree(x, grad, hess, rows, order,
                                         params.max_depth, gains, tree_scores))
            scores[:, c] += params.learning_rate * tree_scores
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
    probs = softmax(gbdt_decision_scores(model, row))
    return probs[0] if single else probs


def gain_importance(model: GbdtModel) -> np.ndarray:
    return model.feature_gains.copy()


# ----------------------------------------------------------------- 3D export

def export_3d_coordinates(data, axes, color: str, labels, path) -> None:
    """CSV of (x, y, z, color label) rows of `data` and `labels` for plotting."""
    if len(axes) != 3 or data.shape[1] != 3:
        raise InvalidInputError("need exactly three axis columns")
    write_csv(path, list(axes) + [color],
              ([f"{v:.10g}" for v in row] + [lab] for row, lab in zip(data, labels)))
