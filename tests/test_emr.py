"""Tabular analytics tests: correlation, k-means/silhouette, SMOTE, GBDT."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from auscult import emr
from auscult.emr import (
    ClusterModel,
    EmrTable,
    GbdtParams,
    cluster_summary,
    correlation_matrix,
    export_3d_coordinates,
    gain_importance,
    gbdt_decision_scores,
    gbdt_fit,
    gbdt_predict_proba,
    impute_median,
    kmeans_fit,
    label_decode,
    label_encode,
    pearson,
    read_emr_csv,
    select_k,
    silhouette,
    smote_oversample,
    write_cluster_json,
    write_cluster_summary_csv,
    write_correlation_csv,
    zscore,
)
from auscult.errors import (
    AuscultError,
    InvalidInputError,
    NonFiniteError,
    ParseError,
    UndefinedCorrelationError,
)


def silhouette_oracle(points, assignments):
    """Literal double loop over the three-case definition."""
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = math.sqrt(((points[i] - points[j]) ** 2).sum())
    scores = np.zeros(n)
    for i in range(n):
        own = assignments[i]
        same = [j for j in range(n) if assignments[j] == own and j != i]
        if not same:
            scores[i] = 0.0
            continue
        a = sum(d[i, j] for j in same) / len(same)
        b = math.inf
        for other in set(assignments):
            if other == own:
                continue
            members = [j for j in range(n) if assignments[j] == other]
            b = min(b, sum(d[i, j] for j in members) / len(members))
        if a < b:
            scores[i] = 1.0 - a / b
        elif a > b:
            scores[i] = b / a - 1.0
        else:
            scores[i] = 0.0
    return scores


def make_blobs(centers, per_cluster, spread, seed):
    rng = np.random.default_rng(seed)
    points = []
    labels = []
    for c, center in enumerate(centers):
        points.append(center + spread * rng.standard_normal((per_cluster, len(center))))
        labels.extend([c] * per_cluster)
    return np.vstack(points), np.array(labels)


# rows, share of children, adult age mean and sd, adult BMI mean and sd,
# child age range: an ICBHI-shaped cohort whose last group, 15 infants, is a
# small cluster far from the other 905 rows
COHORT = (
    (794, 0.0, 68.0, 6.0, 29.0, 2.5, None),
    (37, 0.0, 80.0, 4.0, 19.0, 1.5, None),
    (35, 0.5, 25.0, 3.0, 22.0, 1.5, (7.0, 9.0)),
    (23, 0.8, 40.0, 3.0, 25.0, 1.5, (10.0, 12.0)),
    (16, 0.0, 50.0, 4.0, 21.0, 1.5, None),
    (15, 1.0, 0.0, 0.0, 0.0, 0.0, (0.3, 1.5)),
)


def icbhi_like_points(seed):
    """z-scored (age, adult BMI, child weight, child height) rows in shuffled
    order, and the infants' row mask. Adults have no child measures and
    children no BMI; a missing cell takes its column's median."""
    rng = np.random.default_rng(seed)
    rows = []
    for n, child_share, age_mu, age_sd, bmi_mu, bmi_sd, child_ages in COHORT:
        for _ in range(n):
            if rng.random() < child_share:
                age = rng.uniform(*child_ages)
                rows.append((age, np.nan, (3.5 + 2.6 * age) * rng.lognormal(0.0, 0.1),
                             (52.0 + 25.0 * age ** 0.6) * rng.normal(1.0, 0.03)))
            else:
                rows.append((max(18.0, rng.normal(age_mu, age_sd)),
                             rng.normal(bmi_mu, bmi_sd), np.nan, np.nan))
    order = rng.permutation(len(rows))
    x = np.array(rows)[order]
    missing = np.isnan(x)
    x[missing] = np.nanmedian(x, axis=0)[np.nonzero(missing)[1]]
    return zscore(x)[0], order >= len(rows) - COHORT[-1][0]


class TestLabelEncode:
    def test_lexicographic_codes(self):
        codes, classes = label_encode(["wheeze", "crackle", "normal", "crackle"])
        assert classes == ["crackle", "normal", "wheeze"]
        assert codes.tolist() == [2, 0, 1, 0]

    def test_decode_round_trip(self):
        values = ["b", "a", "c", "a", "b"]
        codes, classes = label_encode(values)
        assert label_decode(codes, classes) == values

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            label_encode([])


class TestPearson:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_worked_triple(self):
        # by hand: deviations (-1,0,1) and (-7/3,-1/3,8/3), so
        # r = 5 / sqrt(2 * 38/3)
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
            0.9933992677987828, abs=1e-12
        )

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        y = 0.3 * x + rng.standard_normal(50)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        r = pearson(x, y)
        assert pearson(5 * x - 2, 0.1 * y + 7) == pytest.approx(r, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


    @pytest.mark.parametrize("x", [[1e200, 0.0, 1.0], [1e308, 1e308, 0.0], [np.nan, 0.0, 1.0]])
    def test_overflow_or_nan_rejected(self, x):
        with pytest.raises(NonFiniteError):
            pearson(x, [0.0, 1.0, 2.0])


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(5)
        table = EmrTable(columns={
            "a": rng.standard_normal(40),
            "b": rng.standard_normal(40),
            "c": rng.standard_normal(40),
        })
        m = correlation_matrix(table, ["a", "b", "c"])
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0)
        assert m[0, 1] == pytest.approx(
            pearson(table.columns["a"], table.columns["b"])
        )

    def test_csv_round_trip(self, tmp_path):
        table = EmrTable(columns={
            "a": np.array([1.0, 2.0, 3.0]),
            "b": np.array([2.0, 4.0, 7.0]),
        })
        m = correlation_matrix(table, ["a", "b"])
        path = tmp_path / "corr.csv"
        write_correlation_csv(m, ["a", "b"], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "a", "b"]
        assert float(rows[1][2]) == pytest.approx(m[0, 1], abs=1e-9)


class TestKmeans:
    def test_recovers_two_blobs(self):
        points, truth = make_blobs([(0.0, 0.0), (10.0, 10.0)], 25, 0.5, seed=0)
        model = kmeans_fit(points, k=2, seed=0)
        # assignments equal truth up to cluster relabeling
        first = model.assignments[truth == 0]
        second = model.assignments[truth == 1]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        model = kmeans_fit(points, k=1, seed=0)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0))
        expected = ((points - points.mean(axis=0)) ** 2).sum()
        assert model.inertia == pytest.approx(expected)

    def test_inertia_matches_assignments(self):
        points, _ = make_blobs([(0.0,), (5.0,), (9.0,)], 10, 0.3, seed=2)
        model = kmeans_fit(points, k=3, seed=0)
        recompute = sum(
            ((points[i] - model.centroids[model.assignments[i]]) ** 2).sum()
            for i in range(len(points))
        )
        assert model.inertia == pytest.approx(recompute)

    def test_restarts_never_hurt(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((60, 2))
        single = kmeans_fit(points, k=4, seed=0, restarts=1)
        multi = kmeans_fit(points, k=4, seed=0, restarts=8)
        assert multi.inertia <= single.inertia + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((30, 2))
        a = kmeans_fit(points, k=3, seed=5)
        b = kmeans_fit(points, k=3, seed=5)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans_fit(np.zeros((3, 2)), k=4)

    def test_model_validation(self):
        with pytest.raises(InvalidInputError):
            ClusterModel(
                k=2,
                centroids=np.zeros((2, 2)),
                assignments=np.array([0, 3]),
                inertia=0.0,
                silhouette_mean=0.0,
            )

    def test_lloyd_centroids_are_cluster_means(self):
        points, _ = make_blobs([(0.0, 0.0), (6.0, 1.0), (2.0, 7.0)], 30, 1.0, seed=13)
        centroids, assignments, inertia = emr._lloyd_run(points, points[[0, 1, 2]].copy())
        for c in range(3):
            np.testing.assert_allclose(centroids[c], points[assignments == c].mean(axis=0),
                                       rtol=0, atol=1e-12)
        d2 = cube_sq_dists(points, centroids)
        assert np.array_equal(assignments, d2.argmin(axis=1))
        assert inertia == d2.min(axis=1).sum()

    def test_lloyd_reseats_emptied_centroids(self):
        points, _ = make_blobs([(0.0, 0.0), (8.0, 0.0)], 20, 0.5, seed=14)
        # no row is nearest to the two far centroids, so both empty at once
        init = np.array([[0.0, 0.0], [1e3, 1e3], [-1e3, 1e3], [8.0, 0.0]])
        centroids, assignments, _ = emr._lloyd_run(points, init)
        assert np.bincount(assignments, minlength=4).min() > 0
        for c in range(4):
            np.testing.assert_allclose(centroids[c], points[assignments == c].mean(axis=0),
                                       rtol=0, atol=1e-12)


class TestSilhouette:
    def test_worked_pair_clusters(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        assignments = np.array([0, 0, 1, 1])
        scores, mean = silhouette(points, assignments)
        # a(0) = 1, b(0) = (10 + 11)/2 = 10.5, S = 9.5/10.5
        assert scores[0] == pytest.approx(9.5 / 10.5, abs=1e-5)
        assert scores[0] == pytest.approx(0.90476, abs=1e-5)
        assert mean == pytest.approx(scores.mean())

    def test_singleton_scores_zero(self):
        points = np.array([[0.0], [0.5], [9.0]])
        scores, _ = silhouette(points, np.array([0, 0, 1]))
        assert scores[2] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(2, min(5, n) + 1))
            points = rng.standard_normal((n, int(rng.integers(1, 4))))
            assignments = rng.integers(0, k, size=n)
            if len(np.unique(assignments)) < 2:
                assignments[0] = 0
                assignments[1] = 1
            scores, mean = silhouette(points, assignments)
            expected = silhouette_oracle(points, assignments)
            np.testing.assert_allclose(scores, expected, atol=1e-12)
            assert mean == pytest.approx(expected.mean(), abs=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal((40, 2))
        scores, _ = silhouette(points, rng.integers(0, 3, size=40))
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_duplicate_points_score_zero(self):
        points = np.zeros((4, 2))
        scores, mean = silhouette(points, np.array([0, 0, 1, 1]))
        np.testing.assert_array_equal(scores, 0.0)
        assert mean == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(InvalidInputError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            silhouette(np.zeros((5, 2)), np.array([0, 0, 1, 1]))

    def test_non_finite_point_rejected(self):
        points = np.arange(8.0).reshape(4, 2)
        points[2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            silhouette(points, np.array([0, 0, 1, 1]))

    def test_precomputed_matrix_gives_the_same_bits(self):
        rng = np.random.default_rng(15)
        points = rng.standard_normal((40, 3))
        labels = rng.integers(0, 3, size=40)
        scores, mean = silhouette(points, labels)
        given_scores, given_mean = silhouette(
            points, labels, dists=np.sqrt(cube_sq_dists(points, points)))
        assert np.array_equal(scores, given_scores) and mean == given_mean

    @pytest.mark.parametrize("shape", [(40, 39), (39, 40), (40,), (40, 40, 1)])
    def test_wrong_shape_matrix_rejected(self, shape):
        rng = np.random.default_rng(16)
        points = rng.standard_normal((40, 2))
        with pytest.raises(InvalidInputError):
            silhouette(points, rng.integers(0, 3, size=40), dists=np.zeros(shape))


class TestSelectK:
    def test_recovers_three_blobs(self):
        points, _ = make_blobs(
            [(0.0, 0.0), (8.0, 0.0), (4.0, 7.0)], 20, 0.4, seed=3
        )
        best_k, model = select_k(points, range(2, 7), seed=0)
        assert best_k == 3
        assert model.k == 3
        assert model.silhouette_mean > 0.7

    def test_single_candidate(self):
        points, _ = make_blobs([(0.0,), (5.0,)], 10, 0.2, seed=4)
        best_k, model = select_k(points, [2], seed=0)
        assert best_k == 2

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInputError):
            select_k(np.zeros((10, 2)), [])

    def test_out_of_bounds_rejected(self):
        points = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(InvalidInputError):
            select_k(points, [2, 6])

    def test_model_equals_standalone_fit(self):
        points, _ = make_blobs([(0.0, 0.0), (8.0, 0.0), (4.0, 7.0)], 20, 1.2, seed=17)
        best_k, model = select_k(points, range(2, 7), seed=3)
        alone = kmeans_fit(points, best_k, seed=3)
        assert np.array_equal(model.assignments, alone.assignments)
        assert np.array_equal(model.centroids, alone.centroids)
        assert model.inertia == alone.inertia
        assert model.silhouette_mean == alone.silhouette_mean

    def test_one_distance_matrix_and_every_call_through_module_globals(self, monkeypatch):
        # the benchmark's spans wrap emr.kmeans_fit and emr.silhouette
        calls = []

        def counting(name):
            real = getattr(emr, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("kmeans_fit", "silhouette", "_distance_matrix"):
            monkeypatch.setattr(emr, name, counting(name))
        points, _ = make_blobs([(0.0, 0.0), (8.0, 0.0)], 20, 0.5, seed=18)
        emr.select_k(points, range(2, 7), seed=0)
        assert calls.count("_distance_matrix") == 1
        assert calls.count("kmeans_fit") == calls.count("silhouette") == 5

    def test_recovers_planted_small_cluster(self):
        # plain k-means++ seeding, one D^2 draw per centroid, missed the
        # infants in all four restarts on this table, and k=3 won
        points, infants = icbhi_like_points(seed=127)
        best_k, model = select_k(points, range(2, 13), seed=0)
        assert best_k == 2
        assert len(np.unique(model.assignments[infants])) == 1
        assert not np.isin(model.assignments[~infants], model.assignments[infants]).any()


class TestClusterSummary:
    def make_table(self):
        return EmrTable(columns={
            "age": np.array([60.0, 62.0, 30.0, 32.0, 31.0]),
            "sex": ["M", "F", "F", "F", "M"],
        })

    def test_counts_and_means(self):
        table = self.make_table()
        model = ClusterModel(
            k=2,
            centroids=np.zeros((2, 1)),
            assignments=np.array([0, 0, 1, 1, 1]),
            inertia=0.0,
            silhouette_mean=0.5,
        )
        rows = cluster_summary(table, model)
        assert rows[0]["cluster"] == 1 and rows[0]["count"] == 3
        assert rows[1]["cluster"] == 0 and rows[1]["count"] == 2
        assert rows[0]["percentage"] == pytest.approx(60.0)
        assert rows[0]["mean_age"] == pytest.approx(31.0)
        assert rows[1]["mean_age"] == pytest.approx(61.0)
        assert rows[0]["mode_sex"] == "F"

    def test_mode_tie_goes_lexicographic(self):
        table = EmrTable(columns={"sex": ["M", "F"]})
        model = ClusterModel(
            k=1,
            centroids=np.zeros((1, 1)),
            assignments=np.array([0, 0]),
            inertia=0.0,
            silhouette_mean=0.0,
        )
        rows = cluster_summary(table, model)
        assert rows[0]["mode_sex"] == "F"

    def test_csv_export(self, tmp_path):
        table = self.make_table()
        model = ClusterModel(
            k=2,
            centroids=np.zeros((2, 1)),
            assignments=np.array([0, 0, 1, 1, 1]),
            inertia=0.0,
            silhouette_mean=0.5,
        )
        rows = cluster_summary(table, model)
        path = tmp_path / "summary.csv"
        write_cluster_summary_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert parsed[0]["count"] == "3"

    def test_misaligned_assignments_rejected(self):
        table = self.make_table()
        model = ClusterModel(
            k=1,
            centroids=np.zeros((1, 1)),
            assignments=np.zeros(3, dtype=int),
            inertia=0.0,
            silhouette_mean=0.0,
        )
        with pytest.raises(InvalidInputError):
            cluster_summary(table, model)


class TestClusterJson:
    def test_document_fields(self, tmp_path):
        points, _ = make_blobs([(0.0,), (5.0,)], 10, 0.2, seed=5)
        model = kmeans_fit(points, k=2, seed=0)
        path = tmp_path / "clusters.json"
        write_cluster_json(model, path)
        doc = json.loads(path.read_text())
        assert doc["k"] == 2
        assert len(doc["centroids"]) == 2
        assert doc["silhouette"] == pytest.approx(model.silhouette_mean)


class TestSmote:
    def test_synthetics_lie_on_neighbor_segments(self):
        rng = np.random.default_rng(20)
        minority = rng.standard_normal((12, 2))
        synthetic = smote_oversample(minority, n_synthetic=300, k_neighbors=5, seed=1)
        # every synthetic must sit on a segment between some minority row and
        # one of that row's 5 nearest neighbors
        diff = minority[:, None, :] - minority[None, :, :]
        d2 = (diff**2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        neighbors = np.argsort(d2, axis=1)[:, :5]
        for s in synthetic:
            on_segment = False
            for i in range(len(minority)):
                for j in neighbors[i]:
                    seg = minority[j] - minority[i]
                    rel = s - minority[i]
                    denom = (seg**2).sum()
                    u = (rel @ seg) / denom if denom > 0 else 0.0
                    resid = rel - u * seg
                    if -1e-9 <= u <= 1 + 1e-9 and np.abs(resid).max() < 1e-9:
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment

    def test_collinear_minority_stays_on_line(self):
        t = np.linspace(0.0, 1.0, 10)
        minority = np.column_stack([t, 2 * t + 1])
        synthetic = smote_oversample(minority, n_synthetic=100, seed=2)
        np.testing.assert_allclose(synthetic[:, 1], 2 * synthetic[:, 0] + 1, atol=1e-12)

    def test_balances_to_majority_count(self):
        minority = np.random.default_rng(3).standard_normal((10, 3))
        majority_count = 40
        synthetic = smote_oversample(minority, n_synthetic=majority_count - 10, seed=0)
        assert len(minority) + len(synthetic) == majority_count

    def test_deterministic(self):
        minority = np.random.default_rng(4).standard_normal((8, 2))
        a = smote_oversample(minority, 50, seed=9)
        b = smote_oversample(minority, 50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            smote_oversample(np.zeros((5, 2)), 10, k_neighbors=5)

    def test_non_finite_row_rejected(self):
        minority = np.random.default_rng(5).standard_normal((8, 2))
        minority[3, 0] = np.nan
        with pytest.raises(NonFiniteError):
            smote_oversample(minority, 10, seed=0)


def make_separable(n_per_class=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, 2)) + [0.0, 0.0]
    b = rng.standard_normal((n_per_class, 2)) + [6.0, 6.0]
    x = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


class TestGbdt:
    def test_separable_accuracy(self):
        x, y = make_separable()
        model = gbdt_fit(x, y, GbdtParams(n_rounds=20, max_depth=3))
        probs = gbdt_predict_proba(model, x)
        acc = (probs.argmax(axis=1) == y).mean()
        assert acc >= 0.95

    def test_confident_deep_in_class(self):
        x, y = make_separable()
        model = gbdt_fit(x, y, GbdtParams(n_rounds=30, max_depth=3))
        p = gbdt_predict_proba(model, np.array([6.0, 6.0]))
        assert p[1] > 0.9

    def test_zero_rounds_gives_uniform(self):
        x, y = make_separable(20)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=0))
        p = gbdt_predict_proba(model, x[0])
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_log_loss_non_increasing_per_round(self):
        x, y = make_separable(50, seed=2)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=15, max_depth=2))
        losses = []
        for r in range(model.n_rounds + 1):
            scores = gbdt_decision_scores(model, x, n_rounds=r)
            shifted = scores - scores.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            losses.append(-logp[np.arange(len(y)), y].mean())
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-9

    def test_three_classes(self):
        rng = np.random.default_rng(6)
        centers = [(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)]
        x, y = make_blobs(centers, 40, 0.8, seed=6)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=25, max_depth=3))
        probs = gbdt_predict_proba(model, x)
        assert probs.shape == (120, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs.argmax(axis=1) == y).mean() >= 0.95

    def test_constant_feature_zero_gain(self):
        x, y = make_separable(50, seed=3)
        x = np.column_stack([x, np.full(len(x), 7.0)])
        model = gbdt_fit(x, y, GbdtParams(n_rounds=10))
        gains = gain_importance(model)
        assert gains[2] == 0.0
        assert gains[:2].sum() > 0.0

    def test_gains_sum_equals_recorded_split_gains(self):
        x, y = make_separable(40, seed=4)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=8, max_depth=3))

        def walk(node):
            if "leaf" in node:
                return 0.0
            return node["gain"] + walk(node["left"]) + walk(node["right"])

        total = sum(walk(t) for rnd in model.trees for t in rnd)
        assert model.feature_gains.sum() == pytest.approx(total, rel=1e-12)

    def test_deterministic(self):
        x, y = make_separable(30, seed=5)
        a = gbdt_fit(x, y, GbdtParams(n_rounds=5))
        b = gbdt_fit(x, y, GbdtParams(n_rounds=5))
        np.testing.assert_array_equal(
            gbdt_predict_proba(a, x), gbdt_predict_proba(b, x)
        )

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            gbdt_fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_no_feature_columns_rejected(self):
        with pytest.raises(InvalidInputError):
            gbdt_fit(np.zeros((4, 0)), np.array([0, 1, 0, 1]))

    def test_dimension_mismatch_rejected(self):
        x, y = make_separable(20)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=2))
        with pytest.raises(InvalidInputError):
            gbdt_predict_proba(model, np.zeros(5))

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInputError):
            GbdtParams(learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            GbdtParams(max_depth=0)

    def test_negative_label_rejected(self):
        x, y = make_separable(10)
        y[0] = -1
        with pytest.raises(InvalidInputError):
            gbdt_fit(x, y, GbdtParams(n_rounds=2))

    def test_non_finite_feature_rejected(self):
        x, y = make_separable(10)
        x[4, 1] = np.nan
        with pytest.raises(NonFiniteError):
            gbdt_fit(x, y, GbdtParams(n_rounds=2))

    def test_round_count_out_of_range_rejected(self):
        x, y = make_separable(10)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=3))
        for n_rounds in (-1, 4):
            with pytest.raises(InvalidInputError):
                gbdt_decision_scores(model, x, n_rounds=n_rounds)

    def test_non_finite_row_rejected(self):
        x, y = make_separable(10)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=2))
        with pytest.raises(NonFiniteError):
            gbdt_predict_proba(model, np.array([0.0, np.nan]))


# ------------------------------------------------ whole-array kernel exactness

def scalar_scan_fit_tree(x, grad, hess, depth_left, min_samples, gains):
    """The split search as a per-cut scalar scan: the reference the
    prefix-sum search in emr._fit_tree must match bit for bit."""
    g_total = grad.sum()
    h_total = hess.sum()
    leaf = {"leaf": -g_total / (h_total + emr.EPS_HESSIAN)}
    n = x.shape[0]
    if depth_left == 0 or n < min_samples:
        return leaf
    parent_score = g_total**2 / (h_total + emr.EPS_HESSIAN)
    best_gain = 0.0
    best = None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        gs = np.cumsum(grad[order])
        hs = np.cumsum(hess[order])
        for pos in range(n - 1):
            if xs[pos] == xs[pos + 1]:
                continue
            gl, hl = gs[pos], hs[pos]
            gr, hr = g_total - gl, h_total - hl
            gain = 0.5 * (
                gl**2 / (hl + emr.EPS_HESSIAN)
                + gr**2 / (hr + emr.EPS_HESSIAN)
                - parent_score
            )
            if gain > best_gain:
                best_gain = gain
                best = (j, 0.5 * (xs[pos] + xs[pos + 1]))
    if best is None:
        return leaf
    j, threshold = best
    gains[j] += best_gain
    mask = x[:, j] <= threshold
    return {
        "feature": j,
        "threshold": threshold,
        "gain": best_gain,
        "left": scalar_scan_fit_tree(x[mask], grad[mask], hess[mask],
                                     depth_left - 1, min_samples, gains),
        "right": scalar_scan_fit_tree(x[~mask], grad[~mask], hess[~mask],
                                      depth_left - 1, min_samples, gains),
    }


def row_walk_predict(node, x):
    """Leaf value per row, one row at a time down the tree."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        cur = node
        while "leaf" not in cur:
            cur = cur["left"] if row[cur["feature"]] <= cur["threshold"] else cur["right"]
        out[i] = cur["leaf"]
    return out


def reference_fit(x, y, params):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emr, "_fit_tree", scalar_scan_fit_tree)
        mp.setattr(emr, "_tree_predict", row_walk_predict)
        return gbdt_fit(x, y, params)


def assert_same_booster(fast, ref):
    # dict == compares every node's feature, threshold, gain and leaf by ==
    assert fast.trees == ref.trees
    assert np.array_equal(fast.feature_gains, ref.feature_gains)


def tied_table(seed, n=60, d=3, n_classes=3):
    """Integer-valued features (many ties) with every row present twice."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 5, size=(n // 2, d)).astype(np.float64)
    y = (x.sum(axis=1).astype(np.int64) + rng.integers(0, 2, size=n // 2)) % n_classes
    return np.vstack([x, x]), np.concatenate([y, y])


def cube_sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


class TestKernelExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_matches_scalar_scan_on_ties(self, seed):
        x, y = tied_table(seed)
        params = GbdtParams(n_rounds=6, max_depth=3)
        assert_same_booster(gbdt_fit(x, y, params), reference_fit(x, y, params))

    def test_fit_matches_scalar_scan_on_continuous_features(self):
        x, y = make_blobs([(0.0, 0.0), (2.0, 0.5), (1.0, 2.0)], 40, 0.9, seed=9)
        params = GbdtParams(n_rounds=8, max_depth=3)
        assert_same_booster(gbdt_fit(x, y, params), reference_fit(x, y, params))

    def test_split_search_matches_scalar_scan_on_random_gradients(self):
        # generic gradients give generic squares, where NumPy's scalar `**`
        # (pow) and an array's `**2` (multiplication) can round differently
        rng = np.random.default_rng(21)
        for _ in range(600):
            x = rng.integers(0, 6, size=(12, 2)).astype(np.float64)
            grad, hess = rng.standard_normal(12), rng.uniform(0.0, 0.25, 12)
            fast_gains, ref_gains = np.zeros(2), np.zeros(2)
            fast = emr._fit_tree(x, grad, hess, 3, 2, fast_gains)
            assert fast == scalar_scan_fit_tree(x, grad, hess, 3, 2, ref_gains)
            assert np.array_equal(fast_gains, ref_gains)

    def test_equal_gains_go_to_earliest_feature_then_cut(self):
        # two identical features, and within each two cuts of equal gain
        f = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        x = np.column_stack([f, f])
        y = np.array([1, 0, 1, 1, 0, 1])
        params = GbdtParams(n_rounds=2, max_depth=2)
        fast = gbdt_fit(x, y, params)
        root = fast.trees[0][0]
        assert (root["feature"], root["threshold"]) == (0, 0.5)
        assert_same_booster(fast, reference_fit(x, y, params))

    def test_predict_matches_row_walk_at_thresholds(self):
        x, y = tied_table(3)
        model = gbdt_fit(x, y, GbdtParams(n_rounds=4, max_depth=3))
        # rows lying exactly on split thresholds, where `<=` decides the side
        thresholds = {}

        def collect(node):
            if "leaf" not in node:
                thresholds.setdefault(node["feature"], set()).add(node["threshold"])
                collect(node["left"])
                collect(node["right"])

        for round_trees in model.trees:
            for tree in round_trees:
                collect(tree)
        rows = np.repeat(x[:8], 3, axis=0)
        for j, values in thresholds.items():
            rows[:, j] = np.resize(sorted(values), len(rows))
        for tree in (t for rnd in model.trees for t in rnd):
            assert np.array_equal(emr._tree_predict(tree, rows),
                                  row_walk_predict(tree, rows))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_sq_dists_matches_difference_cube(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((37, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        b = rng.standard_normal((23, d))
        assert np.array_equal(emr._sq_dists(a, b), cube_sq_dists(a, b))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_silhouette_matches_difference_cube(self, d):
        rng = np.random.default_rng(100 + d)
        points = rng.standard_normal((45, d))
        labels = rng.integers(0, 4, size=45)
        scores, mean = silhouette(points, labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emr, "_sq_dists", cube_sq_dists)
            ref_scores, ref_mean = silhouette(points, labels)
        assert np.array_equal(scores, ref_scores) and mean == ref_mean

    @pytest.mark.parametrize("d", range(1, 8))
    def test_smote_matches_difference_cube(self, d):
        rng = np.random.default_rng(200 + d)
        minority = rng.standard_normal((30, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        minority[1] = minority[0]  # a tie among the neighbours
        synthetic = smote_oversample(minority, 200, k_neighbors=5, seed=d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(emr, "_sq_dists", cube_sq_dists)
            reference = smote_oversample(minority, 200, k_neighbors=5, seed=d)
        assert np.array_equal(synthetic, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 14),
        d=st.integers(1, 3),
        n_classes=st.integers(2, 4),
        max_depth=st.integers(1, 3),
    )
    def test_fit_equals_scalar_scan_property(self, data, n, d, n_classes, max_depth):
        values = st.one_of(
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
            st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
        )
        x = data.draw(arrays(np.float64, (n, d), elements=values))
        y = data.draw(arrays(np.int64, n, elements=st.integers(0, n_classes - 1)))
        if len(np.unique(y)) < 2:
            y[0], y[-1] = 0, 1
        params = GbdtParams(n_rounds=3, max_depth=max_depth)
        assert_same_booster(gbdt_fit(x, y, params), reference_fit(x, y, params))


class TestTableIo:
    def write_csv(self, path, text):
        path.write_text(text)
        return path

    def test_numeric_and_categorical_detection(self, tmp_path):
        path = self.write_csv(
            tmp_path / "emr.csv",
            "age,sex,diagnosis\n63,M,COPD\n71,F,Healthy\n,F,Asthma\n",
        )
        table = read_emr_csv(path)
        assert table.numeric_names() == ["age"]
        assert table.categorical_names() == ["sex", "diagnosis"]
        assert table.n_rows == 3
        assert np.isnan(table.columns["age"][2])

    def test_impute_median(self, tmp_path):
        path = self.write_csv(
            tmp_path / "emr.csv", "bmi\n20\n30\n\n40\n"
        )
        table = impute_median(read_emr_csv(path))
        np.testing.assert_allclose(table.columns["bmi"], [20.0, 30.0, 30.0, 40.0])

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write_csv(tmp_path / "bad.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            read_emr_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("age,name\n30,Jos\u00e9\n".encode("latin-1"))
        with pytest.raises(ParseError):
            read_emr_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(ParseError):
            read_emr_csv(path)

    def test_matrix_requires_numeric(self, tmp_path):
        path = self.write_csv(tmp_path / "emr.csv", "age,sex\n40,M\n50,F\n")
        table = read_emr_csv(path)
        with pytest.raises(InvalidInputError):
            table.matrix(["age", "sex"])

    def test_unknown_column_rejected(self, tmp_path):
        table = read_emr_csv(self.write_csv(tmp_path / "emr.csv", "age\n40\n"))
        with pytest.raises(InvalidInputError, match="no column 'bmi'"):
            table.matrix(["bmi"])
        with pytest.raises(InvalidInputError):
            table.column("bmi")

    def test_duplicate_column_rejected(self, tmp_path):
        path = self.write_csv(tmp_path / "emr.csv", "age,age\n40,50\n")
        with pytest.raises(ParseError, match="line 1"):
            read_emr_csv(path)

    def test_non_finite_cells_are_not_numeric(self, tmp_path):
        path = self.write_csv(tmp_path / "emr.csv", "a,b,c\n1,2,3\ninf,nan,1e999\n")
        assert read_emr_csv(path).numeric_names() == []

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.text(alphabet=',\n\r" 0123456789.-+eEinfaNx\x00\u00e9', max_size=300)
        .map(str.encode),
    ))
    def test_arbitrary_bytes_parse_or_raise_typed(self, fuzz_dir, raw):
        path = fuzz_dir / "emr.csv"
        path.write_bytes(raw)
        try:
            table = read_emr_csv(path)
        except AuscultError:
            return
        assert isinstance(table, EmrTable)
        for name in table.numeric_names():
            assert not np.isinf(table.columns[name]).any()


class TestZscore:
    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            zscore(np.zeros((0, 2)))

    def test_overflowing_column_rejected(self):
        with pytest.raises(NonFiniteError):
            zscore(np.array([[1e308], [-1e308]]))

    def test_standardizes(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 3)) * 5 + 2
        z, mean, std = zscore(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(z * std + mean, x, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z, _, _ = zscore(x)
        np.testing.assert_array_equal(z[:, 0], 0.0)


class TestExport3d:
    def test_round_trip(self, tmp_path):
        table = EmrTable(columns={
            "x": np.array([1.0, 2.0]),
            "y": np.array([3.0, 4.0]),
            "z": np.array([5.0, 6.0]),
            "cluster": ["0", "1"],
        })
        path = tmp_path / "coords.csv"
        export_3d_coordinates(table, ["x", "y", "z"], "cluster", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "z", "cluster"]
        assert rows[1] == ["1", "3", "5", "0"]
        assert len(rows) == 3

    def test_requires_three_axes(self, tmp_path):
        table = EmrTable(columns={"x": np.array([1.0])})
        with pytest.raises(InvalidInputError):
            export_3d_coordinates(table, ["x"], "x", tmp_path / "c.csv")
