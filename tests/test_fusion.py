"""Fusion and metric tests against hand-tallied oracles."""

import csv

import numpy as np
import pytest

from auscult.errors import InvalidInputError, NonFiniteError
from auscult.fusion import (
    ConfusionCounts,
    ProbabilityVector,
    TaskMetrics,
    alpha_sweep,
    compute_metrics,
    confusion_counts,
    fuse_probabilities,
    predict_class,
    write_sweep_csv,
)

LABELS = ("normal", "crackle", "wheeze")


def pv(*probs):
    return ProbabilityVector(probs=np.array(probs), label_map=LABELS[: len(probs)])


class TestProbabilityVector:
    def test_valid(self):
        v = pv(0.2, 0.3, 0.5)
        assert v.probs.sum() == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            pv(-0.1, 0.6, 0.5)

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidInputError):
            pv(0.5, 0.6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector(probs=np.array([1.0]), label_map=("a", "b"))

    @pytest.mark.parametrize("probs", [(np.nan, np.nan), (0.5, np.nan)])
    def test_non_finite_rejected(self, probs):
        with pytest.raises(InvalidInputError):
            ProbabilityVector(probs=np.array(probs), label_map=("a", "b"))


class TestFuse:
    def test_alpha_one_returns_first_exactly(self):
        a, b = pv(0.7, 0.3), pv(0.1, 0.9)
        fused = fuse_probabilities(a, b, 1.0)
        np.testing.assert_array_equal(fused.probs, a.probs)

    def test_alpha_zero_returns_second_exactly(self):
        a, b = pv(0.7, 0.3), pv(0.1, 0.9)
        fused = fuse_probabilities(a, b, 0.0)
        np.testing.assert_array_equal(fused.probs, b.probs)

    def test_worked_example(self):
        fused = fuse_probabilities(pv(0.7, 0.3), pv(0.1, 0.9), 0.2)
        np.testing.assert_allclose(fused.probs, [0.22, 0.78], atol=1e-12)

    def test_linear_in_alpha(self):
        a, b = pv(0.7, 0.3), pv(0.1, 0.9)
        for alpha in (0.15, 0.4, 0.85):
            fused = fuse_probabilities(a, b, alpha)
            expected = b.probs + alpha * (a.probs - b.probs)
            np.testing.assert_allclose(fused.probs, expected, atol=1e-15)

    def test_simplex_closure_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            alpha = rng.uniform()
            labels = ("a", "b", "c", "d")
            fused = fuse_probabilities(
                ProbabilityVector(x, labels), ProbabilityVector(y, labels), alpha
            )
            assert fused.probs.min() >= 0
            assert fused.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_label_mismatch_rejected(self):
        a = ProbabilityVector(np.array([1.0, 0.0]), ("x", "y"))
        b = ProbabilityVector(np.array([1.0, 0.0]), ("x", "z"))
        with pytest.raises(InvalidInputError):
            fuse_probabilities(a, b, 0.5)

    def test_alpha_out_of_range_rejected(self):
        a, b = pv(0.7, 0.3), pv(0.1, 0.9)
        for alpha in (-0.1, 1.1):
            with pytest.raises(InvalidInputError):
                fuse_probabilities(a, b, alpha)


class TestPredictClass:
    def test_tie_goes_to_lower_index(self):
        assert predict_class([0.4, 0.4, 0.2]) == 0

    def test_argmax(self):
        assert predict_class([0.1, 0.2, 0.7]) == 2


class TestConfusionCounts:
    def test_all_correct(self):
        counts = confusion_counts([0, 1, 2, 1], [0, 1, 2, 1], normal_class=0)
        np.testing.assert_array_equal(counts.correct, counts.totals)

    def test_all_wrong(self):
        counts = confusion_counts([1, 2, 0], [0, 1, 2], normal_class=0)
        np.testing.assert_array_equal(counts.correct, 0)

    def test_hand_tally(self):
        # truths:      0 0 1 1 2 2   (normal=0)
        # predictions: 0 1 1 2 2 2
        # normal 1 of 2 correct, adventitious 3 of 4
        counts = confusion_counts([0, 1, 1, 2, 2, 2], [0, 0, 1, 1, 2, 2], 0)
        m = compute_metrics(counts)
        assert (m.se, m.sp) == (3 / 4, 1 / 2)
        # the same tallies with class 2 as the normal one: 2 of 2, 2 of 4
        m = compute_metrics(confusion_counts([0, 1, 1, 2, 2, 2],
                                             [0, 0, 1, 1, 2, 2], 2))
        assert (m.se, m.sp) == (2 / 4, 2 / 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            confusion_counts([], [], 0)

    def test_negative_class_rejected(self):
        with pytest.raises(InvalidInputError):
            confusion_counts([0, 1, 1], [0, 1, -1], 0)
        with pytest.raises(InvalidInputError):
            confusion_counts([0, -1, 1], [0, 1, 1], 0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ConfusionCounts(
                correct=np.array([3, 1]), totals=np.array([2, 1]), normal_class=0
            )


class TestComputeMetrics:
    def worked_counts(self):
        # adventitious 30/40 across two classes, normal 50/60
        return ConfusionCounts(
            correct=np.array([50, 20, 10]),
            totals=np.array([60, 25, 15]),
            normal_class=0,
        )

    def test_worked_example(self):
        m = compute_metrics(self.worked_counts())
        assert m.se == pytest.approx(0.7500, abs=5e-5)
        assert m.sp == pytest.approx(0.8333, abs=5e-5)
        assert m.as_score == pytest.approx(0.7917, abs=5e-5)
        assert m.hs == pytest.approx(0.7895, abs=5e-5)
        assert m.final_score == pytest.approx(0.7906, abs=5e-5)

    def test_perfect_classifier(self):
        counts = ConfusionCounts(
            correct=np.array([10, 5, 5]), totals=np.array([10, 5, 5]), normal_class=0
        )
        m = compute_metrics(counts)
        assert m.se == m.sp == m.as_score == m.hs == m.final_score == 1.0

    def test_equal_se_sp_identity(self):
        # SE = SP = 0.6 exactly
        counts = ConfusionCounts(
            correct=np.array([6, 6]), totals=np.array([10, 10]), normal_class=0
        )
        m = compute_metrics(counts)
        assert m.se == m.sp == pytest.approx(0.6)
        assert m.as_score == pytest.approx(0.6)
        assert m.hs == pytest.approx(0.6)
        assert m.final_score == pytest.approx(0.6)

    def test_zero_se_sp_gives_zero_hs(self):
        counts = ConfusionCounts(
            correct=np.array([0, 0]), totals=np.array([10, 10]), normal_class=0
        )
        m = compute_metrics(counts)
        assert m.hs == 0.0 and m.final_score == 0.0

    def test_ratio_invariance(self):
        base = self.worked_counts()
        scaled = ConfusionCounts(
            correct=base.correct * 7, totals=base.totals * 7, normal_class=0
        )
        a, b = compute_metrics(base), compute_metrics(scaled)
        assert a == b

    def test_hs_never_exceeds_as(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            totals = rng.integers(1, 20, size=3)
            correct = rng.integers(0, totals + 1)
            m = compute_metrics(ConfusionCounts(correct, totals, normal_class=0))
            assert m.hs <= m.as_score + 1e-12

    def test_zero_denominator_rejected(self):
        counts = ConfusionCounts(
            correct=np.array([0, 3]), totals=np.array([0, 5]), normal_class=0
        )
        with pytest.raises(InvalidInputError):
            compute_metrics(counts)

    def test_metrics_validation(self):
        with pytest.raises(InvalidInputError):
            TaskMetrics(se=1.2, sp=0.5, as_score=0.85, hs=0.7, final_score=0.78)


def make_sweep_inputs(seed=0, n=60):
    """Tabular model perfect, audio model uniform-random."""
    rng = np.random.default_rng(seed)
    labels = ("normal", "crackle", "wheeze")
    truths = rng.integers(0, 3, size=n)
    truths[:3] = [0, 1, 2]  # every class present
    p_rene, p_gbdt = [], []
    for t in truths:
        p_rene.append(ProbabilityVector(rng.dirichlet(np.ones(3)), labels))
        perfect = np.full(3, 0.05)
        perfect[t] = 0.9
        p_gbdt.append(ProbabilityVector(perfect, labels))
    return p_rene, p_gbdt, truths


class TestAlphaSweep:
    def test_eleven_rows(self):
        p_rene, p_gbdt, truths = make_sweep_inputs()
        rows = alpha_sweep(p_rene, p_gbdt, truths, normal_class=0)
        assert len(rows) == 11
        assert [round(a, 1) for a, _ in rows] == [i / 10 for i in range(11)]

    def test_endpoint_matches_pure_rene(self):
        p_rene, p_gbdt, truths = make_sweep_inputs(seed=2)
        rows = alpha_sweep(p_rene, p_gbdt, truths, normal_class=0)
        preds = [predict_class(v.probs) for v in p_rene]
        expected = compute_metrics(confusion_counts(preds, truths, 0))
        assert rows[-1][1] == expected

    def test_perfect_tabular_wins_at_alpha_zero(self):
        p_rene, p_gbdt, truths = make_sweep_inputs(seed=3)
        rows = alpha_sweep(p_rene, p_gbdt, truths, normal_class=0)
        scores = [m.final_score for _, m in rows]
        assert rows[0][1].final_score == pytest.approx(1.0)
        assert scores[0] == max(scores)

    def test_csv_columns(self, tmp_path):
        p_rene, p_gbdt, truths = make_sweep_inputs(seed=4, n=30)
        rows = alpha_sweep(p_rene, p_gbdt, truths, normal_class=0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["alpha", "se", "sp", "as", "hs", "score"]
        assert len(parsed) == 12
        assert parsed[1][0] == "0.0" and parsed[-1][0] == "1.0"

    def test_misaligned_rejected(self):
        p_rene, p_gbdt, truths = make_sweep_inputs(n=10)
        with pytest.raises(InvalidInputError):
            alpha_sweep(p_rene[:5], p_gbdt, truths, 0)

    def test_matches_per_row_fusion_exactly(self):
        rng = np.random.default_rng(7)
        labels = tuple(f"c{i}" for i in range(8))
        truths = rng.integers(0, 8, size=230)
        truths[:8] = np.arange(8)
        rene = rng.dirichlet(np.ones(8), size=230)
        gbdt = rng.dirichlet(np.ones(8) * 0.3, size=230)
        # exact ties, which the fused argmax must break toward the lower index
        rene[:20] = gbdt[:20] = [0.25, 0.25, 0.125, 0.125, 0.25, 0.0, 0.0, 0.0]
        p_rene = [ProbabilityVector(p, labels) for p in rene]
        p_gbdt = [ProbabilityVector(p, labels) for p in gbdt]
        expected = []
        for step in range(11):
            alpha = step / 10.0
            preds = [predict_class(fuse_probabilities(a, b, alpha).probs)
                     for a, b in zip(p_rene, p_gbdt)]
            expected.append((alpha, compute_metrics(confusion_counts(preds, truths, 0))))
        assert alpha_sweep(p_rene, p_gbdt, truths, 0) == expected

    def test_label_maps_checked_per_pair(self):
        p_rene, p_gbdt, truths = make_sweep_inputs(n=10)
        p_gbdt[4] = ProbabilityVector(p_gbdt[4].probs, ("a", "b", "c"))
        with pytest.raises(InvalidInputError):
            alpha_sweep(p_rene, p_gbdt, truths, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            alpha_sweep([], [], [], 0)

    @pytest.mark.parametrize("probs, error", [
        ([0.5, 0.5, np.nan], NonFiniteError),
        ([1.5, -0.5, 0.0], InvalidInputError),
    ])
    def test_fused_rows_checked_like_fuse_probabilities(self, probs, error):
        # a vector's array can be written after it was validated
        p_rene, p_gbdt, truths = make_sweep_inputs(n=10)
        p_rene[2].probs[:] = probs
        with pytest.raises(error):
            fuse_probabilities(p_rene[2], p_gbdt[2], 1.0)
        with pytest.raises(error):
            alpha_sweep(p_rene, p_gbdt, truths, 0)
