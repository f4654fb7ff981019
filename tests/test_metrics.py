"""Classification measures and the least-confident rejection filter."""

import json

import numpy as np
import pytest

from kweave.metrics import (
    confusion_matrix,
    evaluate,
    filter_unsure,
    margin_confidence,
)


class TestConfusionMatrix:
    def test_counts_by_position(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], c=2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])
        assert cm.dtype == np.int64
        assert cm.sum() == 4

    def test_includes_absent_classes(self):
        cm = confusion_matrix([0, 0], [0, 0], c=3)
        assert cm.shape == (3, 3)
        assert cm.sum() == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="range"):
            confusion_matrix([0, 3], [0, 1], c=2)
        with pytest.raises(ValueError, match="length"):
            confusion_matrix([0, 1], [0], c=2)
        with pytest.raises(ValueError, match="empty"):
            confusion_matrix([], [], c=2)


class TestEvaluate:
    def test_perfect_predictions(self):
        rep = evaluate([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2], c=3)
        assert rep["accuracy"] == 1.0
        assert rep["mean_per_class_accuracy"] == 1.0
        np.testing.assert_array_equal(rep["f1_per_class"], np.ones(3))
        np.testing.assert_array_equal(rep["mcc_per_class"], np.ones(3))
        assert rep["macro_f1"] == 1.0
        assert rep["mean_mcc"] == 1.0
        assert rep["retained_fraction"] == 1.0

    def test_coin_flip_binary(self):
        # TP = TN = FP = FN = 1 for both classes: MCC must vanish
        rep = evaluate([0, 0, 1, 1], [0, 1, 1, 0], c=2)
        assert rep["accuracy"] == 0.5
        np.testing.assert_array_equal(rep["mcc_per_class"], [0.0, 0.0])
        assert rep["mean_mcc"] == 0.0

    def test_hand_binary_case(self):
        rep = evaluate([0, 0, 1, 1], [0, 1, 1, 1], c=2)
        assert rep["accuracy"] == 0.75
        # class 0: precision 1, recall 1/2; class 1: precision 2/3, recall 1
        assert rep["f1_per_class"][0] == pytest.approx(2.0 / 3.0)
        assert rep["f1_per_class"][1] == pytest.approx(0.8)
        assert rep["macro_f1"] == pytest.approx((2.0 / 3.0 + 0.8) / 2.0)
        assert rep["mean_per_class_accuracy"] == pytest.approx(0.75)
        # one-vs-rest MCC is symmetric across the two classes here
        assert rep["mcc_per_class"][0] == pytest.approx(rep["mcc_per_class"][1])
        assert rep["mcc_per_class"][0] == pytest.approx(1.0 / np.sqrt(3.0))

    def test_absent_class_scores_zero(self):
        # class 2 never occurs in truth or prediction: 0/0 -> 0
        rep = evaluate([0, 1], [0, 1], c=3)
        assert rep["f1_per_class"][2] == 0.0
        assert rep["mcc_per_class"][2] == 0.0

    def test_accuracy_equals_mean_recall_with_equal_supports(self):
        rng = np.random.default_rng(0)
        true = np.repeat([0, 1, 2], 30)
        pred = rng.integers(0, 3, true.size)
        rep = evaluate(true, pred, c=3)
        assert rep["accuracy"] == pytest.approx(rep["mean_per_class_accuracy"])

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 3, 60)
        pred = rng.integers(0, 3, 60)
        rep = evaluate(true, pred, c=3)
        # relabel classes by the cycle 0->1->2->0
        relabel = np.array([1, 2, 0])
        rep2 = evaluate(relabel[true], relabel[pred], c=3)
        assert rep2["accuracy"] == rep["accuracy"]
        assert rep2["mean_per_class_accuracy"] == pytest.approx(rep["mean_per_class_accuracy"])
        np.testing.assert_allclose(np.sort(rep2["f1_per_class"]), np.sort(rep["f1_per_class"]))
        np.testing.assert_allclose(np.sort(rep2["mcc_per_class"]), np.sort(rep["mcc_per_class"]))

    def test_mcc_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = int(rng.integers(2, 5))
            m = int(rng.integers(1, 40))
            true = rng.integers(0, c, m)
            pred = rng.integers(0, c, m)
            rep = evaluate(true, pred, c)
            assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in rep["mcc_per_class"])
            assert 0.0 <= rep["accuracy"] <= 1.0

    def test_to_dict(self):
        rep = evaluate([0, 0, 1, 1], [0, 1, 1, 1], c=2)
        assert "confusion" not in rep  # only `kweave evaluate` writes it
        assert rep["accuracy"] == 0.75
        # every value is a JSON type, so the reports serialize it as it is
        for value in rep.values():
            assert type(value) is float or all(type(v) is float for v in value)
        assert json.loads(json.dumps(rep)) == rep


class TestMarginConfidence:
    def test_hand_matrix(self):
        D = np.array(
            [
                [2.0, 0.5, -1.0],
                [0.1, 0.4, 0.3],
                [-1.0, -1.0, -3.0],
            ]
        )
        np.testing.assert_allclose(margin_confidence(D), [1.5, 0.1, 0.0])

    def test_two_columns(self):
        np.testing.assert_allclose(
            margin_confidence(np.array([[1.0, -1.0], [0.2, 0.9]])), [2.0, 0.7]
        )

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            margin_confidence(np.ones((4, 1)))


class TestFilterUnsure:
    def test_zero_fraction_is_noop(self):
        conf = np.array([0.3, 0.1, 0.9])
        pred = np.array([0, 1, 1])
        true = np.array([0, 0, 1])
        kept, rep = filter_unsure(conf, pred, true, 0.0, c=2)
        np.testing.assert_array_equal(kept, [0, 1, 2])
        assert rep["retained_fraction"] == 1.0
        base = evaluate(true, pred, c=2)
        assert rep["accuracy"] == base["accuracy"]
        np.testing.assert_array_equal(rep["f1_per_class"], base["f1_per_class"])

    def test_drop_count_floors(self):
        rng = np.random.default_rng(3)
        m = 100
        conf = rng.random(m)
        pred = rng.integers(0, 2, m)
        true = rng.integers(0, 2, m)
        kept, rep = filter_unsure(conf, pred, true, 0.15, c=2)
        assert kept.size == 85
        assert rep["retained_fraction"] == pytest.approx(0.85)

    def test_drops_least_confident(self):
        conf = np.array([0.1, 0.9, 0.5, 0.7])
        pred = np.array([1, 0, 0, 1])
        true = np.array([0, 0, 1, 1])
        kept, rep = filter_unsure(conf, pred, true, 0.25, c=2)
        np.testing.assert_array_equal(kept, [1, 2, 3])
        # the dropped point was the sole error
        assert rep["accuracy"] == pytest.approx(2.0 / 3.0)

    def test_ties_drop_lower_index_first(self):
        conf = np.array([0.5, 0.5, 0.5, 0.9])
        pred = np.array([0, 0, 0, 0])
        true = np.array([0, 0, 0, 0])
        kept, _ = filter_unsure(conf, pred, true, 0.5, c=2)
        np.testing.assert_array_equal(kept, [2, 3])

    def test_retained_sets_nest_as_fraction_grows(self):
        rng = np.random.default_rng(4)
        m = 40
        conf = rng.random(m)
        pred = rng.integers(0, 3, m)
        true = rng.integers(0, 3, m)
        previous = None
        for rho in (0.0, 0.1, 0.2, 0.35, 0.5, 0.8):
            kept, _ = filter_unsure(conf, pred, true, rho, c=3)
            if previous is not None:
                assert set(kept).issubset(set(previous))
            previous = kept

    def test_validation(self):
        conf = np.array([0.1, 0.2])
        ok = np.array([0, 1])
        with pytest.raises(ValueError, match="drop_fraction"):
            filter_unsure(conf, ok, ok, 1.0, c=2)
        with pytest.raises(ValueError, match="drop_fraction"):
            filter_unsure(conf, ok, ok, -0.1, c=2)
        with pytest.raises(ValueError, match="equal length"):
            filter_unsure(conf, np.array([0]), ok, 0.0, c=2)
        with pytest.raises(ValueError, match="empty"):
            filter_unsure(np.array([]), np.array([]), np.array([]), 0.0, c=2)
