"""Loading, label encoding, splits, and feature scaling."""

import numpy as np
import pytest

from kweave.data import (
    Dataset,
    DatasetError,
    FeatureScaler,
    SplitPlan,
    holdout_split,
    kfold_plan,
    load_dataset,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCsvLoading:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "toy.csv", "a,b,label\n1.0,2.0,x\n3.0,4.0,y\n0.5,0.5,x\n")
        ds = load_dataset(path)
        assert ds.n == 3 and ds.d == 2
        assert ds.class_names == ("x", "y")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_allclose(ds.instances, [[1, 2], [3, 4], [0.5, 0.5]])

    def test_label_column_position_is_free(self, tmp_path):
        path = write(tmp_path, "mid.csv", "a,label,b\n1.0,x,2.0\n3.0,y,4.0\n")
        ds = load_dataset(path)
        np.testing.assert_allclose(ds.instances, [[1, 2], [3, 4]])

    def test_first_appearance_encoding(self, tmp_path):
        path = write(tmp_path, "enc.csv", "f,label\n1,b\n2,a\n3,b\n")
        ds = load_dataset(path)
        assert ds.class_names == ("b", "a")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "f,label\n1.0,x\noops,y\n")
        with pytest.raises(DatasetError, match=":3:"):
            load_dataset(path)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "nolabel.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DatasetError, match="label"):
            load_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "ragged.csv", "a,b,label\n1,2,x\n1,y\n")
        with pytest.raises(DatasetError, match=":3:"):
            load_dataset(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "one.csv", "f,label\n1,x\n2,x\n")
        with pytest.raises(DatasetError, match="one class"):
            load_dataset(path)

    def test_one_row_rejected(self, tmp_path):
        path = write(tmp_path, "one.csv", "f,label\n1,x\n")
        with pytest.raises(DatasetError, match="at least 2 instances"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "blank.csv", "f,label\n1,x\n\n2,y\n\n")
        assert load_dataset(path).n == 2

    def test_label_only_rejected(self, tmp_path):
        path = write(tmp_path, "labels.csv", "label\nx\ny\nx\n")
        with pytest.raises(DatasetError, match="feature column"):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "toy.csv", "f,label\n1,x\n2,y\n")
        with pytest.raises(DatasetError, match="format"):
            load_dataset(path, format="parquet")


class TestSparseLoading:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "toy.svm", "pos 1:0.5 3:2.0\nneg 2:1.0\n")
        ds = load_dataset(path, format="sparse_svm")
        assert ds.d == 3
        np.testing.assert_allclose(ds.instances, [[0.5, 0, 2.0], [0, 1.0, 0]])
        assert ds.class_names == ("pos", "neg")

    def test_one_row_rejected(self, tmp_path):
        path = write(tmp_path, "one.svm", "a 1:1.0\n")
        with pytest.raises(DatasetError, match="at least 2 instances"):
            load_dataset(path, format="sparse_svm")

    def test_indices_are_one_based(self, tmp_path):
        path = write(tmp_path, "zero.svm", "a 0:1.0\nb 1:1.0\n")
        with pytest.raises(DatasetError, match="1-based"):
            load_dataset(path, format="sparse_svm")

    def test_indices_strictly_increasing(self, tmp_path):
        path = write(tmp_path, "dup.svm", "a 1:1.0 1:2.0\nb 2:1.0\n")
        with pytest.raises(DatasetError, match="increasing"):
            load_dataset(path, format="sparse_svm")

    def test_malformed_entry(self, tmp_path):
        path = write(tmp_path, "bad.svm", "a 1=3\nb 1:1\n")
        with pytest.raises(DatasetError, match=":1:"):
            load_dataset(path, format="sparse_svm")

    def test_empty_rows_allowed(self, tmp_path):
        # a row with no entries is a legal all-zeros instance
        path = write(tmp_path, "zrow.svm", "a 1:1.0\nb\n")
        ds = load_dataset(path, format="sparse_svm")
        np.testing.assert_allclose(ds.instances[1], [0.0])

    def test_no_entries_at_all_rejected(self, tmp_path):
        path = write(tmp_path, "bare.svm", "a\nb\na\n")
        with pytest.raises(DatasetError, match="feature column"):
            load_dataset(path, format="sparse_svm")

    def test_line_without_label_rejected(self, tmp_path):
        # the first entry would otherwise become the class name and lose its value
        path = write(tmp_path, "nolabel.svm", "1:0.5 2:0.3\n2:0.1 3:0.9\n1:0.2 2:0.4\n")
        with pytest.raises(DatasetError, match=r"nolabel\.svm:1: missing label"):
            load_dataset(path, format="sparse_svm")


@pytest.mark.parametrize(
    "format, text",
    [
        ("csv", "label,f\npos,1.0\nneg,2.0\npos,3.0\nneg,4.0\n"),
        ("sparse_svm", "pos 1:1.0\nneg 1:2.0\npos 1:3.0\nneg 1:4.0\n"),
    ],
    ids=["csv", "sparse_svm"],
)
def test_byte_order_mark_is_ignored(tmp_path, format, text):
    # the mark must not stick to the first header name or the first label
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    ds = load_dataset(str(path), format=format)
    assert ds.class_names == ("pos", "neg")
    np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
    np.testing.assert_array_equal(ds.instances, [[1.0], [2.0], [3.0], [4.0]])


@pytest.mark.parametrize("spread, refused", [(0.0, True), (1e-13, True), (1.3e-11, False)])
def test_a_dataset_on_which_no_column_varies_is_refused(tmp_path, spread, refused):
    # FeatureScaler's constant-column bound: a column of std 1e-13 leaves every
    # kernel degenerate, one of std 1.3e-11 is scaled to unit variance
    rows = "".join(f"{1.0 + spread * (-1) ** i!r},2,{'ab'[i % 2]}\n" for i in range(20))
    path = write(tmp_path, "c.csv", "f,g,label\n" + rows)
    if refused:
        with pytest.raises(DatasetError, match=r"no feature column varies \(every std <= 1e-12\)"):
            load_dataset(path)
    else:
        assert load_dataset(path).instances[:, 0].std() > 1e-11
    sparse = write(tmp_path, "c.svm", "a 1:1 2:5\nb 1:1 2:5\n" * 3)
    with pytest.raises(DatasetError, match="no feature column varies"):
        load_dataset(sparse, format="sparse_svm")


class TestDatasetValidation:
    def test_nan_rejected(self):
        with pytest.raises(DatasetError, match="finite"):
            Dataset(np.array([[1.0], [np.nan]]), [0, 1], ("a", "b"))

    def test_all_classes_must_appear(self):
        with pytest.raises(DatasetError, match="no instances"):
            Dataset(np.ones((2, 1)), [0, 0], ("a", "b"))

    def test_subset_keeps_encoding(self, toy_dataset):
        sub = toy_dataset.subset([0, 1, 25])
        assert sub.class_names == toy_dataset.class_names
        np.testing.assert_array_equal(sub.labels, toy_dataset.labels[[0, 1, 25]])
        np.testing.assert_array_equal(sub.instances, toy_dataset.instances[[0, 1, 25]])


class TestHoldoutSplit:
    def test_deterministic_and_disjoint(self, toy_dataset):
        a = holdout_split(toy_dataset, 0.8, seed=7)
        b = holdout_split(toy_dataset, 0.8, seed=7)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)
        np.testing.assert_array_equal(a.test_indices, b.test_indices)
        together = np.concatenate([a.train_indices, a.test_indices])
        np.testing.assert_array_equal(np.sort(together), np.arange(toy_dataset.n))

    def test_different_seeds_differ(self, toy_dataset):
        a = holdout_split(toy_dataset, 0.8, seed=1)
        b = holdout_split(toy_dataset, 0.8, seed=2)
        assert not np.array_equal(a.train_indices, b.train_indices)

    def test_stratified_counts_round_half_up(self):
        # class sizes 10 and 30 at fraction 0.8 -> 8 + 24 train rows
        ds = make_unbalanced(10, 30)
        plan = holdout_split(ds, 0.8, seed=0, stratified=True)
        train_labels = ds.labels[plan.train_indices]
        assert int(np.sum(train_labels == 0)) == 8
        assert int(np.sum(train_labels == 1)) == 24

    def test_stratified_keeps_one_test_member_per_class(self):
        # 2-member class at fraction 0.9: round-half-up gives 2, clamped to 1
        ds = make_unbalanced(2, 20)
        plan = holdout_split(ds, 0.9, seed=0, stratified=True)
        test_labels = ds.labels[plan.test_indices]
        assert int(np.sum(test_labels == 0)) == 1

    def test_plain_split_count(self, toy_dataset):
        plan = holdout_split(toy_dataset, 0.75, seed=0, stratified=False)
        assert plan.train_indices.size == 30  # round-half-up of 0.75 * 40

    def test_bad_fraction(self, toy_dataset):
        with pytest.raises(ValueError):
            holdout_split(toy_dataset, 1.0, seed=0)


class TestKfold:
    def test_sizes_differ_by_at_most_one(self):
        plans = kfold_plan(10, 4, seed=0)
        sizes = [p.test_indices.size for p in plans]
        assert sorted(sizes) == [2, 2, 3, 3]
        assert sizes == [3, 3, 2, 2]  # the first n % k folds are the larger ones

    def test_folds_partition_everything(self):
        plans = kfold_plan(11, 3, seed=5)
        test_union = np.sort(np.concatenate([p.test_indices for p in plans]))
        np.testing.assert_array_equal(test_union, np.arange(11))
        for p in plans:
            together = np.sort(np.concatenate([p.train_indices, p.test_indices]))
            np.testing.assert_array_equal(together, np.arange(11))

    def test_deterministic(self):
        a = kfold_plan(20, 4, seed=3)
        b = kfold_plan(20, 4, seed=3)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.test_indices, pb.test_indices)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_plan(3, 4, seed=0)
        with pytest.raises(ValueError):
            kfold_plan(10, 1, seed=0)


class TestSplitPlan:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitPlan([0, 1], [1, 2])

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SplitPlan([0, 1], [])


class TestFeatureScaler:
    def test_train_statistics(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, (200, 4))
        scaler = FeatureScaler.fit(X)
        Z = scaler.apply(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_passes_through_as_zeros(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        Z = FeatureScaler.fit(X).apply(X)
        np.testing.assert_array_equal(Z[:, 0], np.zeros(10))

    def test_apply_uses_train_stats(self):
        X = np.arange(10.0).reshape(-1, 1)
        scaler = FeatureScaler.fit(X)
        out = scaler.apply(np.array([[4.5]]))
        np.testing.assert_allclose(out, [[0.0]])


def make_unbalanced(n0: int, n1: int) -> Dataset:
    rng = np.random.default_rng(42)
    X = rng.normal(0, 1, (n0 + n1, 3))
    y = np.array([0] * n0 + [1] * n1)
    return Dataset(X, y, ("a", "b"))
