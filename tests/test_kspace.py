"""Pair enumeration, K-labels, balancing, and batch sampling."""

import numpy as np
import pytest

from kweave.kernels import KernelBank, build_kernel_bank, center_bank, compute_gram
from kweave.kspace import KExampleSet, balance, make_kexamples, sample_batch
from kweave.mkl import _split_kset

from conftest import bank_of, centered_bank_for, dense_centering, make_blobs


def tiny_bank(n: int, p: int = 2, seed: int = 0) -> KernelBank:
    """Synthetic centered bank; contents are arbitrary symmetric values."""
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(p):
        A = rng.normal(0, 1, (n, max(1, n // 2 + 1)))
        grams.append(A @ A.T)
    return bank_of(grams)


class TestMakeKexamples:
    def test_two_instance_enumeration(self):
        bank = tiny_bank(2)
        kset = make_kexamples(np.array([0, 1]), bank)
        np.testing.assert_array_equal(kset.pairs, [[0, 0], [0, 1], [1, 1]])
        np.testing.assert_array_equal(kset.t, [1, -1, 1])

    def test_single_class_all_positive(self):
        kset = make_kexamples(np.zeros(3, dtype=int), tiny_bank(3))
        assert len(kset) == 6
        assert kset.n_pos == 6 and kset.n_neg == 0

    def test_balanced_hundred_counting(self):
        labels = np.array([0] * 50 + [1] * 50)
        kset = make_kexamples(labels, tiny_bank(100))
        assert kset.n_pos == 2550 and kset.n_neg == 2500
        assert len(kset) == 5050

    def test_counting_law_small_range(self):
        for n in range(1, 40):
            kset = make_kexamples(np.zeros(n, dtype=int), tiny_bank(n))
            assert len(kset) == n * (n + 1) // 2

    def test_diagonal_pairs_always_positive(self):
        labels = np.array([0, 1, 0, 2])
        kset = make_kexamples(labels, tiny_bank(4, p=1))
        diag = kset.pairs[:, 0] == kset.pairs[:, 1]
        assert np.all(kset.t[diag] == 1)

    def test_z_values_are_exact_gram_entries(self):
        X = np.random.default_rng(9).normal(0, 1, (5, 2))
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"))
        kset = make_kexamples(np.array([0, 0, 1, 1, 0]), bank)
        Z = kset.z_rows(np.arange(len(kset)))
        dense = [dense_centering(compute_gram(spec, X)) for spec in bank.specs]
        for r, (i, j) in enumerate(kset.pairs):
            for l in range(bank.p):
                assert Z[r, l] == dense[l][i, j]  # bit-for-bit

    def test_stack_is_the_bank_store(self, toy_bank, toy_dataset):
        kset = make_kexamples(toy_dataset.labels, toy_bank)
        assert kset.stack is toy_bank.Z

    def test_raw_bank_rejected(self, toy_dataset):
        # a raw bank has no pair-major store: only center_bank makes one
        raw = build_kernel_bank(toy_dataset.instances, "uci_full")
        with pytest.raises(AttributeError, match="Z"):
            make_kexamples(toy_dataset.labels, raw)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_kexamples(np.zeros(4, dtype=int), tiny_bank(5))

    def test_scores_match_explicit_gather(self):
        bank = tiny_bank(6, p=3, seed=1)
        kset = make_kexamples(np.array([0, 1, 0, 1, 0, 1]), bank)
        mu = np.array([0.3, 0.0, 1.7])
        expected = kset.z_rows(np.arange(len(kset))) @ mu
        np.testing.assert_allclose(kset.scores(mu), expected, atol=1e-12)


class TestSharedLayout:
    """One pair-major matrix per bank; subsets copy index arrays, never rows."""

    def test_stack_is_pair_major_and_contiguous(self):
        n, p = 7, 3
        kset = make_kexamples(np.array([0, 1] * 3 + [0]), tiny_bank(n, p=p))
        assert kset.stack.shape == (n * (n + 1) // 2, p)
        assert kset.stack.dtype == np.float64
        assert kset.stack.flags.c_contiguous

    def test_balance_shares_stack(self):
        kset = make_kexamples(np.array([0] * 6 + [1] * 3), tiny_bank(9))
        bal = balance(kset, seed=0)
        assert len(bal) < len(kset)
        assert bal.stack is kset.stack

    def test_lambda_split_halves_share_stack(self):
        kset = make_kexamples(np.array([0] * 6 + [1] * 3), tiny_bank(9))
        train, val = _split_kset(kset, 0.2, seed=0)
        assert train.stack is kset.stack and val.stack is kset.stack
        np.testing.assert_array_equal(np.sort(np.concatenate([train.rows, val.rows])), kset.rows)


class TestBalance:
    def test_majority_subsampled_to_minority(self):
        labels = np.array([0] * 4 + [1] * 2)  # n_pos=13, n_neg=8
        kset = make_kexamples(labels, tiny_bank(6))
        bal = balance(kset, seed=0)
        assert bal.n_pos == bal.n_neg == min(kset.n_pos, kset.n_neg)

    def test_already_balanced_is_identity(self):
        labels = np.array([0, 1])  # 2 pos (diagonals), 1 neg -> not balanced; build balanced
        kset = make_kexamples(labels, tiny_bank(2))
        sub = kset.subset([0, 1])  # one pos, one neg
        assert balance(sub, seed=3) is sub

    def test_deterministic(self):
        labels = np.array([0] * 30 + [1] * 20)
        kset = make_kexamples(labels, tiny_bank(50))
        a, b = balance(kset, seed=7), balance(kset, seed=7)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.t, b.t)

    def test_membership_only_never_relabeling(self):
        labels = np.array([0] * 10 + [1] * 5)
        kset = make_kexamples(labels, tiny_bank(15))
        bal = balance(kset, seed=5)
        # every surviving (pair, label) appears identically in the source
        src = {(i, j): t for (i, j), t in zip(map(tuple, kset.pairs), kset.t)}
        for (i, j), t in zip(map(tuple, bal.pairs), bal.t):
            assert src[(i, j)] == t

    def test_order_preserved(self):
        labels = np.array([0] * 10 + [1] * 5)
        kset = make_kexamples(labels, tiny_bank(15))
        bal = balance(kset, seed=2)
        keys = bal.pairs[:, 0] * 15 + bal.pairs[:, 1]
        assert np.all(np.diff(keys) > 0)  # still in enumeration order

    def test_one_side_empty_errors(self):
        kset = make_kexamples(np.zeros(3, dtype=int), tiny_bank(3))
        with pytest.raises(ValueError, match="balance"):
            balance(kset, seed=0)


class TestSampleBatch:
    def test_gather_is_exact_with_stub_generator(self):
        bank = tiny_bank(4, p=2, seed=3)
        kset = make_kexamples(np.array([0, 0, 1, 1]), bank)

        class Sequential:
            def integers(self, lo, hi, size):
                return np.arange(size) % (hi - lo)

        batch = sample_batch(kset, len(kset), Sequential())
        np.testing.assert_array_equal(batch.z, kset.z_rows(np.arange(len(kset))))
        np.testing.assert_array_equal(batch.t, kset.t.astype(np.float64))

    def test_with_replacement_semantics(self):
        kset = make_kexamples(np.array([0, 0, 1, 1]), tiny_bank(4)).subset(range(10))
        batch = sample_batch(kset, 100, np.random.default_rng(0))
        assert batch.z.shape == (100, 2) and batch.t.shape == (100,)
        assert set(np.unique(batch.t)) <= {-1.0, 1.0}

    def test_empirical_frequencies_near_uniform(self):
        # chi-square style check: each of 10 pairs expected 10^4 times over 10^5 draws
        kset = make_kexamples(np.array([0, 0, 1, 1]), tiny_bank(4))
        assert len(kset) == 10
        rng = np.random.default_rng(123)
        draws = rng.integers(0, len(kset), size=100_000)  # same path sample_batch uses
        counts = np.bincount(draws, minlength=10)
        sigma = np.sqrt(100_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 10_000) <= 3 * sigma)

    def test_empty_set_errors(self):
        kset = make_kexamples(np.array([0, 1]), tiny_bank(2)).subset([])
        with pytest.raises(ValueError, match="empty"):
            sample_batch(kset, 10, np.random.default_rng(0))

    def test_buffered_gather_fills_the_buffer(self):
        kset = make_kexamples(np.array([0, 0, 1, 1, 0]), tiny_bank(5, p=3)).subset(
            [14, 2, 9, 0, 7, 11]
        )
        out = np.full((40, 3), np.nan)
        buffered = sample_batch(kset, 40, np.random.default_rng(5), out=out)
        plain = sample_batch(kset, 40, np.random.default_rng(5))
        assert np.shares_memory(buffered.z, out)
        np.testing.assert_array_equal(buffered.z, plain.z)
        np.testing.assert_array_equal(buffered.t, plain.t)
        # the next call overwrites the same buffer
        again = sample_batch(kset, 40, np.random.default_rng(6), out=out)
        assert again.z is buffered.z
        np.testing.assert_array_equal(
            again.z, sample_batch(kset, 40, np.random.default_rng(6)).z
        )


class TestRowsRange:
    """Gathers clip indices, so a bad row must be refused when the set is built."""

    def test_row_past_the_stack_rejected(self):
        stack = np.zeros((4, 2))
        with pytest.raises(ValueError, match="rows"):
            KExampleSet(np.zeros((2, 2)), np.array([1, -1]), stack, rows=[1, 4])

    def test_negative_row_rejected(self):
        stack = np.zeros((4, 2))
        with pytest.raises(ValueError, match="rows"):
            KExampleSet(np.zeros((2, 2)), np.array([1, -1]), stack, rows=[-1, 2])

    def test_stack_shorter_than_pairs_rejected(self):
        with pytest.raises(ValueError, match=r"rows must lie in \[0, 3\)"):
            KExampleSet(np.zeros((4, 2)), np.array([1, -1, 1, -1]), np.zeros((3, 2)))

    def test_in_range_rows_accepted(self):
        kset = KExampleSet(np.zeros((2, 2)), np.array([1, -1]), np.eye(4)[:, :2], rows=[3, 0])
        np.testing.assert_array_equal(kset.z_rows([0, 1]), [[0.0, 0.0], [1.0, 0.0]])
        assert len(kset.subset([])) == 0


def test_full_pipeline_labels_match_dataset():
    ds = make_blobs(n_per_class=8, d=3, seed=5)
    bank = centered_bank_for(ds)
    kset = make_kexamples(ds.labels, bank)
    ii, jj = kset.pairs[:, 0], kset.pairs[:, 1]
    np.testing.assert_array_equal(
        kset.t == 1, ds.labels[ii] == ds.labels[jj]
    )
