"""Pair enumeration, K-labels, the planned row order, balancing, and batches."""

import numpy as np
import pytest

from kweave.baselines import alignment_problem_from_bank
from kweave.kernels import (
    KernelBank,
    KernelError,
    build_kernel_bank,
    center_bank,
    combine,
)
from kweave.kspace import KExampleSet, balance, make_kexamples, plan_rows, sample_batch
from kweave.mkl import _split_kset, hinge_loss

from conftest import bank_of, center_standardize_fit, centered_bank_for, compute_gram, make_blobs


def tiny_bank(n: int, p: int = 2, seed: int = 0) -> KernelBank:
    """Synthetic centered bank; contents are arbitrary symmetric values."""
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(p):
        A = rng.normal(0, 1, (n, max(1, n // 2 + 1)))
        grams.append(A @ A.T)
    return bank_of(grams)


def planned_order(labels, balance_seed: int, split_seed: int):
    """plan_rows' pairs, and each one's row in np.triu_indices(n) order."""
    pairs, _ = plan_rows(labels, balance_seed, split_seed)
    n = len(labels)
    natural_row = np.full((n, n), -1)
    natural_row[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    return pairs, natural_row[pairs]


def planned_bank(labels, p: int = 2, seed: int = 0, balance_seed: int = 1, split_seed: int = 2):
    """tiny_bank's store with its rows in plan_rows' order for these labels."""
    natural = tiny_bank(len(labels), p, seed)
    pairs, order = planned_order(labels, balance_seed, split_seed)
    return KernelBank(natural.specs, natural.features, np.ascontiguousarray(natural.Z[order]),
                      natural.stats, pairs)


def pairs_of(kset: KExampleSet, bank: KernelBank) -> np.ndarray:
    """The (i, j) instance pairs of a set's rows, which lead the bank's store."""
    ii, jj = bank.pairs
    return np.stack([ii, jj], axis=1)[: len(kset)]


def reference_sets(labels, balance_seed: int, split_seed: int):
    """Balancing and the lambda 80/20 split as subsets of the K-space in
    natural pair order, in plain numpy: (balanced, lambda train, validation)
    as pair indices into np.triu_indices(n), each in the order the subset
    lists them."""
    labels = np.asarray(labels)
    ii, jj = np.triu_indices(len(labels))
    t = np.where(labels[ii] == labels[jj], 1, -1)
    n_pos, n_neg = int(np.sum(t > 0)), int(np.sum(t < 0))
    balanced = np.arange(len(t))
    if n_pos != n_neg:
        maj = np.flatnonzero(t > 0) if n_pos > n_neg else np.flatnonzero(t < 0)
        keep = np.random.default_rng(balance_seed).choice(maj, min(n_pos, n_neg), replace=False)
        mask = np.ones(len(t), dtype=bool)
        mask[maj] = False
        mask[keep] = True
        balanced = np.flatnonzero(mask)
    m = len(balanced)
    n_val = int(np.floor(0.2 * m + 0.5))
    perm = np.random.default_rng(split_seed).permutation(m)
    return balanced, balanced[perm[n_val:]], balanced[perm[:n_val]]


class TestMakeKexamples:
    def test_two_instance_enumeration(self):
        bank = tiny_bank(2)
        kset = make_kexamples(np.array([0, 1]), bank)
        np.testing.assert_array_equal(pairs_of(kset, bank), [[0, 0], [0, 1], [1, 1]])
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
        bank = planned_bank(labels, p=1)
        kset = make_kexamples(labels, bank)
        ii, jj = pairs_of(kset, bank).T
        diag = ii == jj
        assert diag.sum() == 4
        assert np.all(kset.t[diag] == 1)

    def test_z_values_are_exact_gram_entries(self):
        X = np.random.default_rng(9).normal(0, 1, (5, 2))
        labels = np.array([0, 0, 1, 1, 0])
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 3, 4)[0])
        kset = make_kexamples(labels, bank)
        # the store is the float32 rounding of the float64 centering
        dense = [
            center_standardize_fit(compute_gram(spec, X))[0].astype(np.float32)
            for spec in bank.specs
        ]
        assert kset.stack.dtype == np.float32
        for r, (i, j) in enumerate(pairs_of(kset, bank)):
            assert kset.t[r] == (1 if labels[i] == labels[j] else -1)
            for l in range(bank.p):
                assert kset.stack[r, l] == dense[l][i, j]  # bit-for-bit

    def test_stack_is_the_bank_store(self, toy_bank, toy_dataset):
        kset = make_kexamples(toy_dataset.labels, toy_bank)
        assert kset.stack is toy_bank.Z

    def test_raw_bank_rejected(self, toy_dataset):
        # a raw bank has no pair-major store: only center_bank makes one
        raw = build_kernel_bank(toy_dataset.instances, "uci_full")
        with pytest.raises(AttributeError, match="pairs"):
            make_kexamples(toy_dataset.labels, raw)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            make_kexamples(np.zeros(4, dtype=int), tiny_bank(5))

    def test_scores_match_explicit_gather(self):
        bank = tiny_bank(6, p=3, seed=1)
        kset = make_kexamples(np.array([0, 1, 0, 1, 0, 1]), bank)
        mu = np.array([0.3, 0.0, 1.7])
        expected = np.array([kset.stack[r] @ mu for r in range(len(kset))])
        np.testing.assert_allclose(kset.scores(mu), expected, atol=1e-12)


class TestSharedLayout:
    """One pair-major matrix per bank; subsets are contiguous views of its rows."""

    def test_stack_is_pair_major_and_contiguous(self):
        n = 7
        X = np.random.default_rng(4).normal(0, 1, (n, 3))
        labels = np.array([0, 1] * 3 + [0])
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 0, 1)[0])
        kset = make_kexamples(labels, bank)
        assert kset.stack.shape == (n * (n + 1) // 2, 13)
        assert kset.stack.dtype == np.float32
        assert kset.stack.flags.c_contiguous

    def test_balance_shares_stack(self):
        labels = np.array([0] * 6 + [1] * 3)
        kset = make_kexamples(labels, planned_bank(labels))
        bal = balance(kset)
        assert len(bal) < len(kset)
        assert bal.stack.base is kset.stack and bal.stack.ctypes.data == kset.stack.ctypes.data

    def test_lambda_split_halves_share_stack(self):
        labels = np.array([0] * 6 + [1] * 3)
        bal = balance(make_kexamples(labels, planned_bank(labels)))
        train, val = _split_kset(bal)
        assert train.stack.base is bal.stack.base and val.stack.base is bal.stack.base
        # validation leads and train follows: together, the balanced block
        assert val.stack.ctypes.data == bal.stack.ctypes.data
        assert train.stack.ctypes.data == bal.stack[len(val):].ctypes.data
        assert len(train) + len(val) == len(bal)


class TestPlannedLayout:
    """The planned row order: the same sets as natural-order subsetting, stored permuted."""

    @pytest.mark.parametrize(
        "labels",
        [
            [0] * 6 + [1] * 3,  # more same-class pairs
            [0, 1, 0, 1, 2, 3, 2],  # more cross-class pairs
            [0, 1, 2],  # already balanced: 3 diagonal pairs, 3 cross pairs
            [0] * 9 + [1] * 8 + [2] * 5,
        ],
    )
    @pytest.mark.parametrize("seeds", [(1, 2), (7, 7), (123, 4)])
    def test_sets_equal_the_natural_order_reference(self, labels, seeds):
        labels = np.asarray(labels)
        bank = planned_bank(labels, seed=3, balance_seed=seeds[0], split_seed=seeds[1])
        bal = balance(make_kexamples(labels, bank))
        train, val = _split_kset(bal)
        want_bal, want_train, want_val = reference_sets(labels, *seeds)
        # rows hold the pairs of the natural-order subsets, in the order they list them
        tri = np.stack(np.triu_indices(len(labels)), axis=1)
        pairs = np.stack(bank.pairs, axis=1)
        np.testing.assert_array_equal(pairs[len(val) : len(bal)], tri[want_train])
        np.testing.assert_array_equal(pairs[: len(val)], tri[want_val])
        np.testing.assert_array_equal(np.unique(pairs[: len(bal)], axis=0), tri[want_bal])
        assert bal.n_pos == bal.n_neg == len(want_bal) // 2
        assert len(train) == len(want_train) and len(val) == len(want_val)
        # the rows balancing drops follow, in pair order: together, every pair once
        dropped = pairs[len(bal):]
        np.testing.assert_array_equal(np.unique(dropped, axis=0), dropped)
        np.testing.assert_array_equal(np.unique(pairs, axis=0), tri)

    def test_plan_counts_the_balanced_kexamples(self):
        for labels in ([0, 1, 0], [0, 1], [0] * 5, [0, 0, 1, 1, 2], list(range(6))):
            ii, jj = np.triu_indices(len(labels))
            same = int(np.sum(np.asarray(labels)[ii] == np.asarray(labels)[jj]))
            _, m = plan_rows(labels, 0, 0)
            assert m == 2 * min(same, len(ii) - same)

    def test_ordered_store_is_the_natural_store_permuted(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([rng.normal(0, 1, (9, 2)), np.ones(9)])  # drops kernels
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
        pairs, order = planned_order(labels, 5, 6)
        ii, jj = np.triu_indices(9)
        # the plan's pairs are int32 and np.triu_indices' pairs, permuted
        assert pairs[0].dtype == pairs[1].dtype == np.int32
        np.testing.assert_array_equal(np.sort(order), np.arange(ii.size))
        np.testing.assert_array_equal(pairs[0], ii[order])
        np.testing.assert_array_equal(pairs[1], jj[order])
        natural, dropped = center_bank(build_kernel_bank(X, "uci_full_plus_per_feature"), (ii, jj))
        ordered, dropped_o = center_bank(build_kernel_bank(X, "uci_full_plus_per_feature"), pairs)
        assert dropped and dropped_o == dropped
        assert ordered.Z.flags.c_contiguous and ordered.Z.flags.owndata
        assert ordered.Z.tobytes() == natural.Z[order].tobytes()
        assert ordered.pairs[0] is pairs[0] and ordered.pairs[1] is pairs[1]
        assert natural.pairs[0] is ii and natural.pairs[1] is jj
        for a, b in zip(ordered.stats, natural.stats):
            np.testing.assert_array_equal(a.row_means, b.row_means)
            assert (a.grand_mean, a.scale) == (b.grand_mean, b.scale)

    def test_gram_and_combine_read_the_recorded_pairs_bitwise(self):
        X = np.random.default_rng(22).normal(0, 1, (10, 3))
        labels = np.array([0, 1] * 5)
        natural, _ = center_bank(build_kernel_bank(X, "uci_full"), np.triu_indices(10))
        ordered, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 1, 2)[0])
        for l in range(natural.p):
            assert ordered.gram(l).tobytes() == natural.gram(l).tobytes()
        rng = np.random.default_rng(3)
        for _ in range(3):
            w = rng.random(natural.p) * (rng.random(natural.p) < 0.6)
            w[1] = 0.25
            assert combine(ordered, w).tobytes() == combine(natural, w).tobytes()

    def test_alignment_pair_weights_follow_the_rows(self):
        X = np.random.default_rng(23).normal(0, 1, (10, 3))
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
        natural, _ = center_bank(build_kernel_bank(X, "uci_full"), np.triu_indices(10))
        ordered, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 1, 2)[0])
        M_nat, a_nat = alignment_problem_from_bank(natural, labels)
        M_ord, a_ord = alignment_problem_from_bank(ordered, labels)
        # the same sums over the rows in another order
        np.testing.assert_allclose(M_ord, M_nat, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a_ord, a_nat, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "ii, jj",
        [
            ([0, 0, 0, 1, 1, 1], [0, 1, 2, 1, 2, 2]),  # (1, 2) twice, (2, 2) missing
            ([0, 0, 0, 1, 2, 2], [0, 1, 2, 1, 1, 2]),  # (2, 1) has i > j
            ([0, 0, 0, 1, 1, 2], [0, 1, 3, 1, 2, 2]),  # index 3 of 3 rows
            ([0, 0, 0, 1, 1], [0, 1, 2, 1, 2]),  # one pair short
        ],
        ids=["duplicate", "lower-triangle", "out-of-range", "one-short"],
    )
    def test_pairs_must_list_each_pair_once(self, ii, jj):
        raw = build_kernel_bank(np.random.default_rng(0).normal(0, 1, (3, 2)), "uci_full")
        center_bank(raw, np.triu_indices(3))  # the natural pairs are accepted
        with pytest.raises(KernelError, match="each of the 6 pairs i <= j < 3 once"):
            center_bank(raw, (np.array(ii, dtype=np.int32), np.array(jj, dtype=np.int32)))


class TestBalance:
    def test_majority_subsampled_to_minority(self):
        labels = np.array([0] * 4 + [1] * 2)  # n_pos=13, n_neg=8
        kset = make_kexamples(labels, planned_bank(labels))
        bal = balance(kset)
        assert bal.n_pos == bal.n_neg == min(kset.n_pos, kset.n_neg)

    def test_already_balanced_is_identity(self):
        labels = np.array([0, 1, 2])  # 3 diagonal pairs, 3 cross-class pairs
        kset = make_kexamples(labels, planned_bank(labels))
        bal = balance(kset)
        assert len(bal) == len(kset) == 6
        np.testing.assert_array_equal(bal.t, kset.t)
        assert bal.stack.ctypes.data == kset.stack.ctypes.data

    def test_deterministic(self):
        labels = np.array([0] * 30 + [1] * 20)
        a, b = plan_rows(labels, 7, 8), plan_rows(labels, 7, 8)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]
        assert not np.array_equal(plan_rows(labels, 9, 8)[0], a[0])

    def test_membership_only_never_relabeling(self):
        labels = np.array([0] * 10 + [1] * 5)
        bank = planned_bank(labels, balance_seed=5)
        bal = balance(make_kexamples(labels, bank))
        # every surviving (pair, label) is the pair's own K-label
        for (i, j), t in zip(map(tuple, pairs_of(bal, bank)), bal.t):
            assert t == (1 if labels[i] == labels[j] else -1)

    def test_order_preserved(self):
        # balance keeps the stored order: its rows are the leading rows, and
        # the rows it leaves out are the ones balancing drops, in pair order
        labels = np.array([0] * 10 + [1] * 5)
        kset = make_kexamples(labels, planned_bank(labels, balance_seed=2))
        bal = balance(kset)
        np.testing.assert_array_equal(bal.t, kset.t[: len(bal)])
        np.testing.assert_array_equal(bal.stack, kset.stack[: len(bal)])
        assert np.all(kset.t[len(bal):] == 1)  # same-class pairs are the majority here

    def test_one_side_empty_errors(self):
        kset = make_kexamples(np.zeros(3, dtype=int), tiny_bank(3))
        with pytest.raises(ValueError, match="balance"):
            balance(kset)

    def test_natural_order_is_refused(self):
        # in pair order, the first 2 * min(n_pos, n_neg) rows are not balanced
        labels = np.array([0] * 6 + [1] * 3)
        with pytest.raises(ValueError, match="planned order"):
            balance(make_kexamples(labels, tiny_bank(9)))


class TestSampleBatch:
    def test_gather_is_exact(self):
        bank = tiny_bank(4, p=2, seed=3)
        kset = make_kexamples(np.array([0, 0, 1, 1]), bank)
        for start, size in [(0, 10), (2, 5), (7, 6), (9, 1), (3, 25)]:
            rows = [(start + i) % len(kset) for i in range(size)]
            batch = sample_batch(kset, start, size)
            np.testing.assert_array_equal(batch.z, kset.stack[rows])
            np.testing.assert_array_equal(batch.t, kset.t[rows])

    def test_long_batch_cycles_through_the_set(self):
        # a batch longer than the set cycles through it, repeating rows
        kset = make_kexamples(np.array([0, 0, 1, 1]), tiny_bank(4))
        batch = sample_batch(kset, 4, 100)
        assert batch.z.shape == (100, 2) and batch.t.shape == (100,)
        assert set(np.unique(batch.t)) <= {-1, 1}
        for i in range(100):
            np.testing.assert_array_equal(batch.z[i], kset.stack[(4 + i) % 10])

    def test_cyclic_batches_read_every_row_equally(self):
        # a fit's batches cycle through the set: over 1000 steps of 7 rows
        # every one of the 10 rows is read 700 times
        kset = make_kexamples(np.array([0, 0, 1, 1]), tiny_bank(4))
        assert len(kset) == 10
        counts = np.zeros(10, dtype=int)
        for k in range(1000):
            batch = sample_batch(kset, (3 + 7 * k) % 10, 7)
            for z in batch.z:
                counts[np.flatnonzero((kset.stack == z).all(axis=1))[0]] += 1
        np.testing.assert_array_equal(counts, np.full(10, 700))

    def test_empty_set_errors(self):
        kset = make_kexamples(np.array([0, 1]), tiny_bank(2))[:0]
        with pytest.raises(ValueError, match="empty"):
            sample_batch(kset, 0, 10)

    def test_batch_inside_the_set_is_a_view(self):
        labels = np.array([0, 0, 1, 1, 0])
        kset = make_kexamples(labels, planned_bank(labels, p=3))
        batch = sample_batch(kset, 6, 4)
        assert batch.z.ctypes.data == kset.stack[6:].ctypes.data
        np.testing.assert_array_equal(batch.t, kset.t[6:10])

    def test_wrapped_batch_is_a_float32_gather(self):
        X = np.random.default_rng(8).normal(0, 1, (6, 2))
        labels = np.array([0, 1, 1, 0, 1, 0])
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 0, 1)[0])
        kset = make_kexamples(labels, bank)
        batch = sample_batch(kset, 15, 30)  # wraps past the end of the 21 rows twice
        assert batch.z.dtype == np.float32 and not np.shares_memory(batch.z, kset.stack)
        rows = np.arange(15, 45) % len(kset)
        np.testing.assert_array_equal(batch.z, kset.stack[rows])
        np.testing.assert_array_equal(batch.t, kset.t[rows])
        assert sample_batch(kset, 0, 3).z.dtype == np.float32
        # a subset wraps within its own rows
        sub = kset[2:8]
        batch = sample_batch(sub, 4, 4)
        np.testing.assert_array_equal(batch.z, sub.stack[[4, 5, 0, 1]])
        np.testing.assert_array_equal(batch.t, sub.t[[4, 5, 0, 1]])


class TestBlockScores:
    """Each block scores its own rows: the train and validation hinges are two
    GEMVs over adjacent blocks of the store."""

    def test_train_and_validation_hinges_are_exact_over_their_blocks(self):
        X = np.random.default_rng(6).normal(0, 1, (12, 2))
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0])
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), plan_rows(labels, 3, 4)[0])
        bal = balance(make_kexamples(labels, bank))
        train, val = _split_kset(bal)
        mu = np.random.default_rng(7).random(bank.p)
        mu32 = mu.astype(np.float32)
        Z64 = bank.Z.astype(np.float64)
        ii, jj = bank.pairs
        t = np.where(labels[ii] == labels[jj], 1.0, -1.0)
        for block, rows in ((val, slice(0, len(val))), (train, slice(len(val), len(bal)))):
            got = block.scores(mu)
            assert got.dtype == np.float64
            # the GEMV runs at the store's width over exactly this block's rows
            assert got.tobytes() == (bank.Z[rows] @ mu32).astype(np.float64).tobytes()
            np.testing.assert_allclose(got, Z64[rows] @ mu32, rtol=1e-5, atol=1e-6)
            want = np.mean(np.maximum(0.0, 1.0 - t[rows] * (Z64[rows] @ mu32)))
            assert hinge_loss(mu, block) == pytest.approx(want, rel=1e-6, abs=1e-6)
        # together the two blocks are the balanced set
        whole = (len(val) * hinge_loss(mu, val) + len(train) * hinge_loss(mu, train)) / len(bal)
        assert whole == pytest.approx(hinge_loss(mu, bal), rel=1e-6, abs=1e-6)

    def test_float32_stack_scores_at_its_dtype(self):
        X = np.random.default_rng(6).normal(0, 1, (9, 2))
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), np.triu_indices(9))
        kset = make_kexamples(np.array([0, 1, 1, 0, 1, 0, 0, 1, 1]), bank)
        assert kset.stack.dtype == np.float32
        mu = np.random.default_rng(7).random(bank.p)
        want = (kset.stack @ mu.astype(np.float32)).astype(np.float64)
        got = kset.scores(mu)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(kset[3:17].scores(mu), (kset.stack[3:17] @
                                      mu.astype(np.float32)).astype(np.float64))


class TestRowsRange:
    """A set's rows are a range of its stack's rows; batches start inside it."""

    def test_row_past_the_stack_rejected(self):
        kset = KExampleSet(np.array([1, -1, 1]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            sample_batch(kset, 3, 2)

    def test_negative_row_rejected(self):
        kset = KExampleSet(np.array([1, -1, 1]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            sample_batch(kset, -1, 2)

    def test_stack_shorter_than_pairs_rejected(self):
        with pytest.raises(ValueError, match="one label per row"):
            KExampleSet(np.array([1, -1, 1, -1]), np.zeros((3, 2)))

    def test_in_range_rows_accepted(self):
        kset = KExampleSet(np.array([1, -1, 1, -1]), np.eye(4)[:, :2])
        np.testing.assert_array_equal(kset[1:3].stack, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(kset[1:3].t, [-1, 1])
        assert len(kset[4:]) == 0
        with pytest.raises(TypeError, match="contiguous"):
            kset[::2]
        with pytest.raises(TypeError, match="contiguous"):
            kset[[0, 2]]

    def test_rows_length_must_match_labels(self):
        with pytest.raises(ValueError, match="one label per row"):
            KExampleSet(np.array([1, -1]), np.zeros((4, 2)))


def test_full_pipeline_labels_match_dataset():
    ds = make_blobs(n_per_class=8, d=3, seed=5)
    bank = centered_bank_for(ds)
    kset = make_kexamples(ds.labels, bank)
    ii, jj = pairs_of(kset, bank).T
    np.testing.assert_array_equal(
        kset.t == 1, ds.labels[ii] == ds.labels[jj]
    )
