"""Base kernels, bank recipes, centering/standardization, the pair-major store,
and combination."""

import tracemalloc

import numpy as np
import pytest

import kweave.kernels as kernels
from kweave.kernels import (
    DegenerateKernelError,
    KernelBank,
    KernelError,
    KernelSpec,
    _from_products,
    bank_specs,
    build_kernel_bank,
    center_bank,
    center_standardize_apply,
    combine,
    combine_cross,
    scope_products,
)

from kweave.kspace import plan_rows

from conftest import bank_of, center_standardize_fit, compute_gram, cross_gram


def shared_grams(specs, X):
    """Every spec's raw Gram on X, evaluated as center_bank does: one pass of
    scope_products, its products shared by each scope's kernels."""
    return [_from_products(*prods) for prods in scope_products(specs, X, X)]


class TestKernelEvaluation:
    def test_gaussian_hand_value(self):
        X = np.array([[0.0], [2.0]])
        g = compute_gram(KernelSpec("gaussian", gamma=0.25), X)
        np.testing.assert_allclose(g[0, 1], np.exp(-1.0), rtol=1e-15)

    def test_gaussian_diagonal_exactly_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 50, (20, 4))  # large scale stresses the sq-dist path
        g = compute_gram(KernelSpec("gaussian", gamma=2.0**-4), X)
        np.testing.assert_array_equal(np.diag(g), np.ones(20))

    def test_polynomial_hand_value(self):
        X = np.array([[1.0, 2.0], [0.0, 1.0]])
        g = compute_gram(KernelSpec("polynomial", degree=2, offset=1.0), X)
        # (x . x' + 1)^2 with x.x' = 2 -> 9
        assert g[0, 1] == 9.0

    def test_linear_is_dot_product(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (6, 3))
        g = compute_gram(KernelSpec("linear"), X)
        np.testing.assert_allclose(g, X @ X.T, atol=1e-14)

    def test_per_feature_scoping(self):
        X = np.array([[1.0, 5.0], [2.0, -1.0]])
        g = compute_gram(KernelSpec("linear", feature_index=1), X)
        np.testing.assert_allclose(g, np.outer(X[:, 1], X[:, 1]))

    def test_feature_index_out_of_range(self):
        with pytest.raises(KernelError, match="feature_index"):
            compute_gram(KernelSpec("linear", feature_index=3), np.ones((4, 2)))

    def test_cross_gram_matches_gram_blocks(self):
        rng = np.random.default_rng(2)
        A, B = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (6, 3))
        spec = KernelSpec("gaussian", gamma=0.1)
        cross = cross_gram(spec, A, B)
        joint = compute_gram(spec, np.vstack([B, A]))
        np.testing.assert_allclose(cross, joint[6:, :6], atol=1e-12)


class TestBankRecipes:
    def test_uci_full_is_13_kernels(self):
        specs = bank_specs(5, "uci_full")
        assert len(specs) == 13
        gammas = [s.gamma for s in specs if s.family == "gaussian"]
        np.testing.assert_allclose(gammas, [2.0**k for k in range(-10, -1)])
        assert [s.degree for s in specs if s.family == "polynomial"] == [2, 3, 4]
        assert sum(s.family == "linear" for s in specs) == 1
        assert all(s.feature_index is None for s in specs)

    def test_per_feature_recipe_size(self):
        specs = bank_specs(4, "uci_full_plus_per_feature")
        assert len(specs) == 13 * 4 + 13
        assert sum(s.feature_index == 2 for s in specs) == 13

    def test_unknown_recipe(self):
        with pytest.raises(KernelError):
            bank_specs(3, "everything")

    def test_build_bank_shares_ordering(self, toy_dataset):
        bank = build_kernel_bank(toy_dataset.instances, "uci_full")
        assert bank.p == 13 and bank.n == toy_dataset.n
        assert all(G.shape == (40, 40) for G in shared_grams(bank.specs, bank.features))

    @pytest.mark.parametrize("recipe", ["uci_full", "uci_full_plus_per_feature"])
    def test_scope_shared_grams_equal_compute_gram(self, recipe):
        # one X @ X.T and one squared-distance matrix per feature scope
        # give every Gram bit for bit
        X = np.random.default_rng(21).normal(0, 1.5, (30, 4))
        bank = build_kernel_bank(X, recipe)
        grams = shared_grams(bank.specs, bank.features)
        assert len(grams) == bank.p
        for spec, G in zip(bank.specs, grams):
            np.testing.assert_array_equal(G, compute_gram(spec, X), err_msg=spec.label())

    def test_scope_shared_grams_in_any_spec_order(self):
        X = np.random.default_rng(22).normal(0, 1, (12, 3))
        specs = bank_specs(3, "uci_full_plus_per_feature")
        specs = [specs[k] for k in np.random.default_rng(3).permutation(len(specs))]
        for spec, G in zip(specs, shared_grams(specs, X)):
            np.testing.assert_array_equal(G, compute_gram(spec, X), err_msg=spec.label())

    def test_polynomial_is_a_running_product(self):
        # bases of both signs, zeros included: each entry is ((b b) b) ...,
        # within 4 ULP of libm's pow, with pow's sign
        x = np.concatenate([np.random.default_rng(8).normal(0, 2, 40), [0.0, 1.0, -1.0]])
        X = x[:, None]
        b = np.outer(x, x) + 1.0
        assert (b < 0).any() and (b > 0).any() and (b == 0).any()
        for degree in (1, 2, 3, 4, 5):
            G = compute_gram(KernelSpec("polynomial", degree=degree, offset=1.0), X)
            ref = np.power(b, degree)
            if degree <= 2:
                np.testing.assert_array_equal(G, ref)
            assert np.all(np.abs(G - ref) <= 4 * np.spacing(np.abs(ref))), degree
            np.testing.assert_array_equal(np.sign(G), np.sign(ref))
            if degree % 2:
                np.testing.assert_array_equal(np.sign(G), np.sign(b))

    def test_overflowing_polynomial_raises(self):
        # (x.x' + 1)^3 leaves the float range at |x| ~ 1e103, with either sign
        X = np.array([[2e103], [-3e103], [1.0]])
        with np.errstate(over="ignore"), pytest.raises(KernelError, match="non-finite"):
            compute_gram(KernelSpec("polynomial", degree=3, offset=1.0), X)


class TestCentering:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.X = rng.normal(0, 2, (15, 4))

    def test_rows_sum_to_zero_and_trace_normalized(self):
        g = compute_gram(KernelSpec("gaussian", gamma=0.5), self.X)
        c, _ = center_standardize_fit(g)
        np.testing.assert_allclose(c.sum(axis=0), 0.0, atol=1e-9)
        assert abs(np.trace(c) / c.shape[0] - 1.0) < 1e-12

    def test_psd_preserved(self):
        g = compute_gram(KernelSpec("polynomial", degree=3, offset=1.0), self.X)
        c, _ = center_standardize_fit(g)
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() >= -1e-8 * max(1.0, eigs.max())

    def test_positive_scaling_invariance(self):
        g = compute_gram(KernelSpec("linear"), self.X)
        c1, _ = center_standardize_fit(g)
        for factor in (1e-6, 3.0, 1e6):
            c2, _ = center_standardize_fit(g * factor)
            np.testing.assert_allclose(c2, c1, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("skew", [0.0, 1e-3])
    def test_centered_gram_is_exactly_symmetric(self, skew):
        # r_i + r_j commutes, so C == C^T bit for bit, also for a raw Gram
        # that is not symmetric (skew > 0) and is symmetrized first
        g = compute_gram(KernelSpec("polynomial", degree=3, offset=1.0), self.X)
        g = g + np.triu(np.full(g.shape, skew), 1)
        assert np.array_equal(g, g.T) == (skew == 0.0)
        c, _ = center_standardize_fit(g)
        np.testing.assert_array_equal(c, c.T)

    def test_degenerate_kernel_raises(self):
        with pytest.raises(DegenerateKernelError):
            center_standardize_fit(np.ones((6, 6)))  # constant feature map

    def test_center_bank_drops_degenerates(self, caplog):
        X = np.column_stack([np.arange(8.0), np.zeros(8)])  # column 1 constant
        bank = build_kernel_bank(X, "uci_full_plus_per_feature")
        with caplog.at_level("WARNING"):
            centered, dropped = center_bank(bank, np.triu_indices(bank.n))
        assert dropped, "constant column must produce dropped kernels"
        assert centered.p == bank.p - len(dropped)
        kept = [i for i in range(bank.p) if i not in dropped]
        assert centered.specs == [bank.specs[i] for i in kept]
        assert len(centered.stats) == len(kept)
        assert any("dropping kernel" in r.message for r in caplog.records)
        # the gaussian on the constant feature is all-ones -> degenerate
        assert all(bank.specs[i].feature_index == 1 for i in dropped)

    def test_all_degenerate_is_fatal(self):
        X = np.zeros((5, 1))
        bank = build_kernel_bank(X, "uci_full")
        with pytest.raises(DegenerateKernelError):
            center_bank(bank, np.triu_indices(bank.n))

    def test_apply_on_train_rows_reproduces_centered_gram(self):
        spec = KernelSpec("gaussian", gamma=0.25)
        c, stats = center_standardize_fit(compute_gram(spec, self.X))
        cross = cross_gram(spec, self.X, self.X)  # "test" rows = train rows
        np.testing.assert_allclose(center_standardize_apply(cross, stats), c, atol=1e-12)

    def test_apply_matches_feature_space_centering_for_linear(self):
        # independent oracle: center the features, then take dot products
        rng = np.random.default_rng(3)
        Xtr, Xte = rng.normal(1.0, 2.0, (12, 3)), rng.normal(1.0, 2.0, (5, 3))
        c, stats = center_standardize_fit(compute_gram(KernelSpec("linear"), Xtr))
        cross = center_standardize_apply(cross_gram(KernelSpec("linear"), Xte, Xtr), stats)
        Ztr = Xtr - Xtr.mean(axis=0)
        scale = np.trace(Ztr @ Ztr.T) / Xtr.shape[0]
        expected = (Xte - Xtr.mean(axis=0)) @ Ztr.T / scale
        np.testing.assert_allclose(cross, expected, atol=1e-10)
        np.testing.assert_allclose(c, Ztr @ Ztr.T / scale, atol=1e-10)


class TestPairMajorStore:
    """The centered bank keeps one (n(n+1)/2, p) matrix and nothing else."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        # column 2 is constant, so its per-feature kernels are dropped
        self.X = np.column_stack([rng.normal(0, 1, (11, 2)), np.ones(11)])
        self.bank, self.dropped = center_bank(
            build_kernel_bank(self.X, "uci_full_plus_per_feature"), np.triu_indices(11)
        )

    def test_store_shape_and_layout(self):
        n, p = self.bank.n, self.bank.p
        assert self.dropped and p == 13 * 4 - len(self.dropped)
        assert self.bank.Z.shape == (n * (n + 1) // 2, p)
        assert self.bank.Z.dtype == np.float32 and self.bank.Z.flags.c_contiguous
        assert len(self.bank.stats) == p

    def test_bank_keeps_the_raw_banks_features(self):
        # the train rows the kernels were evaluated on, unchanged and uncopied
        raw = build_kernel_bank(self.X, "uci_full_plus_per_feature")
        bank, _ = center_bank(raw, np.triu_indices(raw.n))
        assert bank.features is raw.features and bank.n == raw.n == 11
        np.testing.assert_array_equal(bank.features, self.X)

    def test_gram_is_dense_centering_bit_for_bit(self):
        # the store is the float32 rounding of the float64 centering, and
        # gram(l) is that rounding upcast to float64
        ii, jj = np.triu_indices(self.bank.n)
        for l, spec in enumerate(self.bank.specs):
            expected = center_standardize_fit(compute_gram(spec, self.X))[0].astype(np.float32)
            G = self.bank.gram(l)
            assert G.dtype == np.float64
            np.testing.assert_array_equal(G, expected.astype(np.float64))
            np.testing.assert_array_equal(self.bank.Z[:, l], expected[ii, jj])

    @pytest.mark.parametrize("recipe", ["uci_full", "uci_full_plus_per_feature"])
    @pytest.mark.parametrize("shape", [(11, 3), (57, 9), (130, 13), (300, 8)])
    def test_every_scope_product_is_exactly_symmetric(self, monkeypatch, recipe, shape):
        # center_bank centers each raw Gram as it comes, with no symmetrizing
        # pass: its scope's X @ X.T (one buffer, a symmetric rank-k update, or
        # a single-column view's outer product) and squared distances must be
        # exactly symmetric, so every kernel made from them is. At 300 rows a
        # general product (a copied right operand) is not, with OpenBLAS.
        real, seen = kernels.scope_products, []

        def spy(specs, A, B):
            for spec, dots, sq in real(specs, A, B):
                seen.append((spec.feature_index, dots, sq))
                yield spec, dots, sq

        monkeypatch.setattr(kernels, "scope_products", spy)
        X = np.random.default_rng(shape[0]).normal(0, 1.5, shape)
        raw = build_kernel_bank(X, recipe)
        center_bank(raw, np.triu_indices(raw.n))
        assert len(seen) == raw.p
        assert {f for f, _, _ in seen} == {s.feature_index for s in raw.specs}
        for _, dots, sq in seen:  # each scope opens with Gaussians, so sq is made
            for product in (dots, sq):
                np.testing.assert_array_equal(product, product.T)

    def test_stats_are_the_raw_gram_statistics(self):
        for spec, stats in zip(self.bank.specs, self.bank.stats):
            _, expected = center_standardize_fit(compute_gram(spec, self.X))
            np.testing.assert_array_equal(stats.row_means, expected.row_means)
            assert (stats.grand_mean, stats.scale) == (expected.grand_mean, expected.scale)

    def test_combine_is_dense_sequential_sum_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.random(self.bank.p) * (rng.random(self.bank.p) < 0.6)
            w[0] = 0.5  # at least one positive weight
            expected = np.zeros((self.bank.n, self.bank.n))
            for l, wl in enumerate(w):
                if wl > 0:
                    expected += wl * self.bank.gram(l)
            np.testing.assert_array_equal(combine(self.bank, w), expected)


class TestStreamedCentering:
    """The raw bank is lazy: center_bank evaluates one Gram at a time."""

    def test_peak_memory_is_store_plus_one_gram(self):
        n, d = 80, 10
        X = np.random.default_rng(9).normal(0, 1, (n, d))
        tracemalloc.start()
        try:
            bank, dropped = center_bank(build_kernel_bank(X, "uci_full_plus_per_feature"),
                                        np.triu_indices(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.p == 13 * d + 13 and not dropped
        stage = max(kernels._STAGE_BYTES, bank.Z.shape[0] * bank.Z.itemsize)
        # Evaluating and centering one Gram makes about a dozen (n, n)
        # temporaries. Holding every raw Gram (p * n^2 * 8 = 7.3 MB here, on
        # top of Z's 3.7 MB) is far over this bound.
        assert peak < bank.Z.nbytes + stage + 16 * n * n * 8

    def test_peak_memory_with_dropped_kernels_is_one_store(self):
        # one constant column: its 13 per-feature kernels are dropped, and
        # the store is compacted in place rather than copied
        n, d = 80, 10
        X = np.random.default_rng(9).normal(0, 1, (n, d))
        X[:, 4] = 1.0
        raw = build_kernel_bank(X, "uci_full_plus_per_feature")
        tracemalloc.start()
        try:
            bank, dropped = center_bank(raw, np.triu_indices(raw.n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dropped) == 13 and bank.p == raw.p - 13
        # allocated before any drop is known
        full_store = bank.Z.shape[0] * raw.p * bank.Z.itemsize
        stage = max(kernels._STAGE_BYTES, bank.Z.shape[0] * bank.Z.itemsize)
        # the no-drop bound; a second (compacted) store would add 3.4 MB
        assert peak < full_store + stage + 16 * n * n * 8
        assert bank.Z.flags.c_contiguous and bank.Z.flags.owndata

    def test_planned_psort_shape_peaks_below_1_45_stores(self):
        # the paper's Psort- set, 1,444 rows, holds out 20%: 668,046 pairs of
        # 1,156 train rows and 65 kernels make a 173.9 MB Z. The plan's int32
        # pairs and center_bank's flat offsets, one row buffer and one-row
        # staging block ride on it with a dozen (n, n) temporaries: 1.42 Z.
        # int64 pairs, planned as an order and gathered again, read 1.48.
        n = 1156
        rng = np.random.default_rng(5)
        X, labels = rng.normal(0, 1, (n, 4)), rng.integers(0, 2, n)
        raw = build_kernel_bank(X, "uci_full_plus_per_feature")
        tracemalloc.start()
        try:
            bank, dropped = center_bank(raw, plan_rows(labels, 1, 2)[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not dropped and bank.Z.shape == (n * (n + 1) // 2, 65)
        assert peak < 1.45 * bank.Z.nbytes

    @pytest.mark.parametrize("budget", [1, 5 * 4 * 66])
    def test_store_is_the_same_at_any_staging_budget(self, monkeypatch, budget):
        # staging only moves values: 11 rows make 66 pairs, so the default
        # budget stages all 39 kernels in one block, budget 1 one kernel per
        # block, and 5 * 4 * 66 bytes five, the last block partial
        X = np.random.default_rng(4).normal(0, 1, (11, 2))
        X[:, 1] = 3.0  # its kernels are dropped, so the store is compacted too
        raw = build_kernel_bank(X, "uci_full_plus_per_feature")
        default, dropped = center_bank(raw, np.triu_indices(raw.n))
        monkeypatch.setattr(kernels, "_STAGE_BYTES", budget)
        staged, staged_dropped = center_bank(raw, np.triu_indices(raw.n))
        assert len(dropped) == 13 and staged_dropped == dropped and staged.p == 26
        assert staged.Z.tobytes() == default.Z.tobytes()

    @pytest.mark.parametrize("elems", [1, 7, 100, 1 << 16])
    def test_compaction_is_the_leading_columns(self, monkeypatch, elems):
        rng = np.random.default_rng(elems)
        Z = rng.normal(0, 1, (53, 11))
        expected = Z[:, :4].copy()
        monkeypatch.setattr(kernels, "_COMPACT_ELEMS", elems)
        kernels._compact_columns(Z, 4)
        assert Z.shape == (53, 4) and Z.flags.c_contiguous and Z.flags.owndata
        np.testing.assert_array_equal(Z, expected)

    def test_non_finite_features_raise_at_build(self):
        X = np.random.default_rng(2).normal(0, 1, (6, 3))
        X[4, 1] = np.nan
        with pytest.raises(KernelError, match="non-finite feature"):
            build_kernel_bank(X, "uci_full")

    def test_overflowing_kernel_raises_at_centering(self):
        # (x.x' + 1)^4 overflows at |x| ~ 1e50; degrees 2 and 3 stay finite
        X = np.random.default_rng(3).normal(0, 1e50, (6, 3))
        raw = build_kernel_bank(X, "uci_full")  # evaluates nothing yet
        with np.errstate(over="ignore"), pytest.raises(
            KernelError, match=r"poly\(degree=4.*non-finite"
        ):
            center_bank(raw, np.triu_indices(raw.n))


class TestCombination:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.X = rng.normal(0, 1, (10, 3))
        self.bank, _ = center_bank(build_kernel_bank(self.X, "uci_full"), np.triu_indices(10))

    def test_weighted_sum_exact(self):
        w = np.zeros(13)
        w[0], w[4] = 0.5, 2.0
        out = combine(self.bank, w)
        expected = 0.5 * self.bank.gram(0) + 2.0 * self.bank.gram(4)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_uniform_combination_of_identical_grams_is_identity(self):
        g = self.bank.gram(0)
        out = combine(bank_of([g, g, g, g]), np.full(4, 0.25))
        np.testing.assert_allclose(out, g, atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(KernelError, match="negative"):
            combine(self.bank, -np.ones(13))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(KernelError, match="zero"):
            combine(self.bank, np.zeros(13))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.ones(13)
        w[3] = bad
        with pytest.raises(KernelError, match="non-finite"):
            combine(self.bank, w)

    def test_length_mismatch_rejected(self):
        with pytest.raises(KernelError):
            combine(self.bank, np.ones(5))

    def test_combine_cross(self):
        Xt = np.random.default_rng(5).normal(0, 1, (4, 3))
        w = np.zeros(13)
        w[0], w[4], w[12] = 0.5, 2.0, 1.25
        expected = np.zeros((4, 10))
        for l in np.flatnonzero(w):  # per-kernel reference blocks, summed in l order
            raw = cross_gram(self.bank.specs[l], Xt, self.X)
            expected += w[l] * center_standardize_apply(raw, self.bank.stats[l])
        np.testing.assert_array_equal(combine_cross(self.bank, w, Xt), expected)

    def test_combine_cross_stack_equals_one_call_per_row(self):
        rng = np.random.default_rng(3)
        Xt = rng.normal(0, 1, (4, 3))
        W = rng.random((3, 13)) * (rng.random((3, 13)) > 0.4)
        stacked = combine_cross(self.bank, W, Xt)
        assert stacked.shape == (3, 4, 10)
        for w, out in zip(W, stacked):
            np.testing.assert_array_equal(out, combine_cross(self.bank, w, Xt))

    @pytest.mark.parametrize(
        "w, match",
        [
            ([1.0, np.nan] + [1.0] * 11, "non-finite"),
            ([1.0, -0.5] + [1.0] * 11, "negative"),
            ([0.0] * 13, "all-zero"),
            ([1.0] * 3, "expected 13 weights"),
        ],
    )
    def test_combine_cross_weight_checks(self, monkeypatch, w, match):
        def no_block(*args):
            raise AssertionError("a cross block was evaluated")

        # weights are checked before any block is evaluated
        monkeypatch.setattr(kernels, "compute_cross_gram", no_block)
        with pytest.raises(KernelError, match=match):
            combine_cross(self.bank, np.array(w), np.ones((2, 3)))

    def test_combination_stays_psd(self):
        rng = np.random.default_rng(0)
        w = rng.random(13)
        out = combine(self.bank, w)
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= -1e-8 * max(1.0, eigs.max())


class TestGramValidation:
    def test_spec_validation(self):
        with pytest.raises(KernelError):
            KernelSpec("gaussian")  # gamma required
        with pytest.raises(KernelError):
            KernelSpec("polynomial", degree=0, offset=1.0)
        with pytest.raises(KernelError):
            KernelSpec("sigmoid")

    def test_bank_dimension_mismatch(self):
        bank = bank_of([np.eye(3), np.eye(3)])
        with pytest.raises(KernelError, match="inconsistent"):
            KernelBank(bank.specs, np.empty((4, 0)), bank.Z, bank.stats, bank.pairs)
        with pytest.raises(KernelError, match="inconsistent"):
            KernelBank(bank.specs, bank.features, bank.Z[:, :1], bank.stats, bank.pairs)
