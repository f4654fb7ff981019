"""Base kernels, bank recipes, centering/standardization, the pair-major store,
and combination."""

import tracemalloc

import numpy as np
import pytest

import kweave.kernels as kernels
from kweave.kernels import (
    _STAGE_ROWS,
    DegenerateKernelError,
    KernelBank,
    KernelError,
    KernelSpec,
    bank_specs,
    build_kernel_bank,
    center_bank,
    center_standardize_apply,
    center_standardize_fit,
    combine,
    combine_cross,
    compute_cross_gram,
    compute_gram,
)

from conftest import bank_of, dense_centering


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
        cross = compute_cross_gram(spec, A, B)
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
        assert all(G.shape == (40, 40) for G in bank.grams)

    @pytest.mark.parametrize("recipe", ["uci_full", "uci_full_plus_per_feature"])
    def test_scope_shared_grams_equal_compute_gram(self, recipe):
        # one X @ X.T and one squared-distance matrix per feature scope
        # give every Gram bit for bit
        X = np.random.default_rng(21).normal(0, 1.5, (30, 4))
        bank = build_kernel_bank(X, recipe)
        grams = list(bank.grams)
        assert len(grams) == bank.p
        for spec, G in zip(bank.specs, grams):
            np.testing.assert_array_equal(G, compute_gram(spec, X), err_msg=spec.label())

    def test_scope_shared_grams_in_any_spec_order(self):
        X = np.random.default_rng(22).normal(0, 1, (12, 3))
        specs = bank_specs(3, "uci_full_plus_per_feature")
        specs = [specs[k] for k in np.random.default_rng(3).permutation(len(specs))]
        bank = kernels.RawBank(specs=specs, features=X)
        for spec, G in zip(specs, bank.grams):
            np.testing.assert_array_equal(G, compute_gram(spec, X), err_msg=spec.label())


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
            centered, dropped = center_bank(bank)
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
            center_bank(bank)

    def test_apply_on_train_rows_reproduces_centered_gram(self):
        spec = KernelSpec("gaussian", gamma=0.25)
        c, stats = center_standardize_fit(compute_gram(spec, self.X))
        cross = compute_cross_gram(spec, self.X, self.X)  # "test" rows = train rows
        np.testing.assert_allclose(center_standardize_apply(cross, stats), c, atol=1e-12)

    def test_apply_matches_feature_space_centering_for_linear(self):
        # independent oracle: center the features, then take dot products
        rng = np.random.default_rng(3)
        Xtr, Xte = rng.normal(1.0, 2.0, (12, 3)), rng.normal(1.0, 2.0, (5, 3))
        c, stats = center_standardize_fit(compute_gram(KernelSpec("linear"), Xtr))
        cross = center_standardize_apply(compute_cross_gram(KernelSpec("linear"), Xte, Xtr), stats)
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
            build_kernel_bank(self.X, "uci_full_plus_per_feature")
        )

    def test_store_shape_and_layout(self):
        n, p = self.bank.n, self.bank.p
        assert self.dropped and p == 13 * 4 - len(self.dropped)
        assert self.bank.Z.shape == (n * (n + 1) // 2, p)
        assert self.bank.Z.dtype == np.float32 and self.bank.Z.flags.c_contiguous
        assert len(self.bank.stats) == p

    def test_gram_is_dense_centering_bit_for_bit(self):
        # the store is the float32 rounding of the float64 centering, and
        # gram(l) is that rounding upcast to float64
        ii, jj = np.triu_indices(self.bank.n)
        for l, spec in enumerate(self.bank.specs):
            expected = dense_centering(compute_gram(spec, self.X)).astype(np.float32)
            G = self.bank.gram(l)
            assert G.dtype == np.float64
            np.testing.assert_array_equal(G, expected.astype(np.float64))
            np.testing.assert_array_equal(self.bank.Z[:, l], expected[ii, jj])

    def test_symmetric_scope_gives_the_forced_symmetrization_bits(self, monkeypatch):
        # every scope's X @ X.T here is exactly symmetric, so the (K + K^T)/2
        # pass is skipped; forcing it changes no bit of Z or the statistics
        checks = []

        def never_equal(a, b):
            checks.append(a.shape)
            return False

        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", never_equal)
            forced, dropped = center_bank(build_kernel_bank(self.X, "uci_full_plus_per_feature"))
        assert len(checks) == self.X.shape[1] + 1  # once per feature scope
        assert forced.specs == self.bank.specs and dropped == self.dropped
        np.testing.assert_array_equal(forced.Z, self.bank.Z)
        for a, b in zip(forced.stats, self.bank.stats):
            np.testing.assert_array_equal(a.row_means, b.row_means)
            assert (a.grand_mean, a.scale) == (b.grand_mean, b.scale)

    def test_asymmetric_scope_product_is_symmetrized(self, monkeypatch):
        # a scope whose X @ X.T is not exactly symmetric has each Gram
        # symmetrized before centering, as the dense reference does
        real = kernels.scope_products

        def skewed(specs, A, B):
            last = skew = None
            for spec, dots, sq in real(specs, A, B):
                if dots is not last:
                    last, skew = dots, dots + np.triu(np.full(dots.shape, 1e-3), 1)
                yield spec, skew, sq

        monkeypatch.setattr(kernels, "scope_products", skewed)
        bank, _ = center_bank(build_kernel_bank(self.X, "uci_full"))
        ii, jj = np.triu_indices(self.bank.n)
        for l, (spec, dots, sq) in enumerate(skewed(bank.specs, self.X, self.X)):
            raw = kernels._from_products(spec, dots, sq).copy()
            assert spec.family == "gaussian" or not np.array_equal(raw, raw.T)
            expected = dense_centering(raw).astype(np.float32)
            np.testing.assert_array_equal(bank.Z[:, l], expected[ii, jj], err_msg=spec.label())

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
            bank, dropped = center_bank(build_kernel_bank(X, "uci_full_plus_per_feature"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.p == 13 * d + 13 and not dropped
        stage = min(_STAGE_ROWS, bank.p) * bank.Z.shape[0] * bank.Z.itemsize
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
            bank, dropped = center_bank(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dropped) == 13 and bank.p == raw.p - 13
        # allocated before any drop is known
        full_store = bank.Z.shape[0] * raw.p * bank.Z.itemsize
        stage = min(_STAGE_ROWS, raw.p) * bank.Z.shape[0] * bank.Z.itemsize
        # the no-drop bound; a second (compacted) store would add 3.4 MB
        assert peak < full_store + stage + 16 * n * n * 8
        assert bank.Z.flags.c_contiguous and bank.Z.flags.owndata

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
            center_bank(raw)


class TestCombination:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.X = rng.normal(0, 1, (10, 3))
        self.bank, _ = center_bank(build_kernel_bank(self.X, "uci_full"))

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
            raw = compute_cross_gram(self.bank.specs[l], Xt, self.X)
            expected += w[l] * center_standardize_apply(raw, self.bank.stats[l])
        np.testing.assert_array_equal(combine_cross(self.bank, w, Xt, self.X), expected)

    def test_combine_cross_stack_equals_one_call_per_row(self):
        rng = np.random.default_rng(3)
        Xt = rng.normal(0, 1, (4, 3))
        W = rng.random((3, 13)) * (rng.random((3, 13)) > 0.4)
        stacked = combine_cross(self.bank, W, Xt, self.X)
        assert stacked.shape == (3, 4, 10)
        for w, out in zip(W, stacked):
            np.testing.assert_array_equal(out, combine_cross(self.bank, w, Xt, self.X))

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
            combine_cross(self.bank, np.array(w), np.ones((2, 3)), self.X)

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
            KernelBank(bank.specs, bank.Z, 4, bank.stats, bank.order)
        with pytest.raises(KernelError, match="inconsistent"):
            KernelBank(bank.specs, bank.Z[:, :1], 3, bank.stats, bank.order)
