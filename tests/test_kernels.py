"""Base kernels, bank recipes, centering/standardization, the pair-major store,
combination, and bank files."""

import json
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
    save_bank,
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
        bank = kernels.RawBank(specs=specs, features=X, meta={})
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
        assert centered.meta["dropped_kernels"] == dropped
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
        assert self.bank.Z.dtype == np.float64 and self.bank.Z.flags.c_contiguous
        assert len(self.bank.stats) == p

    def test_gram_is_dense_centering_bit_for_bit(self):
        ii, jj = np.triu_indices(self.bank.n)
        for l, spec in enumerate(self.bank.specs):
            expected = dense_centering(compute_gram(spec, self.X))
            G = self.bank.gram(l)
            np.testing.assert_array_equal(G, expected)
            np.testing.assert_array_equal(self.bank.Z[:, l], expected[ii, jj])

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
        stage = min(_STAGE_ROWS, bank.p) * bank.Z.shape[0] * 8
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
        full_store = bank.Z.shape[0] * raw.p * 8  # allocated before any drop is known
        stage = min(_STAGE_ROWS, raw.p) * bank.Z.shape[0] * 8
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
        X = rng.normal(0, 1, (10, 3))
        self.bank, _ = center_bank(build_kernel_bank(X, "uci_full"))

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
        crosses = [np.full((2, 10), float(i)) for i in range(3)]
        out = combine_cross(crosses, np.array([1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, np.full((2, 10), 1.0 * 0 + 2.0 * 2))

    def test_combine_cross_generator_equals_list(self):
        rng = np.random.default_rng(3)
        crosses = [rng.normal(0, 1, (4, 10)) for _ in range(6)]
        w = np.array([0.3, 0.0, 1.7, 0.25, 0.0, 2.0])
        from_list = combine_cross(crosses, w)
        np.testing.assert_array_equal(combine_cross((c for c in crosses), w), from_list)
        np.testing.assert_array_equal(combine_cross(iter(crosses), w), from_list)

    @pytest.mark.parametrize("count", [2, 4])
    def test_combine_cross_count_mismatch_rejected(self, count):
        crosses = (np.ones((2, 10)) for _ in range(count))
        with pytest.raises(KernelError, match="cross blocks for 3 weights"):
            combine_cross(crosses, np.ones(3))

    def test_combine_cross_shape_mismatch_rejected(self):
        # a (1, n) block would otherwise broadcast into the (2, n) sum
        crosses = [np.ones((2, 10)), np.ones((1, 10)), np.ones((2, 10))]
        with pytest.raises(KernelError, match=r"block 1 has shape \(1, 10\)"):
            combine_cross(iter(crosses), np.ones(3))

    @pytest.mark.parametrize(
        "w, match",
        [
            ([1.0, np.nan, 1.0], "non-finite"),
            ([1.0, -0.5, 1.0], "negative"),
            ([0.0, 0.0, 0.0], "all-zero"),
        ],
    )
    def test_combine_cross_weight_checks(self, w, match):
        produced = []

        def blocks():
            for i in range(3):
                produced.append(i)
                yield np.ones((2, 10))

        with pytest.raises(KernelError, match=match):
            combine_cross(blocks(), np.array(w))
        assert produced == []  # weights are checked before any block is evaluated

    def test_combination_stays_psd(self):
        rng = np.random.default_rng(0)
        w = rng.random(13)
        out = combine(self.bank, w)
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() >= -1e-8 * max(1.0, eigs.max())


class TestBankIO:
    """`kweave kernels build` files: meta.json plus one dense Gram per kernel."""

    def test_binary_round_trip(self, tmp_path, toy_dataset):
        bank, _ = center_bank(build_kernel_bank(toy_dataset.instances, "uci_full"))
        save_bank(bank, tmp_path / "bank")
        meta = json.loads((tmp_path / "bank" / "meta.json").read_text())
        assert (meta["n"], meta["p"], meta["text"]) == (bank.n, bank.p, False)
        assert meta["state"] == "centered_standardized"
        assert [KernelSpec(**s) for s in meta["specs"]] == bank.specs
        for l, stats in enumerate(meta["center_stats"]):
            assert stats["row_means"] == bank.stats[l].row_means.tolist()
            V = np.fromfile(tmp_path / "bank" / f"k{l}.f64", dtype="<f8")
            np.testing.assert_array_equal(V.reshape(bank.n, bank.n), bank.gram(l))

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        bank, _ = center_bank(build_kernel_bank(rng.normal(0, 1, (6, 2)), "uci_full"))
        save_bank(bank, tmp_path / "bank", text=True)
        for l in range(bank.p):
            V = np.loadtxt(tmp_path / "bank" / f"k{l}.tsv", delimiter="\t")
            np.testing.assert_array_equal(V, bank.gram(l))


class TestGramValidation:
    def test_spec_validation(self):
        with pytest.raises(KernelError):
            KernelSpec("gaussian")  # gamma required
        with pytest.raises(KernelError):
            KernelSpec("polynomial", degree=0, offset=1.0)
        with pytest.raises(KernelError):
            KernelSpec("sigmoid")

    def test_spec_round_trip(self):
        spec = KernelSpec("polynomial", degree=3, offset=1.0, feature_index=2)
        assert KernelSpec(**spec.to_dict()) == spec

    def test_bank_dimension_mismatch(self):
        bank = bank_of([np.eye(3), np.eye(3)])
        with pytest.raises(KernelError, match="inconsistent"):
            KernelBank(bank.specs, bank.Z, 4, bank.stats)
        with pytest.raises(KernelError, match="inconsistent"):
            KernelBank(bank.specs, bank.Z[:, :1], 3, bank.stats)
