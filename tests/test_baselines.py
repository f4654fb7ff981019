"""Alignment maximization vs a dense spherical-grid oracle, plus the uniform
and best-single-kernel baselines."""

import logging
import tracemalloc

import numpy as np
import pytest

import kweave.baselines as baselines
from kweave.baselines import (
    alignment_problem_from_bank,
    best_kernel,
    maximize_alignment,
    target_align,
    uniform_weights,
)
from kweave.data import kfold_plan
from kweave.kernels import build_kernel_bank
from kweave.svm import select_C

from conftest import (
    alignment_grid_max,
    alignment_value,
    bank_of,
    cap_fits,
    centered_bank_for,
    make_blobs,
    overlapping_gram,
)


def random_problem(p: int, seed: int):
    """Well-conditioned (M, a) with at least one profitable coordinate."""
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 1.0, (p + 2, p))
    M = A.T @ A + 0.5 * np.eye(p)
    a = rng.normal(0.0, 1.0, p)
    a[int(rng.integers(p))] = float(np.abs(a).max()) + 0.5
    return M, a


# the data of tests/test_parity.py; its per-feature bank has p = 65
PARITY_BLOBS = make_blobs(n_per_class=20, d=4, gap=1.5, seed=3)


class TestGridOracle:
    # the oracle itself is checked against closed-form maxima before it is
    # trusted to judge the alignment solver

    def test_interior_maximum(self):
        # M = I with a >= 0: sphere max is ||a|| at a / ||a||
        val, mu = alignment_grid_max(np.eye(2), np.array([3.0, 1.0]))
        assert abs(val - np.sqrt(10.0)) < 1e-3
        np.testing.assert_allclose(mu, np.array([3.0, 1.0]) / np.sqrt(10.0), atol=0.02)

    def test_boundary_maximum(self):
        # a[1] < 0 pins the maximizer to the first axis, an exact grid point
        val, mu = alignment_grid_max(np.eye(2), np.array([3.0, -1.0]))
        assert val == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(mu, [1.0, 0.0], atol=1e-12)

    def test_anisotropic_closed_form(self):
        # when M^{-1} a is feasible the max equals sqrt(a' M^{-1} a)
        val, _ = alignment_grid_max(np.diag([4.0, 1.0]), np.array([2.0, 2.0]))
        assert abs(val - np.sqrt(5.0)) < 1e-3

    def test_three_dim_interior(self):
        val, mu = alignment_grid_max(np.eye(3), np.array([1.0, 2.0, 2.0]))
        assert abs(val - 3.0) < 1e-3
        np.testing.assert_allclose(mu, np.array([1.0, 2.0, 2.0]) / 3.0, atol=0.02)

    def test_one_dim(self):
        val, mu = alignment_grid_max(np.array([[4.0]]), np.array([3.0]))
        assert val == pytest.approx(1.5)
        np.testing.assert_array_equal(mu, [1.0])


class TestProblemFromBank:
    def test_matches_explicit_frobenius_sums(self):
        rng = np.random.default_rng(3)
        n, p = 5, 3
        grams = [(lambda A: A @ A.T)(rng.normal(0.0, 1.0, (n, n))) for _ in range(p)]
        bank = bank_of(grams)
        y = np.array([0, 1, 0, 1, 1])
        M, a = alignment_problem_from_bank(bank, y)
        T = np.where(y[:, None] == y[None, :], 1.0, -1.0)
        for k in range(p):
            assert a[k] == pytest.approx(np.sum(grams[k] * T))
            for l in range(p):
                assert M[k, l] == pytest.approx(np.sum(grams[k] * grams[l]))

    @pytest.mark.parametrize("block_elems", [1, 500, 1 << 17])
    def test_blocked_build_matches_float64_reference(self, monkeypatch, block_elems):
        # the store is float32; (M, a) must be the float64 products of its
        # upcast values, however the rows are blocked
        data = make_blobs(n_per_class=9, d=3, gap=1.5, seed=4)
        bank = centered_bank_for(data, "uci_full_plus_per_feature")
        assert bank.Z.dtype == np.float32
        monkeypatch.setattr(baselines, "_ALIGN_BLOCK_ELEMS", block_elems)
        got_M, got_a = alignment_problem_from_bank(bank, data.labels)
        Z = bank.Z.astype(np.float64)
        ii, jj = np.triu_indices(bank.n)
        diag = ii == jj
        t = np.where(data.labels[ii] == data.labels[jj], 1.0, -1.0)
        w = np.where(diag, 1.0, 2.0)
        M = 2.0 * (Z.T @ Z) - Z[diag].T @ Z[diag]
        a = Z.T @ (w * t)
        assert np.abs(got_M - M).max() <= 1e-12 * np.abs(M).max()
        assert np.abs(got_a - a).max() <= 1e-12 * np.abs(a).max()
        # every term of M is a product B^T B, so no symmetrizing is needed
        assert np.array_equal(got_M, got_M.T)

    def test_blocked_build_holds_no_float64_copy_of_the_store(self):
        data = make_blobs(n_per_class=40, d=10, seed=9)
        bank = centered_bank_for(data, "uci_full_plus_per_feature")
        tracemalloc.start()
        try:
            alignment_problem_from_bank(bank, data.labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.n == 80 and bank.p == 143
        # one float64 upcast of Z would be Z.size * 8 bytes (3.7 MB here)
        assert peak < bank.Z.size * 8 / 2

    def test_label_length_checked(self):
        bank = bank_of([np.eye(4)])
        with pytest.raises(ValueError, match="labels"):
            alignment_problem_from_bank(bank, np.zeros(3, dtype=int))


class TestMaximizeAlignment:
    def test_hand_cases(self):
        for M, a, expect in [
            (np.eye(2), np.array([3.0, 1.0]), np.sqrt(10.0)),
            (np.eye(2), np.array([3.0, -1.0]), 3.0),
            (np.eye(3), np.array([1.0, 2.0, 2.0]), 3.0),
        ]:
            mu = maximize_alignment(M, a)
            assert mu is not None
            assert abs(alignment_value(M, a, mu) - expect) < 1e-3

    def test_boundary_solution(self):
        mu = maximize_alignment(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(mu, [1.0, 0.0], atol=2e-3)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_grid_oracle(self, seed):
        p = 2 + seed % 2
        M, a = random_problem(p, seed)
        grid_val, _ = alignment_grid_max(M, a)
        assert grid_val > 0.0
        mu = maximize_alignment(M, a)
        assert mu is not None
        obj = alignment_value(M, a, mu)
        assert abs(obj - grid_val) <= 1e-3
        # the QP is exact, so no grid point may beat it
        assert obj >= grid_val - 1e-12
        assert np.all(mu >= 0.0)
        assert abs(np.linalg.norm(mu) - 1.0) < 1e-9

    @pytest.mark.parametrize("case", [*range(12), "blobs_p65"])
    def test_kkt(self, case):
        if case == "blobs_p65":
            bank = centered_bank_for(PARITY_BLOBS, "uci_full_plus_per_feature")
            assert bank.p == 65
            M, a = alignment_problem_from_bank(bank, PARITY_BLOBS.labels)
        else:
            M, a = random_problem(2 + case % 2, case)
        # QP min_{v >= 0} v'Mv - 2v'a: its minimizer on mu's ray is v = c mu
        # with c = mu'a / mu'M mu; KKT at v is v >= 0, a - Mv <= 0, and
        # a - Mv = 0 wherever v > 0
        mu = maximize_alignment(M, a)
        v = mu * (float(mu @ a) / float(mu @ M @ mu))
        resid = a - M @ v
        tol = 1e-8 * np.abs(a).max()
        assert np.all(v >= 0.0)
        assert resid.max() <= tol
        assert np.abs(resid[v > 0.0]).max() <= tol

    def test_indefinite_problem_raises(self):
        # with M = -I the QP is unbounded below, so no point satisfies KKT
        with pytest.raises(RuntimeError, match="KKT"):
            maximize_alignment(-np.eye(2), np.ones(2))

    def test_no_positive_direction_returns_none(self):
        assert maximize_alignment(np.eye(2), np.array([-3.0, -1.0])) is None


def antitarget_bank(y):
    """Bank whose every kernel anti-correlates with the label structure."""
    T = np.where(np.asarray(y)[:, None] == np.asarray(y)[None, :], 1.0, -1.0)
    return bank_of([-T, -2.0 * T])


class TestTargetAlign:
    def test_unit_norm_nonnegative(self):
        data = make_blobs(n_per_class=12, d=3, gap=3.0, seed=0)
        bank = centered_bank_for(data)
        mu = target_align(bank, data.labels)
        assert mu.shape == (bank.p,)
        assert np.all(mu >= 0.0)
        assert np.linalg.norm(mu) == pytest.approx(1.0, abs=1e-9)

    def test_single_kernel_gives_unit_weight(self):
        y = np.array([0, 0, 1, 1])
        T = np.where(y[:, None] == y[None, :], 1.0, -1.0)
        bank = bank_of([T])
        mu = target_align(bank, y)
        np.testing.assert_allclose(mu, [1.0], atol=1e-12)

    def test_requires_centered_bank(self):
        data = make_blobs(n_per_class=4, d=2, seed=1)
        raw = build_kernel_bank(data.instances, "uci_full")
        # a raw bank has no pair-major store to read (M, a) from
        with pytest.raises(AttributeError, match="attribute 'pairs'"):
            target_align(raw, data.labels)

    def test_requires_two_classes(self):
        bank = centered_bank_for(make_blobs(n_per_class=6, d=2, seed=2))
        with pytest.raises(ValueError, match="two classes"):
            target_align(bank, np.zeros(12, dtype=int))

    def test_falls_back_to_uniform(self, caplog):
        y = np.array([0, 0, 1, 1])
        bank = antitarget_bank(y)
        with caplog.at_level(logging.WARNING, logger="kweave.baselines"):
            mu = target_align(bank, y)
        np.testing.assert_array_equal(mu, uniform_weights(2))
        assert any("uniform" in r.getMessage() for r in caplog.records)


class TestUniformWeights:
    def test_values(self):
        np.testing.assert_array_equal(uniform_weights(4), np.full(4, 0.25))

    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            uniform_weights(0)


def labeled_bank(informative_index=1, n=20, seed=0):
    """Three synthetic kernels, only one of which separates the labels."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    s = np.where(y == 0, -1.0, 1.0)
    good = np.outer(s, s) + 1e-6 * np.eye(n)
    grams = []
    for idx in range(3):
        if idx == informative_index:
            grams.append(good)
        else:
            A = rng.normal(0.0, 1.0, (n, n))
            grams.append(A @ A.T)
    return bank_of(grams), y


class TestBestKernel:
    def test_selects_informative_kernel(self):
        bank, y = labeled_bank(informative_index=1)
        folds = kfold_plan(bank.n, 4, seed=7)
        idx, mu = best_kernel(bank, y, folds)
        assert idx == 1
        expected = np.zeros(3)
        expected[1] = 1.0
        np.testing.assert_array_equal(mu, expected)

    def test_tie_prefers_lower_index(self):
        y = np.repeat([0, 1], 5)
        s = np.where(y == 0, -1.0, 1.0)
        K = np.outer(s, s) + 1e-6 * np.eye(10)
        bank = bank_of([K, K.copy()])
        idx, _ = best_kernel(bank, y, kfold_plan(10, 5, seed=0))
        assert idx == 0

    def test_single_kernel(self):
        y = np.repeat([0, 1], 5)
        s = np.where(y == 0, -1.0, 1.0)
        bank = bank_of([np.outer(s, s) + 1e-6 * np.eye(10)])
        idx, mu = best_kernel(bank, y, kfold_plan(10, 5, seed=0))
        assert idx == 0
        np.testing.assert_array_equal(mu, [1.0])

    def test_ranks_each_kernel_at_its_chosen_C(self, monkeypatch):
        # two RBF widths on one feature; with the fits at C >= 100 capped, kernel 0's
        # best CV accuracy is at a capped C, above kernel 1's chosen one, but kernel 0
        # scores lower at its own chosen C
        grams = [overlapping_gram(seed=4, gamma=g)[0] for g in (0.1, 0.3)]
        y = overlapping_gram(seed=4)[1]
        bank, folds = bank_of(grams), kfold_plan(40, 4, seed=3)
        cap_fits(monkeypatch, 100.0)
        chosen = [select_C(bank.gram(i), y, folds) for i in (0, 1)]
        at = [next(r["cv_accuracy"] for r in recs if r["C"] == C) for C, recs in chosen]
        assert at[0] < at[1] < max(r["cv_accuracy"] for r in chosen[0][1] if r["nonconverged"])
        assert best_kernel(bank, y, folds)[0] == 1

    def test_failed_kernel_skipped_with_warning(self, monkeypatch, caplog):
        bank, y = labeled_bank(informative_index=1)
        folds = kfold_plan(bank.n, 4, seed=7)
        bad = bank.gram(1)  # knock out the would-be winner

        def flaky(gram, *args, **kwargs):
            if np.array_equal(gram, bad):
                raise RuntimeError("synthetic failure")
            return select_C(gram, *args, **kwargs)

        monkeypatch.setattr(baselines, "select_C", flaky)
        with caplog.at_level(logging.WARNING, logger="kweave.baselines"):
            idx, _ = best_kernel(bank, y, folds)
        assert idx != 1
        assert any("skipped" in r.getMessage() for r in caplog.records)

    def test_all_failed_raises(self, monkeypatch):
        bank, y = labeled_bank()

        def broken(gram, *args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(baselines, "select_C", broken)
        with pytest.raises(RuntimeError, match="every kernel"):
            best_kernel(bank, y, kfold_plan(bank.n, 4, seed=7))
