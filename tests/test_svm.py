"""SMO solver against a brute-force projected-gradient dual oracle, plus
one-vs-rest training, C selection, and model serialization."""

import ctypes
import logging
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from kweave import _native, cli, svm
from kweave.data import kfold_plan
from kweave.experiment import METHODS, ExperimentConfig, run_experiment, run_lambda_sweep
from kweave.kernels import build_kernel_bank, center_bank, combine
from kweave.svm import (
    DEFAULT_C_GRID,
    OvrModel,
    SvmModel,
    fit,
    ovr_train,
    select_C,
    smo_train,
)

from conftest import (
    cap_fits,
    decision_values,
    dual_objective,
    force_nonconvergence,
    make_blobs,
    overlapping_gram,
)
from test_experiment import write_toy_csv


# ---------------------------------------------------------------------------
# oracle machinery: Euclidean projection onto {0 <= a <= C, y'a = 0} computed
# two independent ways, then plain projected gradient on the dual


def _constraint_gap(v, y, C, nu):
    return float(y @ np.clip(v - nu * y, 0.0, C))


def exact_projection(v, y, C):
    """Piecewise-linear solve for the dual multiplier of the hyperplane.

    g(nu) = y' clip(v - nu y, 0, C) is nonincreasing and piecewise linear
    with kinks where a coordinate enters or leaves its bound; the root is
    found by scanning segments and interpolating.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    bps = np.unique(np.concatenate([y * v, y * (v - C)]))
    pts = np.concatenate([[bps[0] - 1.0], bps, [bps[-1] + 1.0]])
    g = np.array([_constraint_gap(v, y, C, nu) for nu in pts])
    for k in range(len(pts) - 1):
        if g[k] >= 0.0 >= g[k + 1]:
            if g[k] == g[k + 1]:
                nu = pts[k]
            else:
                nu = pts[k] + (pts[k + 1] - pts[k]) * g[k] / (g[k] - g[k + 1])
            return np.clip(v - nu * y, 0.0, C)
    raise AssertionError("no sign change: projection problem infeasible?")


def bisect_projection(v, y, C, iters=200):
    """Same projection by bisection on the multiplier; cross-check only."""
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lo = -(float(np.abs(v).max()) + C + 1.0)
    hi = -lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _constraint_gap(v, y, C, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)


def pgd_dual(K, y, C, iters=1_000_000, rtol=1e-13):
    """Projected gradient with step 1/L on the dual; brute-force reference."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Q = np.outer(y, y) * K
    L = max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    a = np.zeros(len(y))
    for _ in range(iters):
        new = exact_projection(a - (Q @ a - 1.0) / L, y, C)
        if np.max(np.abs(new - a)) < rtol * max(1.0, C):
            return new
        a = new
    return a


def oracle_bias(K, y, alpha, C):
    """Bias from the KKT conditions of an optimal dual point."""
    v = y - np.asarray(K) @ (alpha * y)
    eps = 1e-7 * C
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        return float(v[free].mean())
    lower = ((y > 0) & (alpha <= eps)) | ((y < 0) & (alpha >= C - eps))
    upper = ((y > 0) & (alpha >= C - eps)) | ((y < 0) & (alpha <= eps))
    lo = v[lower].max() if lower.any() else -np.inf
    hi = v[upper].min() if upper.any() else np.inf
    if np.isinf(lo):
        return float(hi)
    if np.isinf(hi):
        return float(lo)
    return float(0.5 * (lo + hi))


def random_dual_problem(seed):
    """Strictly PD Gram (unique dual optimum) with both classes present."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 11))
    A = rng.normal(0.0, 1.0, (n, n))
    K = A @ A.T + np.eye(n)
    y = np.ones(n)
    y[: n // 2] = -1.0
    rng.shuffle(y)
    C = float(rng.choice([0.5, 1.0, 2.0]))
    cross = rng.normal(0.0, 1.0, (5, n))
    return K, y, C, cross


def objective_trace(K, y, C, steps):
    """The dual objective after each of the first `steps` pair steps.

    Read off the max_iter=k fits, which hold the k-th duals of the
    uncapped run.
    """
    return np.array(
        [dual_objective(K, smo_train(K, y, C, max_iter=k)) for k in range(1, steps + 1)]
    )


def kkt_gap(K, y, alpha, C):
    """Recomputed maximal violating-pair gap, independent of the solver."""
    Q = np.outer(y, y) * np.asarray(K)
    m = -y * (Q @ alpha - 1.0)
    pos = y > 0
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    if not up.any() or not low.any():
        return 0.0
    return float(np.where(up, m, -np.inf).max() - np.where(low, m, np.inf).min())


class TestProjectionOracle:
    def test_hand_case(self):
        # symmetric v: multiplier 0, nothing clipped
        a = exact_projection(np.array([2.0, 2.0]), np.array([1.0, -1.0]), 5.0)
        np.testing.assert_array_equal(a, [2.0, 2.0])

    def test_two_implementations_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if not (np.any(y > 0) and np.any(y < 0)):
                y[0] = -y[0]
            v = rng.normal(0.0, 3.0, n)
            C = float(rng.uniform(0.1, 5.0))
            a = exact_projection(v, y, C)
            b = bisect_projection(v, y, C)
            np.testing.assert_allclose(a, b, atol=1e-10)
            assert np.all(a >= 0.0) and np.all(a <= C)
            assert abs(y @ a) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0.0, 2.0, 7)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        a = exact_projection(v, y, 1.5)
        np.testing.assert_allclose(exact_projection(a, y, 1.5), a, atol=1e-12)


class TestPgdOracle:
    def test_hand_case(self):
        # 2-variable dual collapses to min t^2 - 2t on [0, C]
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        a = pgd_dual(K, y, 2.0)
        np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-8)
        b = oracle_bias(K, y, a, 2.0)
        assert b == pytest.approx(0.0, abs=1e-8)
        f = K @ (a * y) + b
        np.testing.assert_allclose(f, [1.0, -1.0], atol=1e-8)


def _fault_cases():
    """pytest params (args, options, error) with several inputs bad at once:
    smo_train raises the first fault in the order its checks run (shape,
    labels, C, tol, max_iter, alpha0's conversion and shape, then the
    arrays), as error's class and message."""
    nan_K, inf_K = np.eye(3), np.eye(3)
    nan_K[1, 1] = np.nan
    inf_K[0, 2] = inf_K[2, 0] = np.inf
    y, one_class = np.array([1.0, -1.0, 1.0]), np.ones(3)
    finite = ValueError("Gram must be finite")
    classes = ValueError("both classes required to train an SVM")
    labels = ValueError("labels do not match Gram dimension")
    negative_tol = ValueError("tol must be non-negative")
    seed_length = ValueError("alpha0 does not match Gram dimension")
    max_iter = ValueError("max_iter must be an integer of at least 1")
    signs = ValueError("labels must be +1 or -1")
    cases = [
        ("nan-not-square", (np.full((3, 2), np.nan), y[:1], 0.0), {},
         ValueError("Gram must be a square matrix")),
        ("nan-short-labels", (nan_K, y[:2], 1.0), {}, labels),
        ("inf-one-class", (inf_K, one_class, 1.0), {}, finite),
        ("nan-zero-C", (nan_K, y, 0.0), {}, ValueError("C must be positive and finite, got 0.0")),
        ("inf-tol-max-iter", (inf_K, y, 1.0), {"tol": -1.0, "max_iter": 0}, negative_tol),
        ("inf-short-seed", (inf_K, y, 1.0), {"alpha0": np.zeros(2)}, seed_length),
        ("nan-nan-seed", (nan_K, y, 1.0), {"alpha0": np.array([np.nan, 2.0, 0.0])}, finite),
        ("nan-good-seed", (nan_K, y, 1.0), {"alpha0": np.array([0.5, 0.5, 0.0])}, finite),
        # np.isfinite("1"): numpy's error, as for a string C on a finite Gram
        ("nan-string-C", (nan_K, y, "1"), {},
         TypeError("ufunc 'isfinite' not supported for the input types, and the inputs could "
                   "not be safely coerced to any supported types according to the casting "
                   "rule ''safe''")),
        # a string converts to a 0-d array
        ("inf-string-seed", (inf_K, y, 1.0), {"alpha0": "0.5"}, seed_length),
        ("one-class-ragged-seed", (np.eye(3), one_class, 1.0), {"alpha0": [[0.0], [0.0, 1.0]]},
         ValueError("setting an array element with a sequence. The requested array has an "
                    "inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
                    "inhomogeneous part.")),
        ("empty", (np.zeros((0, 0)), np.zeros(0), 1.0), {}, classes),
        ("one-class-nan-C", (np.eye(3), one_class, np.nan), {},
         ValueError("C must be positive and finite, got nan")),
        ("one-class-tol", (np.eye(3), -one_class, 1.0), {"tol": -1.0}, negative_tol),
        ("one-class-short-seed", (np.eye(3), one_class, 1.0), {"alpha0": np.zeros(2)},
         seed_length),
        ("one-class-bad-seed", (np.eye(3), -one_class, 1.0),
         {"alpha0": np.array([2.0, np.nan, 0.0])}, classes),
        ("short-labels-zero-C", (np.eye(3), y[:2], 0.0), {"alpha0": np.zeros(2)}, labels),
        ("inf-C-nan-seed", (np.eye(3), y, np.inf), {"alpha0": np.array([np.nan, 0.0, 0.0])},
         ValueError("C must be positive and finite, got inf")),
        ("tol-max-iter", (np.eye(3), y, 1.0), {"tol": -1.0, "max_iter": 0}, negative_tol),
        ("max-iter-short-seed", (np.eye(3), y, 1.0), {"max_iter": 0, "alpha0": np.zeros(2)},
         max_iter),
        ("inf-seed-below-0", (np.eye(3), y, 1.0), {"alpha0": np.array([-1.0, np.inf, 0.5])},
         ValueError("alpha0 must be finite")),
        ("nan-seed-above-C", (np.eye(3), y, 1.0), {"alpha0": np.array([2.0, 0.5, np.nan])},
         ValueError("alpha0 must be finite")),
        ("seed-outside-both-ways", (np.eye(3), y, 1.0), {"alpha0": np.array([0.5, 1.5, -0.5])},
         ValueError("alpha0 must lie in [0, C]")),
        # labels other than +-1: the loop assumes y^2 = 1
        ("nan-doubled-labels", (nan_K, 2 * y, 1.0), {}, finite),
        ("half-label-float-max-iter", (np.eye(3), np.array([1.0, -0.5, 1.0]), 1.0),
         {"max_iter": 5.0}, max_iter),
        ("doubled-labels-bad-seed", (np.eye(3), 2 * y, 1.0),
         {"alpha0": np.array([2.0, np.nan, 0.0])}, signs),
        ("half-label", (np.eye(3), np.array([1.0, -0.5, 1.0]), 1.0), {}, signs),
        ("nan-label-one-class", (np.eye(3), np.array([np.nan, 1.0, 1.0]), 1.0), {}, signs),
        ("zero-label", (np.eye(3), np.array([1.0, 0.0, -1.0]), 1.0), {}, signs),
    ]
    return [pytest.param(args, opts, error, id=name) for name, args, opts, error in cases]


class TestSmoTrain:
    def test_two_point_hand_case(self):
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        for C in (1.0, 2.0, 10.0):
            mdl = smo_train(K, y, C)
            assert mdl.converged
            np.testing.assert_allclose(mdl.alpha, [1.0, 1.0], atol=1e-9)
            assert mdl.bias == pytest.approx(0.0, abs=1e-9)
            f = decision_values(mdl, K)
            np.testing.assert_allclose(f, [1.0, -1.0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_decisions_match_oracle(self, seed):
        K, y, C, cross = random_dual_problem(seed)
        a = pgd_dual(K, y, C)
        b = oracle_bias(K, y, a, C)
        mdl = smo_train(K, y, C)
        assert mdl.converged
        f_oracle = cross @ (a * y) + b
        f_smo = decision_values(mdl, cross)
        np.testing.assert_allclose(f_smo, f_oracle, atol=1e-2)

    @pytest.mark.parametrize("seed", range(6))
    def test_dual_feasibility(self, seed):
        K, y, C, _ = random_dual_problem(seed)
        mdl = smo_train(K, y, C)
        n = len(y)
        assert np.all(mdl.alpha >= 0.0)
        assert np.all(mdl.alpha <= C)
        assert abs(mdl.alpha @ y) <= 1e-6 * C * n

    def test_objective_monotone(self):
        K, y, C, _ = random_dual_problem(3)
        mdl = smo_train(K, y, C)
        trace = objective_trace(K, y, C, mdl.iterations)
        assert len(trace) == mdl.iterations > 1
        assert np.all(np.diff(trace) >= -1e-9)
        # the trace ends at the true objective of the returned duals
        assert trace[-1] == dual_objective(K, mdl)

    def test_kkt_gap_at_convergence(self):
        for seed in range(4):
            K, y, C, _ = random_dual_problem(seed)
            mdl = smo_train(K, y, C, tol=1e-5)
            assert mdl.converged
            assert kkt_gap(K, y, mdl.alpha, C) <= 1e-5 + 1e-12

    def test_reported_kkt_gap_matches_recomputed(self):
        # at convergence and at the iteration cap the model's gap is the
        # solver's own m at exit, equal to the gap recomputed from K
        for seed in range(4):
            K, y, C, _ = random_dual_problem(seed)
            done, capped = smo_train(K, y, C), smo_train(K, y, C, max_iter=1)
            assert done.converged and done.kkt_gap <= 1e-3
            assert not capped.converged and capped.kkt_gap > 1e-3
            for mdl in (done, capped):
                assert mdl.kkt_gap == pytest.approx(kkt_gap(K, y, mdl.alpha, C), abs=1e-12)

    def test_kkt_gap_zero_with_an_empty_working_set(self):
        # a feasible a never empties a set; these seeds (off the hyperplane,
        # which smo_train does not check) put every dual where it cannot
        # move up (the up set is empty, -inf), then where it cannot move
        # down (the low set, +inf), so the loop returns at once
        for seed in ([1.0, 0.0], [0.0, 1.0]):
            mdl = smo_train(np.eye(2), np.array([1.0, -1.0]), 1.0, alpha0=np.array(seed))
            assert mdl.converged and mdl.iterations == 0 and mdl.kkt_gap == 0.0, seed

    def test_margin_support_vectors(self):
        K, y, C, _ = random_dual_problem(1)
        mdl = smo_train(K, y, C, tol=1e-8)
        f = decision_values(mdl, K)
        eps = 1e-7 * C
        free = (mdl.alpha > eps) & (mdl.alpha < C - eps)
        assert free.any()
        np.testing.assert_allclose((y * f)[free], 1.0, atol=1e-5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        n = 12
        A = rng.normal(0.0, 1.0, (n, n))
        K = A @ A.T + 2.0 * np.eye(n)
        y = np.ones(n)
        y[::2] = -1.0
        cross = rng.normal(0.0, 1.0, (6, n))
        perm = rng.permutation(n)
        m1 = smo_train(K, y, 1.0, tol=1e-10)
        m2 = smo_train(K[np.ix_(perm, perm)], y[perm], 1.0, tol=1e-10)
        f1 = decision_values(m1, cross)
        f2 = decision_values(m2, cross[:, perm])
        np.testing.assert_allclose(f1, f2, atol=1e-8)

    def test_deterministic(self):
        K, y, C, _ = random_dual_problem(2)
        m1 = smo_train(K, y, C)
        m2 = smo_train(K, y, C)
        np.testing.assert_array_equal(m1.alpha, m2.alpha)
        assert m1.bias == m2.bias

    def test_iteration_cap_flags_nonconvergence(self, caplog):
        K, y, C, _ = random_dual_problem(0)
        with caplog.at_level(logging.WARNING, logger="kweave.svm"):
            mdl = smo_train(K, y, C, max_iter=2)
        assert not mdl.converged
        assert mdl.iterations == 2
        assert any("iteration cap" in r.getMessage() for r in caplog.records)
        # capped output is still feasible
        assert np.all(mdl.alpha >= 0.0) and np.all(mdl.alpha <= C)
        assert abs(mdl.alpha @ y) <= 1e-6 * C * len(y)

    def test_stall_flags_nonconvergence(self, caplog):
        K, y, C = _stall_problem()
        with caplog.at_level(logging.WARNING, logger="kweave.svm"):
            mdl = smo_train(K, y, C, tol=0.0)
        assert mdl.converged is False
        assert mdl.iterations < max(20000, 200 * len(y))
        assert any("stalled" in r.getMessage() for r in caplog.records)

    def test_semidefinite_gram_with_jitter(self):
        # rank-1 all-ones Gram: every pair has zero curvature
        K = np.ones((4, 4))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        for gram in (K, ridged(K)):
            mdl = smo_train(gram, y, 1.0)
            assert np.all(mdl.alpha >= 0.0) and np.all(mdl.alpha <= 1.0)
            assert abs(mdl.alpha @ y) <= 1e-6 * 4

    def test_input_validation(self):
        for K in (1.0, np.ones(3), np.ones((3, 2)), np.ones((3, 3, 3))):
            with pytest.raises(ValueError, match="square"):
                smo_train(K, np.array([1.0, -1.0, 1.0]), 1.0)
        K = np.eye(3)
        with pytest.raises(ValueError, match="labels"):
            smo_train(K, np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError, match="both classes"):
            smo_train(K, np.ones(3), 1.0)
        with pytest.raises(ValueError, match="C"):
            smo_train(K, np.array([1.0, -1.0, 1.0]), 0.0)
        for C in (np.nan, np.inf):
            with pytest.raises(ValueError, match="C must be positive and finite"):
                smo_train(K, np.array([1.0, -1.0, 1.0]), C)

    def test_non_finite_gram_refused_before_any_pair_step(self, monkeypatch):
        # the compiled fit checks the Gram before its start; the numpy fit
        # must not reach its pair loop
        monkeypatch.setattr(svm, "_numpy_pair_loop", lambda *args: pytest.fail("a pair step ran"))
        for K, y in _non_finite_problems():
            for alpha0 in (None, np.where(np.arange(len(y)) < 2, 0.5, 0.0)):
                with pytest.raises(ValueError, match="Gram must be finite"):
                    smo_train(K, y, 1.0, alpha0=alpha0)

    @pytest.mark.parametrize("args, opts, error", _fault_cases())
    def test_several_faults_raise_the_first_in_order(self, args, opts, error):
        with pytest.raises(type(error)) as info:
            smo_train(*args, **opts)
        assert type(info.value) is type(error) and str(info.value) == str(error)

    @pytest.mark.parametrize(
        "opts, match",
        [
            ({"alpha0": np.zeros(2)}, "alpha0 does not match"),
            ({"alpha0": np.array([0.5, np.nan, 0.5])}, "finite"),
            ({"alpha0": np.array([0.5, np.inf, 0.5])}, "finite"),
            ({"alpha0": np.array([-0.1, 0.0, 0.1])}, r"\[0, C\]"),
            ({"alpha0": np.array([1.5, 0.0, 1.5])}, r"\[0, C\]"),
            ({"tol": -1e-3}, "tol"),
            ({"max_iter": 0}, "max_iter"),
            ({"tol": np.nan}, "tol"),
            ({"max_iter": np.nan}, "max_iter"),
            ({"max_iter": 5.5}, "max_iter"),
            ({"max_iter": 5.0}, "max_iter"),
        ],
    )
    def test_option_validation(self, opts, match):
        with pytest.raises(ValueError, match=match):
            smo_train(np.eye(3), np.array([1.0, -1.0, 1.0]), 1.0, **opts)


# ---------------------------------------------------------------------------
# reference-equivalence gate: smo_train's pair-step loop as first written,
# recomputing the gradient form and the working-set masks every step. The
# incremental loop in smo_train must reproduce it bit for bit.

_ref_logger = logging.getLogger("kweave.svm.reference")
_REF_TAU = 1e-12


def _reference_smo(K, y, C, tol=1e-3, max_iter=None, alpha0=None):
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(20000, 200 * n)

    diag = np.ascontiguousarray(np.diag(K))
    yK = y[:, None] * K  # yK[:, i] = y * K[:, i]
    alpha = np.zeros(n) if alpha0 is None else np.array(alpha0, dtype=np.float64)
    G = y * (K @ (alpha * y)) - 1.0  # gradient of the minimization dual
    pos = y > 0

    converged = False
    it = 0
    while it < max_iter:
        m = -y * G
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.where(up, m, -np.inf).argmax())
        j = int(np.where(low, m, np.inf).argmin())
        if m[i] - m[j] <= tol:
            converged = True
            break

        quad = diag[i] + diag[j] - 2.0 * K[i, j]
        delta = (m[i] - m[j]) / max(quad, _REF_TAU)
        cap_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        delta = min(delta, cap_i, cap_j)

        old_i, old_j = alpha[i], alpha[j]
        s = y[i] * old_i + y[j] * old_j
        if cap_j <= cap_i and delta >= cap_j:
            aj = 0.0 if y[j] > 0 else C
            ai = y[i] * (s - y[j] * aj)
        elif delta >= cap_i:
            ai = C if y[i] > 0 else 0.0
            aj = y[j] * (s - y[i] * ai)
        else:
            ai = old_i + y[i] * delta
            aj = old_j - y[j] * delta
        ai = min(max(ai, 0.0), C)
        aj = min(max(aj, 0.0), C)
        alpha[i], alpha[j] = ai, aj
        dai, daj = ai - old_i, aj - old_j
        if dai == 0.0 and daj == 0.0:
            _ref_logger.warning(
                "SMO stalled at KKT gap %g (tol %g) after %d pair steps",
                m[i] - m[j], tol, it,
            )
            break
        G += yK[:, i] * (y[i] * dai) + yK[:, j] * (y[j] * daj)
        it += 1
    else:
        _ref_logger.warning("SMO hit the iteration cap (%d) before tol %g", max_iter, tol)

    # the exit KKT gap over the sets at the final duals; + 0.0 gives m the
    # zeros of smo_train's, which start from y - K(a * y) with y = +-1 and so
    # never hold -0.0
    m = -y * G + 0.0
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    gap = (m[up].max() if up.any() else -np.inf) - (m[low].min() if low.any() else np.inf)

    eps = 1e-8 * C
    v = -y * G
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        bias = float(np.add.accumulate(v[free])[-1] / free.sum())  # left to right
    else:
        lower = (pos & (alpha <= eps)) | (~pos & (alpha >= C - eps))
        upper = (pos & (alpha >= C - eps)) | (~pos & (alpha <= eps))
        lo = v[lower].max() if lower.any() else -np.inf
        hi = v[upper].min() if upper.any() else np.inf
        if np.isinf(lo):
            bias = float(hi)
        elif np.isinf(hi):
            bias = float(lo)
        else:
            bias = float((lo + hi) / 2.0)

    return SvmModel(
        alpha=alpha,
        bias=bias + 0.0,  # a zero bias is +0.0, as smo_train's
        signed_labels=y.astype(np.int64),
        C=C,
        converged=converged,
        iterations=it,
        kkt_gap=float(gap) if np.isfinite(gap) else 0.0,
    )


def _kernel_gram(kind, X):
    if kind == "linear":
        return X @ X.T
    if kind == "rbf":
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-0.5 * sq)
    return (X @ X.T / X.shape[1] + 1.0) ** 3


def ridged(K):
    """K + 1e-10 mean(diag K) I, a Gram with a tiny ridge on its diagonal."""
    return K + (1e-10 * float(np.mean(np.diag(K)))) * np.eye(len(K))


def _signed_labels(rng, n):
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    return y


def _stall_problem():
    """12-point linear Gram where tol=0 stalls after 99 pair steps."""
    X = np.random.default_rng(2).normal(size=(12, 2))
    y = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    return X @ X.T, y, 10.0


def assert_same_model(got, ref):
    assert got.alpha.tobytes() == ref.alpha.tobytes()
    assert repr(got.bias) == repr(ref.bias)
    assert repr(got.kkt_gap) == repr(ref.kkt_gap)
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged


def assert_same_trajectory(fit, ref):
    """fit and ref agree bitwise uncapped and at max_iter prefixes.

    Both take max_iter; a max_iter=k fit holds the k-th duals. A run of at
    most 100 pair steps is compared at every step, a longer one at steps
    1, 2 and a quarter of the way.
    """
    full = ref()
    assert_same_model(fit(), full)
    steps = full.iterations
    for k in range(1, steps) if steps <= 100 else (1, 2, steps // 4):
        assert_same_model(fit(max_iter=k), ref(max_iter=k))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("C", DEFAULT_C_GRID)
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_seeded_grams(self, kind, C):
        rng = np.random.default_rng(int(C * 100) + len(kind))
        for n, opts in [
            (3, {}),
            (160, {}),
            (int(rng.integers(4, 160)), None),  # None: compare max_iter prefixes too
            (int(rng.integers(4, 160)), "ridged"),
            (int(rng.integers(4, 160)), {"max_iter": int(rng.integers(1, 60))}),
        ]:
            K = _kernel_gram(kind, rng.normal(size=(n, int(rng.integers(1, 6)))))
            if opts == "ridged":
                K, opts = ridged(K), {}
            y = _signed_labels(rng, n)
            fit, ref = partial(smo_train, K, y, C), partial(_reference_smo, K, y, C)
            if opts is None:
                assert_same_trajectory(fit, ref)
            else:
                assert_same_model(fit(**opts), ref(**opts))

    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_ascending_seeded_walk(self, kind):
        # select_C's walk: every C after the first starts from the previous
        # C's duals, so the loop's sets start from a seed's bounds
        rng = np.random.default_rng(len(kind))
        problems = [_separated_problem(kind, len(kind))]
        for n in (3, int(rng.integers(4, 60))):
            K = _kernel_gram(kind, rng.normal(size=(n, int(rng.integers(1, 6)))))
            problems.append((K, _signed_labels(rng, n)))
        for K, y in problems:
            seed = None
            for C in DEFAULT_C_GRID:
                fit = partial(smo_train, K, y, C, alpha0=seed)
                assert_same_trajectory(fit, partial(_reference_smo, K, y, C, alpha0=seed))
                seed = fit().alpha

    def test_tol_zero_stall(self):
        K, y, C = _stall_problem()
        assert_same_trajectory(
            partial(smo_train, K, y, C, tol=0.0), partial(_reference_smo, K, y, C, tol=0.0)
        )

    def test_integer_grams_with_exact_zeros(self):
        # cancellations to exactly 0.0 in the gradient; a zero bias is +0.0
        # (this first case's midpoint is -0.0 before the + 0.0)
        K = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        y = np.array([1.0, -1.0, 1.0])
        assert repr(_reference_smo(K, y, 0.5).bias) == "0.0"
        assert_same_model(smo_train(K, y, 0.5), _reference_smo(K, y, 0.5))
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            X = rng.integers(-1, 2, size=(n, int(rng.integers(1, 4)))).astype(float)
            K = X @ X.T + np.eye(n) * float(rng.integers(0, 2))
            y = _signed_labels(rng, n)
            C = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            assert_same_trajectory(partial(smo_train, K, y, C), partial(_reference_smo, K, y, C))


def _separated_problem(kind, seed, n=60):
    """Gram over 3-d points whose first feature is shifted by 2y."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = _signed_labels(rng, n)
    X[:, 0] += 2.0 * y
    return _kernel_gram(kind, X), y


class TestWarmStart:
    @pytest.mark.parametrize("C", DEFAULT_C_GRID)
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_zero_seed_is_the_cold_fit(self, kind, C):
        rng = np.random.default_rng(int(C * 100) + len(kind))
        for n, opts in [(3, {}), (80, None), (50, "ridged")]:
            K = _kernel_gram(kind, rng.normal(size=(n, 2)))
            if opts == "ridged":
                K, opts = ridged(K), {}
            y = _signed_labels(rng, n)
            cold = partial(smo_train, K, y, C)
            seeded = partial(cold, alpha0=np.zeros(n))
            if opts is None:  # compare max_iter prefixes too
                assert_same_trajectory(seeded, cold)
            else:
                assert_same_model(seeded(**opts), cold(**opts))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_ascending_walk_matches_cold_fits(self, kind, seed):
        # tol 1e-6: tight enough that two tol-optimal points share their
        # dual objective to 1e-6 relative
        tol = 1e-6
        K, y = _separated_problem(kind, seed)
        prev = None
        for C in DEFAULT_C_GRID:
            cold = smo_train(K, y, C, tol=tol)
            warm = smo_train(K, y, C, tol=tol, alpha0=prev)
            assert cold.converged and warm.converged
            assert kkt_gap(K, y, warm.alpha, C) <= tol
            assert warm.alpha.min() >= 0.0 and warm.alpha.max() <= C
            assert abs(y @ warm.alpha) <= 1e-9
            assert dual_objective(K, warm) == pytest.approx(dual_objective(K, cold), rel=1e-6)
            prev = warm.alpha

    def test_unbounded_solution_needs_no_steps_at_larger_C(self):
        K, labels = separable_linear_gram()
        y = np.where(labels == 1, 1.0, -1.0)
        mdl = smo_train(K, y, 100.0)
        assert mdl.converged and mdl.iterations > 0
        assert mdl.alpha.max() < 100.0  # no dual at its bound
        warm = smo_train(K, y, 1000.0, alpha0=mdl.alpha)
        assert warm.converged and warm.iterations == 0
        assert warm.alpha.tobytes() == mdl.alpha.tobytes()


class TestDecisionValues:
    def test_dimension_mismatch(self):
        mdl = smo_train(np.eye(2), np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError, match="columns"):
            decision_values(mdl, np.zeros((3, 5)))

    def test_zero_alpha_gives_bias(self):
        mdl = SvmModel(
            alpha=np.zeros(3),
            bias=0.7,
            signed_labels=np.array([1, -1, 1]),
            C=1.0,
        )
        np.testing.assert_array_equal(decision_values(mdl, np.eye(3)), [0.7] * 3)


def three_blob_gram(n_per=8, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], n_per)
    X = rng.normal(0.0, 1.0, (3 * n_per, 2))
    X[:, 0] += gap * y
    K = X @ X.T + np.eye(3 * n_per)
    return K, y


class TestOvr:
    def test_binary_agrees_with_sign_rule(self):
        K, y3 = three_blob_gram()
        y = (y3 >= 1).astype(np.int64)  # collapse to two classes
        ovr = ovr_train(K, y, 1.0)
        f1 = decision_values(ovr.models[1], K)
        assert np.all(f1 != 0.0)
        np.testing.assert_array_equal(ovr.predict(K), (f1 > 0).astype(np.int64))

    def test_three_class_shapes_and_separation(self):
        K, y = three_blob_gram()
        ovr = ovr_train(K, y, 10.0)
        assert len(ovr.models) == 3
        assert ovr.decision_matrix(K).shape == (len(y), 3)
        assert np.mean(ovr.predict(K) == y) == 1.0

    def test_all_equal_decisions_predict_class_zero(self):
        flat = SvmModel(
            alpha=np.zeros(2),
            bias=0.3,
            signed_labels=np.array([1, -1]),
            C=1.0,
        )
        ovr = OvrModel(models=[flat, flat])
        np.testing.assert_array_equal(ovr.predict(np.eye(2)), [0, 0])

    def test_absent_class_raises(self):
        K = np.eye(4)
        labels = np.array([0, 0, 2, 2])
        with pytest.raises(ValueError, match="class 1 absent"):
            ovr_train(K, labels, 1.0, n_classes=3)

    def test_to_dict_sparse_alpha(self):
        K, y = three_blob_gram(n_per=4)
        ovr = ovr_train(K, y, 1.0)
        d = ovr.to_dict()
        assert d["n_classes"] == len(ovr.models) == 3
        assert [m["class_id"] for m in d["models"]] == [0, 1, 2]
        for m, mdl in zip(d["models"], ovr.models):
            dense = np.zeros(len(y))
            for idx, val in m["alpha"]:
                dense[idx] = val
            np.testing.assert_array_equal(dense, mdl.alpha)
            assert m["bias"] == mdl.bias


def separable_linear_gram(seed=5, n=24):
    """Linear Gram of two classes 6 apart along the first feature."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    X = rng.normal(0.0, 1.0, (n, 3))
    X[:, 0] += 6.0 * y
    return X @ X.T, y


def averaged_gram():
    """Averaged uci_full Gram of 24 blob rows."""
    ds = make_blobs(n_per_class=12, d=3, gap=2.0, seed=4)
    bank, _ = center_bank(build_kernel_bank(ds.instances, "uci_full"), np.triu_indices(24))
    return combine(bank, np.full(bank.p, 1.0 / bank.p)), ds.labels


def _binary_problem(name):
    if name == "separable":
        return separable_linear_gram()
    if name == "overlapping":
        return overlapping_gram()
    K, labels = averaged_gram()
    return ridged(K), labels


class TestBinaryMirror:
    """Two-class one-vs-rest: class 1 starts from class 0's duals."""

    @pytest.mark.parametrize("C", DEFAULT_C_GRID)
    @pytest.mark.parametrize("name", ["separable", "overlapping", "jittered"])
    def test_seeded_class_one_mirrors_class_zero(self, name, C):
        K, labels = _binary_problem(name)
        m0, m1 = ovr_train(K, labels, C).models
        cold = [smo_train(K, np.where(labels == k, 1.0, -1.0), C) for k in (0, 1)]
        assert_same_model(m0, cold[0])
        if m0.converged:
            assert m1.alpha.tobytes() == m0.alpha.tobytes()
            assert m1.iterations == 0 and m1.converged and m1.kkt_gap <= 1e-3
            assert abs(m1.bias + m0.bias) <= 1e-12
        else:
            # overlapping at C=1000 hits the cap: class 1 runs cold
            assert_same_model(m1, cold[1])
        d0, d1 = decision_values(m0, K), decision_values(m1, K)
        np.testing.assert_allclose(d1, -d0, rtol=0.0, atol=1e-12)
        seeded = OvrModel(models=[m0, m1])
        np.testing.assert_array_equal(seeded.predict(K), OvrModel(models=cold).predict(K))

    def test_capped_class_zero_leaves_class_one_cold(self, monkeypatch):
        K, labels = overlapping_gram()
        monkeypatch.setattr(svm, "smo_train", partial(smo_train, max_iter=5))
        m0, m1 = ovr_train(K, labels, 1.0).models
        assert not m0.converged and m0.iterations == 5
        assert_same_model(m1, smo_train(K, np.where(labels == 1, 1.0, -1.0), 1.0, max_iter=5))
        # the cold class-1 fit is the bitwise mirror of class 0
        assert m1.alpha.tobytes() == m0.alpha.tobytes()
        assert m1.bias == -m0.bias and m1.kkt_gap == m0.kkt_gap

    def test_three_classes_are_cold_per_class_fits(self):
        K, labels = three_blob_gram()
        ovr = ovr_train(K, labels, 10.0)
        for k, mdl in enumerate(ovr.models):
            assert_same_model(mdl, smo_train(K, np.where(labels == k, 1.0, -1.0), 10.0))


# ---------------------------------------------------------------------------
# both fits: smo_train runs each binary fit compiled from _native.c where cc
# builds it, else in numpy. The classes above run on the fit smo_train picks;
# their *NumpyLoop copies run on _numpy_fit, with its numpy pair loop, where
# the compiled fit is present, so every test above covers each fit present.


@pytest.fixture(autouse=True)
def fit_choice(request, monkeypatch):
    """A class with numpy_loop set runs with no native library loaded."""
    if getattr(request.cls, "numpy_loop", False):
        if _native.library() is None:
            pytest.skip("no compiled fit here: the class above ran on the numpy fit")
        monkeypatch.setattr(_native, "library", lambda: None)


class TestSmoTrainNumpyLoop(TestSmoTrain):
    numpy_loop = True


class TestReferenceEquivalenceNumpyLoop(TestReferenceEquivalence):
    numpy_loop = True


class TestWarmStartNumpyLoop(TestWarmStart):
    numpy_loop = True


class TestBinaryMirrorNumpyLoop(TestBinaryMirror):
    numpy_loop = True


@pytest.fixture
def on_both_fits(monkeypatch):
    """run(train) -> [train() on the compiled fit, train() on _numpy_fit].

    Skips where no compiled fit loads.
    """
    if _native.library() is None:
        pytest.skip("no compiled fit here")

    def run(train):
        compiled = train()
        with monkeypatch.context() as patch:
            patch.setattr(_native, "library", lambda: None)
            return [compiled, train()]

    return run


@pytest.fixture
def smo_library():
    """The native library, with smo_fit among its entries.

    Skips where it does not load.
    """
    if _native.library() is None:
        pytest.skip("no compiled fit here")
    return _native.library()


@pytest.fixture
def choose_anew():
    """Clears _native.library's choice before and after the test, so the test
    chooses under its own patches and no later test runs what they built."""
    _native.library.cache_clear()
    yield
    _native.library.cache_clear()


def _fresh_processes(script, cache, count=1):
    """[(exit code, stdout, stderr)] of count processes that run script at
    once, each after setting _native._CACHE to cache."""
    script = ("import sys; from pathlib import Path; import numpy as np\n"
              "from kweave import _native, kernels, svm\n"
              "_native._CACHE = Path(sys.argv[1])\n" + textwrap.dedent(script))
    env = {**os.environ, "PYTHONPATH": str(Path(svm.__file__).parents[1])}
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(cache)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(count)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    return [(p.returncode, out, err) for p, (out, err) in zip(procs, outs)]


def _non_finite_problems():
    """Grams holding a NaN or an inf entry, on the diagonal or off it."""
    rng = np.random.default_rng(17)
    for t, bad in enumerate([np.nan, np.inf, -np.inf] * 4):
        n = int(rng.integers(3, 25))
        K = _kernel_gram(["linear", "rbf", "poly"][t % 3], rng.normal(size=(n, 2)))
        a, b = (t % n, t % n) if t % 2 else rng.integers(0, n, 2)
        K[a, b] = K[b, a] = bad
        yield K, _signed_labels(rng, n)


class TestPairLoops:
    """The compiled and the numpy fit side by side, and how the compiled fit
    is built and loaded."""

    def test_compiled_fit_refuses_before_writing_anything(self, smo_library):
        # smo_fit must refuse each array fault before its start: had a pair
        # step run, the step count, U or alpha would have been written
        problems = [(K, y, None) for K, y in _non_finite_problems()]
        problems += [(K, y, np.where(np.arange(len(y)) < 2, 0.5, 0.0)) for K, y, _ in problems]
        y = np.array([1.0, -1.0, 1.0, -1.0])
        problems += [(np.eye(4), np.ones(4), None), (np.eye(4), 2 * y, None),
                     (np.eye(4), np.array([1.0, -1.0, 0.5, -1.0]), None),
                     (np.eye(4), y, np.array([0.5, 0.5, np.inf, 0.0])),
                     (np.eye(4), y, np.array([0.5, 0.5, 1.5, 0.0]))]
        for K, y, seed in problems:
            n = len(y)
            alpha = np.zeros(n) if seed is None else seed.copy()
            with np.errstate(all="ignore"):
                Ka = None if seed is None else K @ (alpha * y)
            U = np.full((2, n), 7.0)
            steps, out = ctypes.c_int64(-1), (ctypes.c_double * 3)(7.0, 7.0, 7.0)
            code = smo_library.smo_fit(
                K.ctypes.data, y.ctypes.data, alpha.ctypes.data, U.ctypes.data, n, 1.0,
                1e-3, 20000, svm._TAU, None if Ka is None else Ka.ctypes.data,
                ctypes.byref(steps), out,
            )
            assert code == svm._REFUSED
            assert (steps.value, list(out)) == (-1, [7.0] * 3)
            assert (U == 7.0).all()
            assert alpha.tobytes() == (np.zeros(n) if seed is None else seed).tobytes()

    def test_gram_layout_does_not_change_the_bits(self, on_both_fits):
        # a seeded start's K (a * y) is numpy's GEMV on the Gram as given,
        # whose bits depend on its layout; both fits must run the same one
        rng = np.random.default_rng(37)
        X = rng.normal(size=(133, 5)) * np.exp(rng.normal(size=(133, 1)))
        K, y, C = X @ X.T, _signed_labels(rng, 133), 1.0
        seed = smo_train(K, y, C / 10).alpha
        wide = np.zeros((2 * len(y), 2 * len(y)))
        wide[::2, ::2] = K
        for gram in (K, np.asfortranarray(K), K.T, wide[::2, ::2]):
            for alpha0 in (None, seed):
                compiled, numpy_fit = on_both_fits(partial(smo_train, gram, y, C,
                                                           alpha0=alpha0))
                assert_same_model(compiled, numpy_fit)

    def test_cap_and_stall_warnings_are_word_for_word(self, on_both_fits, caplog):
        K, y, C = _stall_problem()
        K0, y0, C0, _ = random_dual_problem(0)

        def warnings():
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="kweave.svm"):
                smo_train(K, y, C, tol=0.0)
                smo_train(K0, y0, C0, max_iter=2)
            return [(r.levelname, r.getMessage()) for r in caplog.records]

        compiled, numpy_fit = on_both_fits(warnings)
        assert compiled == numpy_fit
        assert ["stalled" in m for _, m in compiled] == [True, False]
        assert "iteration cap (2)" in compiled[1][1]

    def test_bias_over_free_duals_sums_left_to_right(self, on_both_fits):
        # a seed taken at tol = inf makes no pair step, so the bias is the mean
        # of v over exactly the seed's free duals, summed in index order. Rows
        # of very different norms make the order of the sum show: numpy's
        # pairwise sum, which .mean runs, differs at some of these counts
        rng = np.random.default_rng(29)
        n, C = 300, 1.0
        X = rng.normal(size=(n, 4)) * np.exp(3.0 * rng.normal(size=(n, 1)))
        K, y = X @ X.T, _signed_labels(rng, n)
        order_shows = 0
        for count in [*range(1, 10), 16, 64, 127, 128, 129, 136, 200, 255, 256, 257, 300]:
            seed = rng.choice([0.0, C], n)
            seed[rng.permutation(n)[:count]] = rng.uniform(0.1, 0.9, count) * C
            v = -y * (-y * (y - K @ (seed * y)) + 0.0)
            v_free = v[(seed > 1e-8 * C) & (seed < C - 1e-8 * C)]
            left_to_right = float(np.add.accumulate(v_free)[-1] / count) + 0.0
            for model in on_both_fits(partial(smo_train, K, y, C, tol=np.inf, alpha0=seed)):
                assert model.iterations == 0
                assert repr(model.bias) == repr(left_to_right), count
            order_shows += repr(float(v_free.mean())) != repr(left_to_right)
        assert order_shows > 0
        # eight free duals of class +1 whose v is -0.0 (K = y y^T and duals
        # summing to 1, as below) average to +0.0
        y = np.repeat([1.0, -1.0], [8, 4])
        compiled, numpy_fit = on_both_fits(partial(smo_train, np.outer(y, y), y, 1.0,
                                                   tol=np.inf, alpha0=(y > 0) / 8.0))
        assert_same_model(compiled, numpy_fit)
        assert repr(compiled.bias) == "0.0"

    def test_nan_reached_from_a_finite_gram_gives_the_same_bits(self, on_both_fits):
        # a Gram of 1e307 everywhere is finite, but its pair steps overflow
        # to inf and then NaN: in 20 of these 30 problems the duals end NaN
        nan_duals = 0
        for n in range(2, 12):
            y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            for C in (10.0, 100.0, 1000.0):
                with np.errstate(all="ignore"):
                    compiled, numpy_fit = on_both_fits(
                        partial(smo_train, np.full((n, n), 1e307), y, C, max_iter=50))
                assert_same_model(compiled, numpy_fit)
                nan_duals += bool(np.isnan(compiled.alpha).any())
        assert nan_duals == 20

    def test_zero_bias_and_gap_are_positive_zero(self, on_both_fits):
        # K = y y^T and bound duals summing to 1 make every m exactly +0.0, so
        # v is -0.0 on class +1 and +0.0 on class -1. With no free dual the
        # bias is the midpoint of the largest v on the lower bound set and the
        # smallest on the upper, whose sign of zero would follow the zeros a
        # max or min meets, in numpy's SIMD order: both fits give +0.0
        rng = np.random.default_rng(31)
        for n in range(2, 60):
            y = _signed_labels(rng, n)
            C = float(rng.choice([1.0, 0.5, 0.25]))
            seed = np.zeros(n)
            seed[rng.permutation(n)[:round(1 / C)]] = C
            compiled, numpy_fit = on_both_fits(partial(smo_train, np.outer(y, y), y, C,
                                                       tol=np.inf, alpha0=seed))
            assert_same_model(compiled, numpy_fit)
            assert repr(compiled.bias) == "0.0"
        # one pair step puts both duals at C, each in one set with m = 0.0:
        # the exit gap is 0.0 - 0.0 over non-empty sets
        compiled, numpy_fit = on_both_fits(partial(smo_train, np.eye(2), np.array([1.0, -1.0]),
                                                   1.0))
        assert_same_model(compiled, numpy_fit)
        assert (compiled.converged, compiled.iterations) == (True, 1)
        assert compiled.alpha.tolist() == [1.0, 1.0] and repr(compiled.kkt_gap) == "0.0"

    def test_compiler_on_path_loads_the_compiled_loop(self, monkeypatch, tmp_path, choose_anew):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setattr(_native, "_CACHE", tmp_path)
        assert _native.library() is not None
        lib = _native._library_path(_native._SOURCE.read_bytes())
        assert [p.name for p in tmp_path.iterdir()] == [lib.name]
        # one library holds every compiled loop, the kernels' too
        assert all(getattr(_native.library(), name).argtypes for name in _native._SIGNATURES)

    def test_failed_build_falls_back_to_numpy_and_says_why(self, monkeypatch, tmp_path, caplog,
                                                           choose_anew):
        # cc refuses an unknown flag; with no cc on PATH, starting it fails
        monkeypatch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, "--no-such-flag"))
        monkeypatch.setattr(_native, "_CACHE", tmp_path)
        K, y, C, _ = random_dual_problem(1)
        with caplog.at_level(logging.INFO, logger="kweave._native"):
            model = smo_train(K, y, C)
            X = np.random.default_rng(1).normal(size=(7, 2))
            bank, _ = center_bank(build_kernel_bank(X, "uci_full"), np.triu_indices(7))
            combined = combine(bank, np.arange(bank.p) % 2)
        assert _native.library() is None
        assert list(tmp_path.iterdir()) == []  # no library and no temp file
        assert_same_model(model, _reference_smo(K, y, C))
        expected = np.zeros((7, 7))
        for l in range(1, bank.p, 2):
            expected += bank.gram(l)
        assert combined.tobytes() == expected.tobytes()
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("native library: unavailable, the numpy code runs (")
        if shutil.which("cc") is not None:
            assert "cc exited with status 1" in message and "--no-such-flag" in message

    def test_cache_name_covers_source_bytes_and_flags(self, monkeypatch, choose_anew):
        names = {_native._library_path(b"int x;"), _native._library_path(b"int y;")}
        monkeypatch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, "-ffast-math"))
        names.add(_native._library_path(b"int x;"))
        assert len(names) == 3
        assert all(p.parent == _native._CACHE and p.suffix == ".so" for p in names)

    def test_two_processes_build_into_an_empty_cache(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        runs = _fresh_processes("""
            svm.smo_train(np.eye(2), np.array([1.0, -1.0]), 1.0)
            print(_native.library() is not None)
        """, tmp_path, count=2)
        assert [(code, out.strip()) for code, out, _ in runs] == [(0, "True"), (0, "True")], runs
        # one library, and no temp file left behind
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
        # a later process finds it there and loads it without running cc
        [(code, out, err)] = _fresh_processes("""
            def no_build(source, lib):
                raise AssertionError("cc ran")
            _native._build = no_build
            print(_native.library() is not None)
        """, tmp_path)
        assert (code, out.strip()) == (0, "True"), err

    def test_a_process_chooses_its_loop_once(self, tmp_path):
        # with or without cc, the first compiled loop a process reaches (here
        # center_bank's) tries one build into the empty cache and logs the
        # choice; the fits and combine after it reuse that choice
        [(code, out, err)] = _fresh_processes("""
            import logging
            logging.basicConfig(level=logging.INFO, format="%(message)s")
            builds, build = [], _native._build
            def counting_build(source, lib):
                builds.append(lib)
                build(source, lib)
            _native._build = counting_build
            X = np.random.default_rng(0).normal(size=(6, 2))
            bank, _ = kernels.center_bank(kernels.build_kernel_bank(X, "uci_full"),
                                          np.triu_indices(6))
            for _ in range(2):
                kernels.combine(bank, np.ones(bank.p))
                svm.smo_train(np.eye(2), np.array([1.0, -1.0]), 1.0)
            print(len(builds))
        """, tmp_path)
        assert (code, out.strip()) == (0, "1"), err
        assert [line.startswith("native library:") for line in err.splitlines()] == [True], err


# ---------------------------------------------------------------------------
# reference for select_C: the fold-major walk it replaced. Each fold walks the
# grid's distinct C values in ascending order from its own seed; records follow
# the caller's grid order, every fit counts toward its C's score, capped or not,
# and ties go to the smaller C. On a strictly ascending grid the C-major walk
# must give the same records bit for bit.


def _reference_select_C(gram, labels, folds, grid=DEFAULT_C_GRID):
    grid = [float(c) for c in grid]
    K = np.asarray(gram, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    c = int(labels.max()) + 1

    ascending = sorted(set(grid))
    accs: dict = {C: [] for C in ascending}
    steps = dict.fromkeys(ascending, 0)
    capped = dict.fromkeys(ascending, 0)
    for plan in folds:
        tr, te = plan.train_indices, plan.test_indices
        train_K, train_y = K[np.ix_(tr, tr)], labels[tr]
        cross_K, test_y = K[np.ix_(te, tr)], labels[te]
        seed = None
        for C in ascending:
            try:
                ovr = svm.ovr_train(train_K, train_y, C, n_classes=c, alpha0=seed)
            except ValueError:
                continue
            seed = [mdl.alpha for mdl in ovr.models]
            steps[C] += sum(mdl.iterations for mdl in ovr.models)
            capped[C] += sum(not mdl.converged for mdl in ovr.models)
            accs[C].append(float(np.mean(ovr.predict(cross_K) == test_y)))

    cv = [float(np.mean(accs[C])) if accs[C] else None for C in grid]
    records = [
        {"C": Cv, "cv_accuracy": acc, "smo_iterations": steps[Cv], "nonconverged": capped[Cv]}
        for Cv, acc in zip(grid, cv)
    ]
    scored = [(Cv, acc) for Cv, acc in zip(grid, cv) if acc is not None]
    best_acc = max(acc for _, acc in scored)
    return min(Cv for Cv, acc in scored if acc == best_acc), records


def _select_C_problems(kind):
    """(Gram, labels, folds): binary, three classes, and three classes whose
    third has one row, so the fold that tests it trains without it. The
    linear Gram gets a unit ridge: at rank 3 its fits at C >= 100 cap."""
    rng = np.random.default_rng(10 + len(kind))
    binary = np.repeat([0, 1], 18)
    three = np.repeat([0, 1, 2], 12)
    lone = np.where(np.arange(36) == 30, 2, np.minimum(np.arange(36) // 15, 1))
    problems = []
    for y in (binary, three, lone):
        X = rng.normal(size=(36, 3))
        X[:, 0] += 2.0 * y
        K = _kernel_gram(kind, X) + (np.eye(36) if kind == "linear" else 0.0)
        problems.append((K, y, kfold_plan(36, 4, seed=int(rng.integers(100)))))
    return problems


class TestSelectC:
    @pytest.mark.parametrize("grid", [DEFAULT_C_GRID, (0.1, 10.0, 1000.0)])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_c_major_walk_matches_fold_major_reference(self, kind, grid, caplog):
        for K, y, folds in _select_C_problems(kind):
            best, records = select_C(K, y, folds, grid=grid)
            ref_best, ref_records = _reference_select_C(K, y, folds, grid=grid)
            assert repr(records) == repr(ref_records)
            # the reference ignores caps; with none, both rules choose alike
            assert all(r["nonconverged"] == 0 for r in records)
            assert repr(best) == repr(ref_best)
        # the lone third-class row leaves one fold's train side without it
        assert any("class 2 absent" in r.getMessage() for r in caplog.records)

    def test_singleton_grid(self):
        K, y = overlapping_gram()
        best, records = select_C(K, y, kfold_plan(40, 4, seed=3), grid=[0.5])
        assert best == 0.5
        assert len(records) == 1

    def test_membership_and_records(self):
        K, y = overlapping_gram()
        best, records = select_C(K, y, kfold_plan(40, 4, seed=3))
        assert best in DEFAULT_C_GRID
        assert [r["C"] for r in records] == list(DEFAULT_C_GRID)
        accs = [r["cv_accuracy"] for r in records]
        assert all(a is not None for a in accs)
        # argmax contract with ties toward the smaller C
        top = max(accs)
        assert best == min(c for c, a in zip(DEFAULT_C_GRID, accs) if a == top)
        assert top > min(accs)  # the grid actually discriminates here

    def test_separable_prefers_smallest_perfect_C(self):
        rng = np.random.default_rng(5)
        n = 24
        y = np.repeat([0, 1], n // 2)
        X = rng.normal(0.0, 1.0, (n, 3))
        X[:, 0] += 6.0 * y
        bank, _ = center_bank(build_kernel_bank(X, "uci_full"), np.triu_indices(n))
        K = combine(bank, np.full(bank.p, 1.0 / bank.p))
        best, records = select_C(K, y, kfold_plan(n, 4, seed=2))
        by_C = {r["C"]: r["cv_accuracy"] for r in records}
        for C in (1.0, 10.0, 100.0, 1000.0):
            assert by_C[C] == 1.0
        assert best == min(c for c, a in by_C.items() if a == 1.0)

    def test_grid_not_strictly_ascending_refused(self):
        K, y = overlapping_gram()
        folds = kfold_plan(40, 4, seed=3)
        for grid in ([10.0, 1.0], [1.0, 1.0], [0.01, 1.0, 0.1]):
            with pytest.raises(ValueError, match="C grid must be strictly ascending"):
                select_C(K, y, folds, grid=grid)

    @pytest.mark.parametrize("grid", [[-1.0, 1.0], [0.0, 1.0], [1.0, float("inf")],
                                      [float("-inf"), 1.0], [1.0, float("nan")]])
    def test_grid_with_a_C_no_fit_takes_refused(self, monkeypatch, grid):
        # no fold could fit such a C: each would be skipped with a warning, and another C win
        K, y = overlapping_gram()
        fits = []
        monkeypatch.setattr(svm, "smo_train", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match="C grid entries must be positive and finite"):
            select_C(K, y, kfold_plan(40, 4, seed=3), grid=grid)
        assert fits == []

    def test_ties_go_to_smaller_C(self):
        K, y = separable_linear_gram()
        best, records = select_C(K, y, kfold_plan(24, 4, seed=2), grid=[1.0, 10.0, 100.0, 1000.0])
        perfect = [r["C"] for r in records if r["cv_accuracy"] == 1.0]
        assert len(perfect) > 1
        assert best == min(perfect)

    def test_capped_large_C_gives_way_to_best_converged_C(self, monkeypatch):
        K, y = overlapping_gram(seed=0, gamma=0.1)
        folds = kfold_plan(40, 4, seed=3)
        assert select_C(K, y, folds)[0] >= 100.0  # a large C wins while every fit converges
        cap_fits(monkeypatch, 100.0)
        best, records = select_C(K, y, folds)
        assert [r["nonconverged"] > 0 for r in records] == [C >= 100.0 for C in DEFAULT_C_GRID]
        converged = [r for r in records if r["nonconverged"] == 0]
        top = max(r["cv_accuracy"] for r in converged)
        assert best == min(r["C"] for r in converged if r["cv_accuracy"] == top)

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_every_C_capped_chooses_as_before(self, monkeypatch, seed):
        K, y = overlapping_gram(seed=seed, gamma=0.1)
        folds = kfold_plan(40, 4, seed=3)
        cap_fits(monkeypatch, 0.0)
        best, records = select_C(K, y, folds)
        assert all(r["nonconverged"] > 0 for r in records)
        assert (best, records) == _reference_select_C(K, y, folds)

    def test_records_sum_pair_steps_over_folds_and_classes(self, monkeypatch):
        K, y = overlapping_gram()
        steps: dict = {}
        real = svm.smo_train

        def counting(gram, yk, C, **kwargs):
            model = real(gram, yk, C, **kwargs)
            steps[C] = steps.get(C, 0) + model.iterations
            return model

        monkeypatch.setattr(svm, "smo_train", counting)
        _, records = select_C(K, y, kfold_plan(40, 4, seed=3))
        assert {r["C"]: r["smo_iterations"] for r in records} == steps
        assert sum(steps.values()) > 0

    def test_records_count_capped_fits_per_C(self, monkeypatch):
        K, y = overlapping_gram()
        folds = kfold_plan(40, 4, seed=3)
        _, clean = select_C(K, y, folds)
        cap_fits(monkeypatch, 1.0)
        _, records = select_C(K, y, folds)
        counts = {r["C"]: r["nonconverged"] for r in records}
        clean_counts = {r["C"]: r["nonconverged"] for r in clean}
        assert clean_counts[1.0] == 0
        assert counts[1.0] == 4 * 2  # every fold, both classes
        # the smaller C run before the capped ones and are untouched by them
        assert [counts[C] for C in (0.01, 0.1)] == [clean_counts[C] for C in (0.01, 0.1)] == [0, 0]

    def test_empty_grid(self):
        K, y = overlapping_gram()
        with pytest.raises(ValueError, match="grid"):
            select_C(K, y, kfold_plan(40, 4, seed=3), grid=[])

    def test_fold_without_class_skipped(self, caplog):
        # leave-one-out style folds: the fold holding the lone class-1
        # point trains single-class and must be skipped, not fatal
        K = np.eye(5) + 0.5
        labels = np.array([0, 0, 0, 0, 1])
        with caplog.at_level(logging.WARNING, logger="kweave.svm"):
            best, records = select_C(K, labels, kfold_plan(5, 5, seed=0), grid=[1.0])
        assert best == 1.0
        assert records[0]["cv_accuracy"] is not None
        assert any("skipped" in r.getMessage() for r in caplog.records)

    def test_all_folds_failing_is_error(self):
        K = np.eye(2)
        labels = np.array([0, 1])
        with pytest.raises(RuntimeError, match="every C"):
            select_C(K, labels, kfold_plan(2, 2, seed=0), grid=[1.0, 10.0])


class TestSerialization:
    def test_round_trip_dense_alpha(self):
        K, y, C, _ = random_dual_problem(4)
        mdl = smo_train(K, y, C)
        d = mdl.to_dict()
        dense = np.zeros(len(y))
        for idx, val in d["alpha"]:
            dense[idx] = val
        np.testing.assert_array_equal(dense, mdl.alpha)
        assert d["C"] == C
        assert d["converged"] is True
        assert d["signed_labels"] == [int(v) for v in y]

    def test_nonconverged_flag_preserved(self):
        K, y, C, _ = random_dual_problem(0)
        mdl = smo_train(K, y, C, max_iter=1)
        assert smo_train(K, y, C, max_iter=1).to_dict()["converged"] is False
        assert mdl.to_dict()["converged"] is False


class TestFit:
    def test_capped_final_fit_is_kept(self, monkeypatch):
        models = force_nonconvergence(monkeypatch)
        K, labels = averaged_gram()
        folds = kfold_plan(len(labels), 3, seed=2)
        best_C, _, ovr = fit(K, labels, folds, grid=[0.1, 1.0])
        # CV fits every class on every fold at every C; then one final fit per class
        assert len(models) == 3 * 2 * 2 + 2
        assert ovr.models[0] is models[-2] and ovr.models[1] is models[-1]
        assert all(not m.converged and m.C == best_C for m in ovr.models)


class TestSymmetricGram:
    """smo_train reads row i of its Gram as column i, so every Gram the
    program trains on must be exactly symmetric where it is made: combine
    and gram(l) scatter each pair's one value to (i, j) and (j, i), and
    select_C takes principal blocks of that."""

    @pytest.fixture
    def symmetric(self, monkeypatch):
        """K == K.T, once per smo_train call from here on."""
        real, flags = svm.smo_train, []

        def recording(gram, y, C, **kwargs):
            flags.append(bool(np.array_equal(gram, gram.T)))
            return real(gram, y, C, **kwargs)

        monkeypatch.setattr(svm, "smo_train", recording)
        return flags

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("recipe", ["uci_full", "uci_full_plus_per_feature"])
    def test_every_method_trains_on_symmetric_grams(self, symmetric, recipe, n_classes):
        data = make_blobs(n_per_class=10, d=3, seed=5, n_classes=n_classes)
        for method in METHODS:
            config = ExperimentConfig(
                dataset_path="blobs.csv",  # unread: the dataset is passed in
                method=method, kernel_recipe=recipe, n_splits=1, mkl_num_steps=50,
                lambda_grid=[1.0, 0.0625], c_grid=[1.0], output_dir="unused",
            )
            assert "error" not in run_experiment(config, dataset=data).per_split[0]
        assert symmetric and all(symmetric)

    def test_sweep_and_cli_train_on_symmetric_grams(self, symmetric, tmp_path):
        config = ExperimentConfig(
            dataset_path=write_toy_csv(tmp_path / "toy.csv"), method="tsmkl",
            mkl_num_steps=50, lambda_grid=[1.0, 0.0625], output_dir="unused",
        )
        run_lambda_sweep(config)
        sweep_calls = len(symmetric)
        out = str(tmp_path / "model.json")
        assert cli.main(["svm", "train", "--data", config.dataset_path, "--out", out]) == 0
        assert 0 < sweep_calls < len(symmetric) and all(symmetric)

    def test_seeded_fit_holds_no_copy_of_its_gram(self):
        K, labels = overlapping_gram(n=300)
        y = np.where(labels == 1, 1.0, -1.0)
        seed = smo_train(K, y, 0.1).alpha
        tracemalloc.start()
        try:
            model = smo_train(K, y, 1.0, alpha0=seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.converged and model.iterations > 0
        assert peak < K.nbytes / 4
