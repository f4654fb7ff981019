"""Comparison kernel-weighting methods: target alignment, uniform, best single.

Target alignment maximizes the normalized Frobenius inner product between
the combined Gram and the ideal label Gram,

    max_{mu >= 0, ||mu||_2 = 1}  mu^T a / sqrt(mu^T M mu),

with M[k,l] = <K_k, K_l>_F and a[l] = <K_l, T>_F. For two classes T is the
outer product of signed labels; with more classes T keeps the same +-1
same-class/different-class structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import KernelBank
from .svm import DEFAULT_C_GRID, select_C

logger = logging.getLogger(__name__)


@dataclass
class AlignmentProblem:
    """The quadratic data of the alignment objective over explicit (M, a)."""

    M: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        p = self.a.shape[0]
        if p < 1 or self.M.shape != (p, p):
            raise ValueError("M must be p x p matching a, p >= 1")
        scale = max(1.0, float(np.abs(self.M).max()))
        if np.abs(self.M - self.M.T).max() > 1e-8 * scale:
            raise ValueError("M must be symmetric")
        self.M = (self.M + self.M.T) / 2.0

    @property
    def p(self) -> int:
        return self.a.shape[0]

    def objective(self, mu: np.ndarray) -> float:
        quad = float(mu @ self.M @ mu)
        if quad <= 0.0:
            return -np.inf
        return float(mu @ self.a) / np.sqrt(quad)


def alignment_problem_from_bank(bank: KernelBank, train_labels) -> AlignmentProblem:
    """(M, a) as Frobenius products over the dense Grams, rebuilt from Z.

    The dense (p, n^2) array lives only for this call. The same sums taken
    in pair space (2 Z^T Z minus the diagonal pairs' share) agree to about
    1e-15 relative, but maximize_alignment amplifies that rounding: on
    small synthetic banks it moved mu by up to 1e-2. So the products keep
    the summation order of the dense layout.
    """
    labels = np.asarray(train_labels)
    n = bank.n
    if labels.shape != (n,):
        raise ValueError("labels do not match bank dimension")
    flat = np.empty((bank.p, n * n), dtype=np.float64)
    for l in range(bank.p):
        flat[l] = bank.gram(l).ravel()
    target = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
    return AlignmentProblem(M=flat @ flat.T, a=flat @ target.ravel())


def maximize_alignment(
    problem: AlignmentProblem,
    restarts: int = 10,
    steps: int = 500,
    seed: int = 0,
):
    """Projected gradient ascent with unit-sphere renormalization.

    Returns (mu, objective) for the best iterate over all restarts, or
    (None, best) when no restart found a positive objective.
    """
    M, a, p = problem.M, problem.a, problem.p
    rng = np.random.default_rng(seed)
    best_mu, best_obj = None, -np.inf
    for _ in range(restarts):
        mu = rng.random(p)
        nrm = np.linalg.norm(mu)
        if nrm <= 0.0:
            continue
        mu /= nrm
        obj = problem.objective(mu)
        if obj > best_obj:
            best_mu, best_obj = mu.copy(), obj
        eta = 1.0
        for _ in range(steps):
            quad = float(mu @ M @ mu)
            if quad <= 0.0:
                break
            s = np.sqrt(quad)
            grad = a / s - (float(mu @ a) / (s * quad)) * (M @ mu)
            cand = np.maximum(mu + eta * grad, 0.0)
            nrm = np.linalg.norm(cand)
            if nrm <= 0.0:
                eta *= 0.5
                continue
            cand /= nrm
            cobj = problem.objective(cand)
            # accept only ascent steps; otherwise shrink the step and retry
            if cobj > obj:
                mu, obj = cand, cobj
                eta *= 1.2
                if obj > best_obj:
                    best_mu, best_obj = mu.copy(), obj
            else:
                eta *= 0.5
    if best_obj <= 0.0:
        return None, best_obj
    return best_mu, best_obj


def target_align(
    bank: KernelBank,
    train_labels,
    restarts: int = 10,
    steps: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """Kernel weights maximizing alignment with the label Gram.

    Falls back to uniform weights (with a warning) when no direction has
    positive alignment, which needs every a[l] <= 0.
    """
    labels = np.asarray(train_labels)
    if np.unique(labels).size < 2:
        raise ValueError("need at least two classes for target alignment")
    problem = alignment_problem_from_bank(bank, labels)
    mu, obj = maximize_alignment(problem, restarts=restarts, steps=steps, seed=seed)
    if mu is None:
        logger.warning(
            "no positively aligned direction (best objective %g); using uniform weights",
            obj,
        )
        return uniform_weights(bank.p)
    return mu / np.linalg.norm(mu)


def uniform_weights(p: int) -> np.ndarray:
    if p < 1:
        raise ValueError("p must be at least 1")
    return np.full(p, 1.0 / p)


def best_kernel(
    bank: KernelBank,
    train_labels,
    folds,
    c_grid=DEFAULT_C_GRID,
    n_classes: int | None = None,
):
    """Single kernel with the best CV accuracy (C selected per kernel).

    Returns (index, one-hot weights). Kernels whose CV fails entirely are
    skipped with a warning; ties go to the lower index.
    """
    labels = np.asarray(train_labels, dtype=np.int64)

    def score_one(gram):
        try:
            _, records = select_C(gram, labels, folds, grid=c_grid, n_classes=n_classes)
        except RuntimeError as exc:
            return None, str(exc)
        accs = [r["cv_accuracy"] for r in records if r["cv_accuracy"] is not None]
        return max(accs), None

    results = [score_one(bank.gram(l)) for l in range(bank.p)]
    best_idx, best_acc = None, -np.inf
    for idx, (acc, err) in enumerate(results):
        if acc is None:
            logger.warning("kernel %d skipped during selection: %s", idx, err)
            continue
        if acc > best_acc:
            best_idx, best_acc = idx, acc
    if best_idx is None:
        raise RuntimeError("every kernel failed cross-validation")
    mu = np.zeros(bank.p)
    mu[best_idx] = 1.0
    return best_idx, mu
