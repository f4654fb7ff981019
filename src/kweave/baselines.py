"""Comparison kernel-weighting methods: target alignment, uniform, best single.

Target alignment maximizes the normalized Frobenius inner product between
the combined Gram and the ideal label Gram,

    max_{mu >= 0, ||mu||_2 = 1}  mu^T a / sqrt(mu^T M mu),

with M[k,l] = <K_k, K_l>_F and a[l] = <K_l, T>_F, where T[i,j] is +1 when
instances i and j share a class and -1 otherwise (for any number of
classes). Cortes, Mohri & Rostamizadeh (JMLR 13, 2012) reduce it to the
convex QP

    min_{v >= 0}  v^T M v - 2 v^T a,   mu* = v* / ||v*||,

which maximize_alignment(M, a) solves exactly on the float64 arrays M
and a, returning mu*. In K-space terms the QP is non-negative least
squares of the pair labels t on the pair rows of the bank's store Z: a
symmetric Gram holds each pair i < j twice and each diagonal pair once,
so with pair weights w = 2 off the diagonal and 1 on it,
M = Z^T diag(w) Z = 2 Z^T Z - Z_d^T Z_d (Z_d the diagonal-pair rows) and
a = Z^T (w * t). No dense Gram is built, nor a float64 copy of Z.
"""

from __future__ import annotations

import logging

import numpy as np

from .kernels import KernelBank
from .svm import DEFAULT_C_GRID, select_C

logger = logging.getLogger(__name__)

# KKT tolerance of the alignment QP, relative to max |a|
_ALIGN_KKT_TOL = 1e-9
# elements of Z upcast to float64 per row block (1 MB) when (M, a) is built
_ALIGN_BLOCK_ELEMS = 1 << 17


def alignment_problem_from_bank(bank: KernelBank, train_labels):
    """The arrays (M, a), as pair-weighted sums over the rows of bank.Z (module
    docstring). M is exactly symmetric: each of its terms is a product B^T B."""
    labels = np.asarray(train_labels)
    if labels.shape != (bank.n,):
        raise ValueError("labels do not match bank dimension")
    ii, jj = bank.pairs
    diag = ii == jj
    wt = np.where(labels[ii] == labels[jj], 2.0, -2.0)
    wt[diag] /= 2.0
    ZtZ, a = _gram_and_moment(bank.Z, wt)
    Zd = bank.Z[diag].astype(np.float64)
    return 2.0 * ZtZ - Zd.T @ Zd, a


def _gram_and_moment(Z: np.ndarray, v: np.ndarray):
    """(Z^T Z, Z^T v) summed in float64 over blocks of Z's rows, each upcast
    exactly into one reused buffer of at least p rows and about
    _ALIGN_BLOCK_ELEMS elements."""
    m, p = Z.shape
    step = max(p, _ALIGN_BLOCK_ELEMS // p)
    buf = np.empty((min(step, m), p))
    ZtZ, prod, Ztv = np.zeros((p, p)), np.empty((p, p)), np.zeros(p)
    for start in range(0, m, step):
        B = buf[: min(step, m - start)]
        B[...] = Z[start : start + step]
        ZtZ += np.matmul(B.T, B, out=prod)
        Ztv += v[start : start + step] @ B
    return ZtZ, Ztv


def maximize_alignment(M: np.ndarray, a: np.ndarray):
    """Exact maximizer through the QP min_{v >= 0} v^T M v - 2 v^T a.

    Lawson-Hanson active set: free the bound coordinate with the largest
    a - Mv, solve M s = a on the free set, and while s has a negative free
    entry, step from v toward s until the first free entry reaches 0,
    set it to exactly 0 and bind it. Returns the unit-norm weights
    mu = v* / ||v*||, or None when v* = 0, which holds exactly when every
    a[l] <= 0: then no direction aligns positively. Raises RuntimeError
    when the loop bound is reached or the result fails KKT.
    """
    p = a.shape[0]
    tol = _ALIGN_KKT_TOL * float(np.abs(a).max())
    v = np.zeros(p)
    free = np.zeros(p, dtype=bool)
    for _ in range(3 * p):
        resid = np.where(free, -np.inf, a - M @ v)
        j = int(np.argmax(resid))
        if resid[j] <= tol:
            break
        free[j] = True
        while True:
            s = np.zeros(p)
            s[free] = np.linalg.solve(M[np.ix_(free, free)], a[free])
            blocked = np.flatnonzero(free & (s < 0.0))
            if blocked.size == 0:
                break
            steps = v[blocked] / (v[blocked] - s[blocked])
            k = int(np.argmin(steps))
            v += steps[k] * (s - v)
            v[blocked[k]] = 0.0
            free &= v > 0.0
        v = s
    resid = a - M @ v
    if np.any(v < 0.0) or resid.max() > tol or np.any(np.abs(resid[v > 0.0]) > tol):
        raise RuntimeError("alignment QP failed its KKT conditions")
    if not np.any(v > 0.0):
        return None
    return v / np.linalg.norm(v)


def target_align(bank: KernelBank, train_labels) -> np.ndarray:
    """Unit-norm kernel weights maximizing alignment with the label Gram.

    Falls back to uniform weights (with a warning) when no direction has
    positive alignment, which needs every a[l] <= 0.
    """
    labels = np.asarray(train_labels)
    if np.unique(labels).size < 2:
        raise ValueError("need at least two classes for target alignment")
    M, a = alignment_problem_from_bank(bank, labels)
    mu = maximize_alignment(M, a)
    if mu is None:
        logger.warning(
            "no positively aligned direction (max a[l] = %g); using uniform weights", a.max()
        )
        return uniform_weights(bank.p)
    return mu


def uniform_weights(p: int) -> np.ndarray:
    if p < 1:
        raise ValueError("p must be at least 1")
    return np.ones(p) / p


def best_kernel(bank: KernelBank, train_labels, folds, c_grid=DEFAULT_C_GRID):
    """Single kernel with the best CV accuracy at the C select_C chose for it.

    Returns (index, one-hot weights). Kernels whose CV fails entirely are
    skipped with a warning; ties go to the lower index.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    best_idx, best_acc = None, -np.inf
    for idx in range(bank.p):
        try:
            C, records = select_C(bank.gram(idx), labels, folds, grid=c_grid)
        except RuntimeError as exc:
            logger.warning("kernel %d skipped during selection: %s", idx, exc)
            continue
        acc = next(r["cv_accuracy"] for r in records if r["C"] == C)
        if acc > best_acc:
            best_idx, best_acc = idx, acc
    if best_idx is None:
        raise RuntimeError("every kernel failed cross-validation")
    mu = np.zeros(bank.p)
    mu[best_idx] = 1.0
    return best_idx, mu
