"""Shared fixtures: synthetic datasets, centered banks, and benchmark gating."""

from pathlib import Path

import numpy as np
import pytest

import kweave.svm as svm
from kweave.data import Dataset, load_dataset
from kweave.kernels import (
    CenterStats,
    DegenerateKernelError,
    KernelBank,
    KernelError,
    KernelSpec,
    _scoped,
    build_kernel_bank,
    center_bank,
    compute_cross_gram,
    scope_products,
)
from kweave.kspace import KExampleSet

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def make_blobs(n_per_class=20, d=5, gap=2.0, seed=0, n_classes=2) -> Dataset:
    """Gaussian class blobs along the first axis; linearly separable for gap >~ 3."""
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for c in range(n_classes):
        X = rng.normal(0.0, 1.0, (n_per_class, d))
        X[:, 0] += gap * c
        parts.append(X)
        labels.extend([c] * n_per_class)
    X = np.vstack(parts)
    return Dataset(
        instances=X,
        labels=np.array(labels),
        class_names=tuple(f"c{c}" for c in range(n_classes)),
    )


def overlapping_gram(seed=7, n=40, gamma=1.0):
    """1-d overlapping classes under an RBF of width gamma: C genuinely
    changes CV accuracy here."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    x = np.where(y == 0, 0.0, 1.2) + rng.normal(0.0, 1.0, n)
    K = np.exp(-gamma * (x[:, None] - x[None, :]) ** 2)
    return K, y


def cap_fits(monkeypatch, from_C):
    """Stop every SMO fit at C >= from_C after one pair step (max_iter=1)."""
    real = svm.smo_train

    def capped(gram, y, C, **kwargs):
        if C >= from_C:
            kwargs["max_iter"] = 1
        return real(gram, y, C, **kwargs)

    monkeypatch.setattr(svm, "smo_train", capped)


def force_nonconvergence(monkeypatch):
    """Make every SMO fit report non-convergence.

    Returns the list of models, one per smo_train call.
    """
    real = svm.smo_train
    models = []

    def unconverged(gram, y, C, **kwargs):
        model = real(gram, y, C, **kwargs)
        model.converged = False
        models.append(model)
        return model

    monkeypatch.setattr(svm, "smo_train", unconverged)
    return models


def centered_bank_for(dataset: Dataset, recipe: str = "uci_full"):
    bank, _ = center_bank(build_kernel_bank(dataset.instances, recipe),
                          np.triu_indices(len(dataset.instances)))
    return bank


def bank_of(grams) -> KernelBank:
    """A centered bank of linear-kernel specs whose kernels are exactly the given Grams.

    Each Gram is symmetrized as (G + G^T)/2 and its upper triangle becomes
    one column of Z, its rows the pairs of np.triu_indices(n) in that order,
    which the bank records; the centering statistics are the identity (zero
    means, unit scale). No feature evaluates these Grams, so the bank's
    features are n rows of no column.
    """
    grams = [np.asarray(G, dtype=np.float64) for G in grams]
    n = grams[0].shape[0]
    ii, jj = np.triu_indices(n)
    Z = np.stack([((G + G.T) / 2.0)[ii, jj] for G in grams], axis=1)
    stats = [CenterStats(row_means=np.zeros(n), grand_mean=0.0, scale=1.0) for _ in grams]
    return KernelBank(specs=[KernelSpec("linear")] * len(grams), features=np.empty((n, 0)),
                      Z=Z, stats=stats, pairs=(ii, jj))


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Raw A x B block of one base kernel, evaluated on its own: its scope's
    products are made for this spec alone."""
    _, dots, sq = next(scope_products([spec], A, B))
    return compute_cross_gram(spec, dots, sq)


def compute_gram(spec: KernelSpec, train_features) -> np.ndarray:
    """Raw Gram of one base kernel over the training instances, evaluated on its own."""
    if not np.all(np.isfinite(_scoped(train_features, spec))):
        raise KernelError("non-finite feature values")
    return cross_gram(spec, train_features, train_features)


def center_standardize_fit(gram):
    """Reference centering of one raw Gram, written out without the program's
    code: C = (K - (r_i + r_j) + g) / s with K symmetrized as (K + K^T)/2, r its
    row means, g = mean(r) and s = mean(diag K - 2r) + g, so C has zero row
    sums and trace/n = 1. Returns C and CenterStats(r, g, s); raises
    DegenerateKernelError where s <= 1e-12 (a constant feature map)."""
    K = np.asarray(gram, dtype=np.float64)
    K = (K + K.T) / 2.0
    r = K.mean(axis=1)
    g = float(r.mean())
    s = float(np.mean(np.diag(K) - 2.0 * r)) + g
    if s <= 1e-12:
        raise DegenerateKernelError(f"centered trace/n = {s:g}")
    C = (K - (r[:, None] + r[None, :]) + g) / s
    return C, CenterStats(row_means=r, grand_mean=g, scale=s)


def dual_objective(gram, model: svm.SvmModel) -> float:
    """e^T a - 1/2 a^T Q a for a trained model (maximization convention)."""
    K = np.asarray(gram, dtype=np.float64)
    ay = model.alpha * model.signed_labels
    return float(model.alpha.sum() - 0.5 * ay @ K @ ay)


def decision_values(model: svm.SvmModel, cross) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x, x_i) + bias of one binary model, per test row."""
    return svm.OvrModel([model]).decision_matrix(cross)[:, 0]


def alignment_grid_max(M, a, n_grid=200):
    """Dense-grid maximum of mu.a / sqrt(mu' M mu) over the nonneg unit sphere.

    Brute-force oracle for p <= 3, independent of the QP solver: p = 2 walks
    one angle over the quarter circle, p = 3 walks two angles over the octant.
    Returns (best value, best direction).
    """
    M = np.asarray(M, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    p = a.shape[0]
    if p == 1:
        U = np.ones((1, 1))
    elif p == 2:
        theta = np.linspace(0.0, np.pi / 2, n_grid)
        U = np.stack([np.cos(theta), np.sin(theta)])
    elif p == 3:
        theta = np.linspace(0.0, np.pi / 2, n_grid)
        phi = np.linspace(0.0, np.pi / 2, n_grid)
        T, P = np.meshgrid(theta, phi, indexing="ij")
        U = np.stack(
            [
                (np.sin(P) * np.cos(T)).ravel(),
                (np.sin(P) * np.sin(T)).ravel(),
                np.cos(P).ravel(),
            ]
        )
    else:
        raise ValueError("grid oracle only handles p <= 3")
    num = a @ U
    quad = np.einsum("ij,ij->j", U, M @ U)
    vals = np.where(quad > 0.0, num / np.sqrt(np.maximum(quad, 1e-300)), -np.inf)
    k = int(vals.argmax())
    return float(vals[k]), U[:, k]


def alignment_value(M, a, mu) -> float:
    """The alignment objective mu.a / sqrt(mu' M mu), -inf when mu' M mu <= 0."""
    quad = float(mu @ M @ mu)
    if quad <= 0.0:
        return -np.inf
    return float(mu @ a) / np.sqrt(quad)


def synth_kset(Z, t) -> KExampleSet:
    """A K-example set whose stack is exactly Z, for solver tests."""
    return KExampleSet(t, np.ascontiguousarray(Z, dtype=np.float64))


@pytest.fixture
def toy_dataset() -> Dataset:
    return make_blobs(n_per_class=20, d=5, gap=2.0, seed=0)


@pytest.fixture
def toy_bank(toy_dataset):
    return centered_bank_for(toy_dataset)


def _benchmark(name: str) -> Dataset:
    path = DATA_DIR / f"{name}.csv"
    if not path.exists():
        pytest.skip(f"{path} not present; run scripts/fetch_uci.py to download it")
    return load_dataset(str(path), "csv")


@pytest.fixture(scope="session")
def sonar_dataset() -> Dataset:
    return _benchmark("sonar")


@pytest.fixture(scope="session")
def pima_dataset() -> Dataset:
    return _benchmark("pima")
