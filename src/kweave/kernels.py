"""Base-kernel evaluation, Gram construction, centering, and combination.

A Gram matrix can be in one of two states:

  raw                    -- plain kernel evaluations k(x_i, x_j)
  centered_standardized  -- double-centered (zero feature-space mean) and
                            scaled so trace/n = 1 (unit average feature-space
                            variance).

Centering statistics are recorded at fit time on the training Gram and are
reused to transform test-vs-train cross blocks consistently.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

RAW = "raw"
CENTERED = "centered_standardized"

_GAUSSIAN_GAMMAS = [2.0**k for k in range(-10, -1)]  # 2^-10 .. 2^-2
_POLY_DEGREES = [2, 3, 4]
RECIPES = ("uci_full", "uci_full_plus_per_feature")


class KernelError(ValueError):
    """Invalid kernel specification or evaluation failure."""


class DegenerateKernelError(KernelError):
    """Kernel whose centered Gram is (numerically) zero: constant feature map."""


@dataclass(frozen=True)
class KernelSpec:
    """Recipe for one base kernel.

    family: "gaussian" (exp(-gamma ||x-x'||^2)), "polynomial"
    ((x.x' + offset)^degree), or "linear" (x.x').
    feature_index: None evaluates on all features, an integer restricts
    both arguments to that single coordinate.
    """

    family: str
    gamma: float | None = None
    degree: int | None = None
    offset: float | None = None
    feature_index: int | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0:
                raise KernelError(f"gaussian kernel needs finite gamma > 0, got {self.gamma}")
        elif self.family == "polynomial":
            if self.degree is None or self.degree < 1:
                raise KernelError(f"polynomial kernel needs degree >= 1, got {self.degree}")
            if self.offset is None or self.offset < 0:
                raise KernelError(f"polynomial kernel needs offset >= 0, got {self.offset}")
        elif self.family != "linear":
            raise KernelError(f"unknown kernel family {self.family!r}")
        if self.feature_index is not None and self.feature_index < 0:
            raise KernelError("feature_index must be non-negative")

    def label(self) -> str:
        scope = "all" if self.feature_index is None else f"f{self.feature_index}"
        if self.family == "gaussian":
            return f"gaussian(gamma={self.gamma:g})[{scope}]"
        if self.family == "polynomial":
            return f"poly(degree={self.degree},offset={self.offset:g})[{scope}]"
        return f"linear[{scope}]"

    def to_dict(self) -> dict:
        out = {"family": self.family}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.degree is not None:
            out["degree"] = self.degree
        if self.offset is not None:
            out["offset"] = self.offset
        if self.feature_index is not None:
            out["feature_index"] = self.feature_index
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelSpec":
        return cls(
            family=obj["family"],
            gamma=obj.get("gamma"),
            degree=obj.get("degree"),
            offset=obj.get("offset"),
            feature_index=obj.get("feature_index"),
        )


@dataclass
class CenterStats:
    """Training-side centering statistics of one raw Gram."""

    row_means: np.ndarray
    grand_mean: float
    scale: float

    def to_dict(self) -> dict:
        return {
            "row_means": [float(v) for v in self.row_means],
            "grand_mean": float(self.grand_mean),
            "scale": float(self.scale),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CenterStats":
        return cls(
            row_means=np.array(obj["row_means"], dtype=np.float64),
            grand_mean=float(obj["grand_mean"]),
            scale=float(obj["scale"]),
        )


@dataclass
class GramMatrix:
    """Dense symmetric n x n kernel matrix."""

    values: np.ndarray
    state: str = RAW
    center_stats: CenterStats | None = None

    def __post_init__(self):
        V = np.asarray(self.values, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise KernelError(f"Gram matrix must be square, got shape {V.shape}")
        asym = float(np.max(np.abs(V - V.T))) if V.size else 0.0
        if asym > 1e-8 * max(1.0, float(np.max(np.abs(V)))):
            raise KernelError(f"Gram matrix is not symmetric (max asymmetry {asym:g})")
        # store the exactly-symmetric part so the 1e-12 symmetry invariant holds
        self.values = (V + V.T) / 2.0
        if self.state not in (RAW, CENTERED):
            raise KernelError(f"unknown Gram state {self.state!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class CrossGram:
    """Dense m x n kernel block: test rows against train columns."""

    values: np.ndarray
    state: str = RAW

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise KernelError("CrossGram must be 2-d")

    @property
    def shape(self):
        return self.values.shape


@dataclass
class KernelBank:
    """p base kernels evaluated on one shared instance ordering."""

    specs: list[KernelSpec]
    train_grams: list[GramMatrix]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.specs) < 1:
            raise KernelError("kernel bank needs p >= 1 kernels")
        if len(self.specs) != len(self.train_grams):
            raise KernelError("specs and grams length mismatch")
        n = self.train_grams[0].n
        for g in self.train_grams:
            if g.n != n:
                raise KernelError("bank Grams have inconsistent dimensions")

    @property
    def p(self) -> int:
        return len(self.specs)

    @property
    def n(self) -> int:
        return self.train_grams[0].n

    def stacked(self) -> np.ndarray:
        """(p, n, n) array of all Gram values (copies)."""
        return np.stack([g.values for g in self.train_grams])


# ---------------------------------------------------------------------------
# evaluation


def _scoped(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if spec.feature_index is None:
        return X
    if spec.feature_index >= X.shape[1]:
        raise KernelError(
            f"feature_index {spec.feature_index} out of range for d={X.shape[1]}"
        )
    return X[:, spec.feature_index : spec.feature_index + 1]


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Evaluate k(a_i, b_j) for all rows; A is (m, d), B is (n, d)."""
    dots = A @ B.T
    if spec.family == "linear":
        V = dots
    elif spec.family == "polynomial":
        V = (dots + spec.offset) ** spec.degree
    else:  # gaussian
        sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * dots
        np.maximum(sq, 0.0, out=sq)
        V = np.exp(-spec.gamma * sq)
    if not np.all(np.isfinite(V)):
        raise KernelError(f"kernel {spec.label()} produced non-finite values")
    return V


def compute_gram(spec: KernelSpec, train_features: np.ndarray) -> GramMatrix:
    """Raw Gram of one base kernel over the training instances."""
    X = _scoped(train_features, spec)
    if not np.all(np.isfinite(X)):
        raise KernelError("non-finite feature values")
    V = _kernel_block(spec, X, X)
    if spec.family == "gaussian":
        np.fill_diagonal(V, 1.0)  # zero self-distance, exact
    return GramMatrix(values=V, state=RAW)


def compute_cross_gram(
    spec: KernelSpec, test_features: np.ndarray, train_features: np.ndarray
) -> CrossGram:
    """Raw test x train kernel block for one base kernel."""
    A = _scoped(test_features, spec)
    B = _scoped(train_features, spec)
    return CrossGram(values=_kernel_block(spec, A, B), state=RAW)


def bank_specs(d: int, recipe: str) -> list[KernelSpec]:
    """Kernel recipes: "uci_full" is 13 kernels on the full feature vector
    (9 gaussians with gamma 2^-10..2^-2, polynomials of degree 2/3/4, one
    linear); "uci_full_plus_per_feature" appends the same template per
    feature for 13d + 13 total."""
    if recipe not in RECIPES:
        raise KernelError(f"unknown bank recipe {recipe!r}")
    if d < 1:
        raise KernelError("d must be >= 1")

    def template(j: int | None) -> list[KernelSpec]:
        specs = [KernelSpec("gaussian", gamma=g, feature_index=j) for g in _GAUSSIAN_GAMMAS]
        specs += [
            KernelSpec("polynomial", degree=deg, offset=1.0, feature_index=j)
            for deg in _POLY_DEGREES
        ]
        specs.append(KernelSpec("linear", feature_index=j))
        return specs

    specs = template(None)
    if recipe == "uci_full_plus_per_feature":
        for j in range(d):
            specs.extend(template(j))
    return specs


def build_kernel_bank(
    features: np.ndarray, recipe: str, meta: dict | None = None
) -> KernelBank:
    """Evaluate a full recipe of raw Grams over the given feature matrix."""
    X = np.asarray(features, dtype=np.float64)
    specs = bank_specs(X.shape[1], recipe)
    grams = [compute_gram(s, X) for s in specs]
    bank_meta = {"recipe": recipe}
    if meta:
        bank_meta.update(meta)
    return KernelBank(specs=specs, train_grams=grams, meta=bank_meta)


# ---------------------------------------------------------------------------
# centering / standardization


def center_standardize_fit(gram: GramMatrix) -> GramMatrix:
    """Double-center a raw Gram and scale to trace/n = 1.

    K_c = H K H with H = I - 11^T/n, then K_c / s with s = trace(K_c)/n.
    The raw row means, grand mean, and s are recorded for test-side reuse.
    Raises DegenerateKernelError when the centered kernel vanishes
    (constant feature map); callers drop such kernels from the bank.
    """
    if gram.state != RAW:
        raise KernelError("center_standardize_fit expects a raw Gram")
    K = gram.values
    n = K.shape[0]
    rm = K.mean(axis=1)
    gm = float(K.mean())
    Kc = K - rm[:, None] - rm[None, :] + gm
    s = float(np.trace(Kc)) / n
    if s <= 1e-12:
        raise DegenerateKernelError(
            f"degenerate kernel: centered trace/n = {s:g} (constant feature map)"
        )
    stats = CenterStats(row_means=rm, grand_mean=gm, scale=s)
    return GramMatrix(values=Kc / s, state=CENTERED, center_stats=stats)


def center_standardize_apply(raw_cross: CrossGram, stats: CenterStats) -> CrossGram:
    """Center/standardize a raw test x train block with train statistics.

    K_c[a, i] = (K(t_a, x_i) - mean_j K(t_a, x_j) - row_mean_i + grand_mean) / s
    """
    if raw_cross.state != RAW:
        raise KernelError("center_standardize_apply expects a raw cross block")
    V = raw_cross.values
    if V.shape[1] != stats.row_means.shape[0]:
        raise KernelError(
            f"cross block has {V.shape[1]} train columns, stats expect {stats.row_means.shape[0]}"
        )
    test_means = V.mean(axis=1)
    out = (V - test_means[:, None] - stats.row_means[None, :] + stats.grand_mean) / stats.scale
    return CrossGram(values=out, state=CENTERED)


def center_bank(bank: KernelBank) -> tuple[KernelBank, list[int]]:
    """Center/standardize every Gram of a raw bank, dropping degenerates.

    Returns the centered bank and the indices (into the input bank) of
    dropped kernels. Degenerate kernels are logged, not fatal: per-feature
    banks on near-constant columns would otherwise abort whole runs.
    """
    specs, grams, dropped = [], [], []
    for i, (spec, g) in enumerate(zip(bank.specs, bank.train_grams)):
        try:
            grams.append(center_standardize_fit(g))
            specs.append(spec)
        except DegenerateKernelError as exc:
            logger.warning("dropping kernel %d (%s): %s", i, spec.label(), exc)
            dropped.append(i)
    if not specs:
        raise DegenerateKernelError("every kernel in the bank is degenerate")
    meta = dict(bank.meta)
    meta["dropped_kernels"] = dropped
    return KernelBank(specs=specs, train_grams=grams, meta=meta), dropped


# ---------------------------------------------------------------------------
# combination


def _check_weights(p: int, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (p,):
        raise KernelError(f"expected {p} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise KernelError("negative kernel weight")
    if not np.any(w > 0):
        raise KernelError("all-zero kernel weight vector")
    return w


def combine(grams: list[GramMatrix], weights) -> GramMatrix:
    """Weighted sum of Grams sharing one dimension and state."""
    w = _check_weights(len(grams), weights)
    state = grams[0].state
    n = grams[0].n
    acc = np.zeros((n, n), dtype=np.float64)
    for wl, g in zip(w, grams):
        if g.n != n or g.state != state:
            raise KernelError("combine inputs must share dimension and state")
        if wl > 0:
            acc += wl * g.values
    return GramMatrix(values=acc, state=state)


def combine_cross(crosses: list[CrossGram], weights) -> CrossGram:
    """Weighted sum of cross blocks; companion of combine for test rows."""
    w = _check_weights(len(crosses), weights)
    state = crosses[0].state
    shape = crosses[0].shape
    acc = np.zeros(shape, dtype=np.float64)
    for wl, c in zip(w, crosses):
        if c.shape != shape or c.state != state:
            raise KernelError("combine inputs must share dimensions and state")
        if wl > 0:
            acc += wl * c.values
    return CrossGram(values=acc, state=state)


# ---------------------------------------------------------------------------
# persistence: meta.json + one little-endian float64 file per kernel


def save_bank(bank: KernelBank, directory, text: bool = False) -> None:
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "n": bank.n,
        "p": bank.p,
        "state": bank.train_grams[0].state,
        "text": bool(text),
        "specs": [s.to_dict() for s in bank.specs],
        "center_stats": [
            g.center_stats.to_dict() if g.center_stats is not None else None
            for g in bank.train_grams
        ],
        "meta": bank.meta,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    for i, g in enumerate(bank.train_grams):
        if text:
            np.savetxt(out / f"k{i}.tsv", g.values, delimiter="\t")
        else:
            with open(out / f"k{i}.f64", "wb") as fh:
                fh.write(g.values.astype("<f8").tobytes(order="C"))


def load_bank(directory) -> KernelBank:
    from pathlib import Path

    src = Path(directory)
    with open(src / "meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n, p = meta["n"], meta["p"]
    state = meta["state"]
    specs = [KernelSpec.from_dict(s) for s in meta["specs"]]
    stats_list = meta.get("center_stats") or [None] * p
    grams = []
    for i in range(p):
        if meta.get("text"):
            V = np.loadtxt(src / f"k{i}.tsv", delimiter="\t", ndmin=2)
            if V.size != n * n:
                raise KernelError(f"k{i}.tsv holds {V.size} values, expected {n*n}")
        else:
            blob = (src / f"k{i}.f64").read_bytes()
            count = len(blob) // struct.calcsize("<d")
            if count != n * n or len(blob) % struct.calcsize("<d"):
                raise KernelError(f"k{i}.f64 holds {count} values, expected {n*n}")
            V = np.frombuffer(blob, dtype="<f8").reshape(n, n)
        stats = CenterStats.from_dict(stats_list[i]) if stats_list[i] else None
        grams.append(GramMatrix(values=V.copy(), state=state, center_stats=stats))
    return KernelBank(specs=specs, train_grams=grams, meta=meta.get("meta", {}))
