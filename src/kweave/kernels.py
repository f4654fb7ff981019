"""Base-kernel evaluation, bank building, centering, and combination.

build_kernel_bank checks the features and pairs them with a recipe's
specs in a RawBank; it evaluates nothing. center_bank then takes one spec
at a time: it evaluates the raw Gram k(x_i, x_j), double-centers it (zero
feature-space mean), scales it to trace/n = 1 (unit average feature-space
variance), keeps its upper triangle as one column of the KernelBank's
pair-major matrix Z and drops the Gram. Z has shape (n(n+1)/2, p): row r
holds the p kernel values of the r-th pair (i <= j) of pair_indices(n).
It is the centered bank's only train-side store, n(n+1)/2 * p * 8 bytes,
owned by the bank; the K-space reads it in place. No more than one raw
Gram is alive at a time, beside the X @ X.T and squared distances its
feature scope shares, so the train-side peak is Z plus a few (n, n)
temporaries. Dense (n, n) Grams are rebuilt from Z only by combine, the
best_kernel baseline (one kernel at a time), target alignment and
`kweave kernels build`.

Centering statistics are recorded at fit time on the training Gram and are
reused to transform test-vs-train cross blocks consistently.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_GAUSSIAN_GAMMAS = [2.0**k for k in range(-10, -1)]  # 2^-10 .. 2^-2
_POLY_DEGREES = [2, 3, 4]
RECIPES = ("uci_full", "uci_full_plus_per_feature")
# kernels staged per block copy into the pair-major store (see center_bank)
_STAGE_ROWS = 32
# elements moved per chunk when center_bank compacts away dropped kernels
_COMPACT_ELEMS = 1 << 16


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


@dataclass
class RawBank:
    """A recipe's specs over one checked feature matrix; center_bank consumes it.

    No Gram is held: each is evaluated when it is read.
    """

    specs: list[KernelSpec]
    features: np.ndarray
    meta: dict

    @property
    def p(self) -> int:
        return len(self.specs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def grams(self):
        """The raw (n, n) Grams in spec order, evaluated one at a time.

        Each feature scope's X @ X.T, and its squared distances when a
        Gaussian needs them, are computed once and shared by the scope's
        run of consecutive specs; every Gram equals compute_gram's. A
        linear Gram is the shared X @ X.T itself, so it must not be
        modified.
        """
        scope, dots, sq = object(), None, None
        for spec in self.specs:
            if spec.feature_index != scope:
                X = _scoped(self.features, spec)
                scope, dots, sq = spec.feature_index, X @ X.T, None
            if spec.family == "gaussian" and sq is None:
                sq = _sq_dists(X, X, dots)
            V = _from_products(spec, dots, sq)
            if spec.family == "gaussian":
                np.fill_diagonal(V, 1.0)  # zero self-distance, exact
            yield V


@dataclass
class KernelBank:
    """Centered bank: p kernels over one instance ordering, stored pair-major.

    Z[r, l] is centered kernel l at the r-th pair (i <= j) of
    pair_indices(n), and stats[l] holds kernel l's centering statistics.
    """

    specs: list[KernelSpec]
    Z: np.ndarray
    n: int
    stats: list[CenterStats]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        p = len(self.specs)
        if p < 1:
            raise KernelError("kernel bank needs p >= 1 kernels")
        if self.Z.shape != (self.n * (self.n + 1) // 2, p) or len(self.stats) != p:
            raise KernelError(
                f"bank store {self.Z.shape} with {len(self.stats)} stats is inconsistent "
                f"with n={self.n}, p={p}"
            )

    @property
    def p(self) -> int:
        return len(self.specs)

    def gram(self, l: int) -> np.ndarray:
        """Dense symmetric (n, n) Gram of kernel l, rebuilt from Z."""
        return _symmetric(self.n, self.Z[:, l])


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every pair i <= j of n instances, in the row order of Z."""
    return np.triu_indices(n)


def _symmetric(n: int, upper: np.ndarray) -> np.ndarray:
    """Scatter pair values in row order of Z into a symmetric (n, n) array."""
    ii, jj = pair_indices(n)
    out = np.empty((n, n), dtype=np.float64)
    out[ii, jj] = upper
    out[jj, ii] = upper
    return out


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


def _sq_dists(A: np.ndarray, B: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """||a_i - b_j||^2 from dots = A @ B.T, clipped at 0."""
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * dots
    np.maximum(sq, 0.0, out=sq)
    return sq


def _from_products(spec: KernelSpec, dots: np.ndarray, sq) -> np.ndarray:
    """k(a_i, b_j) from dots = A @ B.T and, for a Gaussian, sq = _sq_dists(A, B, dots).

    A linear kernel returns dots itself; every other family a new array.
    """
    if spec.family == "linear":
        V = dots
    elif spec.family == "polynomial":
        V = (dots + spec.offset) ** spec.degree
    else:  # gaussian
        V = np.exp(-spec.gamma * sq)
    if not np.all(np.isfinite(V)):
        raise KernelError(f"kernel {spec.label()} produced non-finite values")
    return V


def _kernel_block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Evaluate k(a_i, b_j) for all rows; A is (m, d), B is (n, d)."""
    dots = A @ B.T
    sq = _sq_dists(A, B, dots) if spec.family == "gaussian" else None
    return _from_products(spec, dots, sq)


def compute_gram(spec: KernelSpec, train_features: np.ndarray) -> np.ndarray:
    """Raw Gram of one base kernel over the training instances."""
    X = _scoped(train_features, spec)
    if not np.all(np.isfinite(X)):
        raise KernelError("non-finite feature values")
    V = _kernel_block(spec, X, X)
    if spec.family == "gaussian":
        np.fill_diagonal(V, 1.0)  # zero self-distance, exact
    return V


def compute_cross_gram(
    spec: KernelSpec, test_features: np.ndarray, train_features: np.ndarray
) -> np.ndarray:
    """Raw test x train kernel block for one base kernel."""
    return _kernel_block(spec, _scoped(test_features, spec), _scoped(train_features, spec))


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
) -> RawBank:
    """A recipe's raw bank over the given feature matrix, evaluated lazily.

    Non-finite features raise here; a kernel whose values overflow raises
    when center_bank evaluates it.
    """
    X = np.asarray(features, dtype=np.float64)
    specs = bank_specs(X.shape[1], recipe)
    if not np.all(np.isfinite(X)):
        raise KernelError("non-finite feature values")
    bank_meta = {"recipe": recipe}
    if meta:
        bank_meta.update(meta)
    return RawBank(specs=specs, features=X, meta=bank_meta)


# ---------------------------------------------------------------------------
# centering / standardization


def center_standardize_fit(gram: np.ndarray) -> tuple[np.ndarray, CenterStats]:
    """Double-center a raw Gram and scale it to trace/n = 1.

    K is first symmetrized as (K + K^T)/2; then K_c = H K H with
    H = I - 11^T/n, and K_c / s with s = trace(K_c)/n, symmetrized again.
    Returns that dense Gram and the raw row means, grand mean and s for
    test-side reuse. Raises DegenerateKernelError when the centered kernel
    vanishes (constant feature map); callers drop such kernels from the bank.
    """
    K = np.asarray(gram, dtype=np.float64)
    # the same operations in the same order as ((K + K^T)/2 - rm - rm^T + gm) / s,
    # done in place on one new array, so at most two (n, n) temporaries are alive
    Kc = K + K.T
    Kc /= 2.0
    n = Kc.shape[0]
    rm = Kc.mean(axis=1)
    gm = float(Kc.mean())
    Kc -= rm[:, None]
    Kc -= rm[None, :]
    Kc += gm
    s = float(np.trace(Kc)) / n
    if s <= 1e-12:
        raise DegenerateKernelError(
            f"degenerate kernel: centered trace/n = {s:g} (constant feature map)"
        )
    Kc /= s
    out = Kc + Kc.T
    out /= 2.0
    return out, CenterStats(row_means=rm, grand_mean=gm, scale=s)


def center_standardize_apply(raw_cross: np.ndarray, stats: CenterStats) -> np.ndarray:
    """Center/standardize a raw test x train block with train statistics.

    K_c[a, i] = (K(t_a, x_i) - mean_j K(t_a, x_j) - row_mean_i + grand_mean) / s
    """
    V = np.asarray(raw_cross, dtype=np.float64)
    if V.shape[1] != stats.row_means.shape[0]:
        raise KernelError(
            f"cross block has {V.shape[1]} train columns, stats expect {stats.row_means.shape[0]}"
        )
    test_means = V.mean(axis=1)
    return (V - test_means[:, None] - stats.row_means[None, :] + stats.grand_mean) / stats.scale


def center_bank(bank: RawBank) -> tuple[KernelBank, list[int]]:
    """Evaluate and center/standardize each raw Gram into one pair-major store,
    dropping degenerates.

    One Gram is alive at a time. Its upper triangle is taken with one
    flat-index take into a row of a (_STAGE_ROWS, n(n+1)/2) staging block,
    and a full block is copied into Z's columns at once, so Z is never
    written one strided column at a time.

    Returns the centered bank and the indices (into the input bank) of
    dropped kernels. Degenerate kernels are logged, not fatal: per-feature
    banks on near-constant columns would otherwise abort whole runs.
    """
    n = bank.n
    ii, jj = pair_indices(n)
    flat = ii * n + jj
    Z = np.empty((flat.size, bank.p), dtype=np.float64)
    rows = min(_STAGE_ROWS, bank.p)
    stage = np.empty((rows, flat.size), dtype=np.float64)
    specs, stats, dropped = [], [], []
    for i, (spec, raw) in enumerate(zip(bank.specs, bank.grams)):
        try:
            centered, st = center_standardize_fit(raw)
        except DegenerateKernelError as exc:
            # log the message only: a kept record must not pin the traceback's Grams
            logger.warning("dropping kernel %d (%s): %s", i, spec.label(), str(exc))
            dropped.append(i)
            continue
        # the indices are in range; "clip" skips the buffered bounds check
        np.take(centered, flat, out=stage[len(specs) % rows], mode="clip")
        del raw, centered  # free this Gram before the next one is evaluated
        specs.append(spec)
        stats.append(st)
        if len(specs) % rows == 0:
            Z[:, len(specs) - rows : len(specs)] = stage.T
    tail = len(specs) % rows
    Z[:, len(specs) - tail : len(specs)] = stage[:tail].T
    del stage
    if not specs:
        raise DegenerateKernelError("every kernel in the bank is degenerate")
    if dropped:
        _compact_columns(Z, len(specs))
    meta = dict(bank.meta)
    meta["dropped_kernels"] = dropped
    return KernelBank(specs=specs, Z=Z, n=n, stats=stats, meta=meta), dropped


def _compact_columns(Z: np.ndarray, k: int) -> None:
    """Shrink the owning C-ordered (rows, p) array Z to its first k columns in place.

    Row r moves from flat offset r*p to r*k. Rows are moved in order, a
    chunk at a time, so no write lands on a row not yet read; numpy buffers
    the overlap inside a chunk. The buffer is then resized, so a second
    store is never allocated.
    """
    rows, p = Z.shape
    flat = Z.reshape(-1)
    chunk = max(1, _COMPACT_ELEMS // k)
    for a in range(0, rows, chunk):
        b = min(a + chunk, rows)
        flat[a * k : b * k].reshape(b - a, k)[...] = Z[a:b, :k]
    del flat  # resize needs no other view of the buffer
    Z.resize((rows, k), refcheck=False)


# ---------------------------------------------------------------------------
# combination


def check_weights(p: int, weights) -> np.ndarray:
    """The weights as a float64 (p,) vector: finite, non-negative, not all zero."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (p,):
        raise KernelError(f"expected {p} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise KernelError("non-finite kernel weight")
    if np.any(w < 0):
        raise KernelError("negative kernel weight")
    if not np.any(w > 0):
        raise KernelError("all-zero kernel weight vector")
    return w


def combine(bank: KernelBank, weights) -> np.ndarray:
    """Dense (n, n) Gram sum_l w_l K_l of a centered bank.

    The sum runs over the pair-major store in l order, skipping zero
    weights, and is scattered into the symmetric array once.
    """
    w = check_weights(bank.p, weights)
    acc = np.zeros(bank.Z.shape[0], dtype=np.float64)
    for l in np.flatnonzero(w > 0):
        acc += w[l] * bank.Z[:, l]
    return _symmetric(bank.n, acc)


def combine_cross(crosses, weights) -> np.ndarray:
    """Weighted sum of cross blocks; companion of combine for test rows.

    crosses may be any iterable, a generator included: blocks are read one
    at a time in l order, so only the running sum and the current block need
    be alive. There must be one block per weight, all of one shape.
    """
    w = check_weights(np.size(weights), weights)
    acc = None
    count = 0
    for c in crosses:
        if count == w.size:
            raise KernelError(f"more than {w.size} cross blocks for {w.size} weights")
        if acc is None:
            acc = np.zeros(c.shape, dtype=np.float64)
        elif c.shape != acc.shape:
            raise KernelError(f"cross block {count} has shape {c.shape}, expected {acc.shape}")
        if w[count] > 0:
            acc += w[count] * c
        count += 1
        del c  # drop this block before the next one is produced
    if count != w.size:
        raise KernelError(f"{count} cross blocks for {w.size} weights")
    return acc


# ---------------------------------------------------------------------------
# persistence: meta.json + one little-endian float64 (or TSV) file per kernel


def save_bank(bank: KernelBank, directory, text: bool = False) -> None:
    """Write meta.json and each kernel's dense Gram, k{l}.f64 or k{l}.tsv."""
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "n": bank.n,
        "p": bank.p,
        "state": "centered_standardized",
        "text": bool(text),
        "specs": [s.to_dict() for s in bank.specs],
        "center_stats": [st.to_dict() for st in bank.stats],
        "meta": bank.meta,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    for l in range(bank.p):
        if text:
            np.savetxt(out / f"k{l}.tsv", bank.gram(l), delimiter="\t")
        else:
            with open(out / f"k{l}.f64", "wb") as fh:
                fh.write(bank.gram(l).astype("<f8").tobytes(order="C"))
