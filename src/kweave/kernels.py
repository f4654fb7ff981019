"""Base-kernel evaluation, bank building, centering, and combination.

build_kernel_bank checks the features and pairs them with a recipe's
specs in a RawBank; it evaluates nothing. center_bank then takes one spec
at a time: it evaluates the raw Gram K, centers it in feature space and
scales it to trace/n = 1 with one formula, C = (K - (r_i + r_j) + g) / s
(r the row means, g = mean(r), s = mean(diag K - 2r) + g), writes its upper
triangle as one column of the KernelBank's pair-major matrix Z and drops
the Gram. Z has shape (n(n+1)/2, p): row r holds the p kernel values of
the r-th pair (i <= j) of bank.pairs, in stage one's planned order
(kspace.plan_rows), read in slices. Z is the centered bank's only
train-side store, float32, owned by the bank; the K-space reads it in
place. Evaluation, centering and its statistics run in float64 and only
the store rounds: stage one's solver error (relative duality gap near
1e-2) dwarfs that rounding (6e-8), and its batch reads are bandwidth
bound. gram(l) and combine upcast to float64 and scatter by bank.pairs.
Each feature scope's products (X @ X.T, squared distances) are computed
once and shared by its kernels, on the train side and for the test x train
cross blocks; one raw Gram is alive at a time, so the train-side peak is Z
plus a few (n, n) arrays. Dense Grams are rebuilt from Z only by combine
and the best_kernel baseline (one kernel at a time); target alignment reads
Z directly, in float64-upcast row blocks. The statistics (r, g, s) recorded
on the training Gram center the float64 cross blocks consistently:
combine_cross evaluates, centers and sums them one block at a time, once
for one weight vector or a stack of k, holding k sums and one block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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


@dataclass
class CenterStats:
    """Training-side centering statistics of one raw Gram."""

    row_means: np.ndarray
    grand_mean: float
    scale: float


@dataclass
class RawBank:
    """A recipe's specs over one checked feature matrix; center_bank consumes it.

    No Gram is held: each is evaluated when it is read.
    """

    specs: list[KernelSpec]
    features: np.ndarray

    @property
    def p(self) -> int:
        return len(self.specs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def grams(self):
        """The raw (n, n) Grams in spec order, evaluated one at a time: each
        equals compute_gram's, symmetrized as (G + G^T)/2 only when its scope's
        shared X @ X.T (see scope_products) is not exactly symmetric. A linear
        Gram is that X @ X.T itself, so it must not be modified."""
        X, scope = self.features, object()
        for spec, dots, sq in scope_products(self.specs, X, X):
            if spec.feature_index != scope:
                scope, symmetric = spec.feature_index, np.array_equal(dots, dots.T)
            V = _from_products(spec, dots, sq)
            yield V if symmetric else (V + V.T) / 2.0


@dataclass
class KernelBank:
    """Centered bank: p kernels over one instance ordering, stored pair-major.

    Z[r, l] is centered kernel l at the r-th pair (i <= j) of pairs: pair
    order[r] of pair_indices(n), order being a permutation of them.
    stats[l] holds kernel l's centering statistics.
    """

    specs: list[KernelSpec]
    Z: np.ndarray
    n: int
    stats: list[CenterStats]
    order: np.ndarray

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

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of the pair at each row of Z."""
        ii, jj = pair_indices(self.n)
        return ii[self.order], jj[self.order]

    def gram(self, l: int) -> np.ndarray:
        """Dense symmetric float64 (n, n) Gram of kernel l, rebuilt from Z."""
        return self._symmetric(self.Z[:, l])

    def _symmetric(self, values: np.ndarray) -> np.ndarray:
        """Scatter one value per row of Z into a symmetric float64 (n, n) array
        (a float32 value is upcast exactly)."""
        ii, jj = self.pairs
        out = np.empty((self.n, self.n), dtype=np.float64)
        out[ii, jj] = out[jj, ii] = values
        return out


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every pair i <= j of n instances, in row-major order."""
    return np.triu_indices(n)


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


def scope_products(specs, A, B):
    """Yield (spec, A @ B.T, ||a_i - b_j||^2 or None) per spec, in order.

    Both are on the spec's feature scope, computed once per run of specs on
    one scope (the distances, clipped at 0, only if a Gaussian needs them).
    With B A itself, their diagonal is exactly 0, a Gaussian's exactly 1.
    """
    scope, dots, sq = object(), None, None
    for spec in specs:
        if spec.feature_index != scope:
            dots = sq = None  # free the last scope's products first
            a, b = _scoped(A, spec), _scoped(B, spec)
            scope, dots = spec.feature_index, a @ b.T
        if spec.family == "gaussian" and sq is None:
            sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
            sq -= 2.0 * dots
            np.maximum(sq, 0.0, out=sq)
            if A is B:
                np.fill_diagonal(sq, 0.0)
        yield spec, dots, sq


def _from_products(spec: KernelSpec, dots: np.ndarray, sq) -> np.ndarray:
    """k(a_i, b_j) from the products scope_products yields: dots itself for a
    linear kernel, one new array for every other family."""
    if spec.family == "linear":
        V = dots
    elif spec.family == "polynomial":
        V = dots + spec.offset
        V **= spec.degree
    else:  # gaussian
        V = np.multiply(sq, -spec.gamma)
        np.exp(V, out=V)
    if not np.all(np.isfinite(V)):
        raise KernelError(f"kernel {spec.label()} produced non-finite values")
    return V


def compute_gram(spec: KernelSpec, train_features: np.ndarray) -> np.ndarray:
    """Raw Gram of one base kernel over the training instances."""
    if not np.all(np.isfinite(_scoped(train_features, spec))):
        raise KernelError("non-finite feature values")
    return compute_cross_gram(spec, train_features, train_features)


def compute_cross_gram(spec, test_features, train_features, products=None) -> np.ndarray:
    """Raw test x train block of one base kernel, from scope_products' products if given."""
    if products is None:
        _, *products = next(scope_products([spec], test_features, train_features))
    return _from_products(spec, *products)


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


def build_kernel_bank(features: np.ndarray, recipe: str) -> RawBank:
    """A recipe's raw bank over the given feature matrix, evaluated lazily.

    Non-finite features raise here; a kernel whose values overflow raises
    when center_bank evaluates it.
    """
    X = np.asarray(features, dtype=np.float64)
    specs = bank_specs(X.shape[1], recipe)
    if not np.all(np.isfinite(X)):
        raise KernelError("non-finite feature values")
    return RawBank(specs=specs, features=X)


# ---------------------------------------------------------------------------
# centering / standardization


def _center(K: np.ndarray) -> tuple[np.ndarray, CenterStats]:
    """K - (r_i + r_j) + g, unscaled, and (r, g, s) of an exactly symmetric K."""
    rm = K.mean(axis=1)
    gm = float(rm.mean())
    s = float(np.mean(K.diagonal() - 2.0 * rm)) + gm
    if s <= 1e-12:
        raise DegenerateKernelError(
            f"degenerate kernel: centered trace/n = {s:g} (constant feature map)"
        )
    C = np.add(rm[:, None], rm)
    np.subtract(K, C, out=C)
    C += gm
    return C, CenterStats(row_means=rm, grand_mean=gm, scale=s)


def center_standardize_fit(gram: np.ndarray) -> tuple[np.ndarray, CenterStats]:
    """Double-center a raw Gram and scale it to trace/n = 1, in one formula.

    C = (K - (r_i + r_j) + g) / s, with K the Gram symmetrized as
    (K + K^T)/2, r its row means, g = mean(r) and s = mean(diag K - 2r) + g
    = trace(H K H)/n (H = I - 11^T/n). r_i + r_j commutes, so C is exactly
    symmetric. Returns C and (r, g, s) for test-side reuse. Raises
    DegenerateKernelError when the centered kernel vanishes (constant
    feature map); callers drop such kernels from the bank.
    """
    K = np.asarray(gram, dtype=np.float64)
    C, stats = _center((K + K.T) / 2.0)
    C /= stats.scale
    return C, stats


def center_standardize_apply(raw_cross: np.ndarray, stats: CenterStats) -> np.ndarray:
    """Center/standardize a raw test x train block with train statistics.

    K_c[a, i] = (K(t_a, x_i) - mean_j K(t_a, x_j) - row_mean_i + grand_mean) / s
    """
    V = np.asarray(raw_cross, dtype=np.float64)
    if V.shape[1] != stats.row_means.shape[0]:
        raise KernelError(
            f"cross block has {V.shape[1]} train columns, stats expect {stats.row_means.shape[0]}"
        )
    out = V - V.mean(axis=1)[:, None]  # the one new array, centered in place
    out -= stats.row_means
    out += stats.grand_mean
    out /= stats.scale
    return out


def center_bank(bank: RawBank, order=slice(None)) -> tuple[KernelBank, list[int]]:
    """Evaluate and center/standardize each raw Gram into one pair-major store,
    dropping degenerates.

    One Gram is alive at a time, evaluated and centered in float64 with
    center_standardize_fit's formula and bits (grams has symmetrized it if
    need be). Its upper triangle is taken into a float64 row buffer and
    divided by s straight into a row of a float32 (_STAGE_ROWS, n(n+1)/2)
    staging block, which rounds it; a full block is copied into Z's columns
    at once, never one strided column at a time. Row r of Z holds pair
    order[r] of pair_indices(n); order (kspace.plan_rows) defaults to the identity.

    Returns the centered bank and the indices (into the input bank) of
    dropped kernels. Degenerate kernels are logged, not fatal: per-feature
    banks on near-constant columns would otherwise abort whole runs.
    """
    n = bank.n
    flat = np.ravel_multi_index(pair_indices(n), (n, n))
    order = np.arange(flat.size)[order]  # indexing checks the range
    if not np.unique(order).size == order.size == flat.size:
        raise KernelError(f"order must be a permutation of the {flat.size} pairs")
    flat = flat[order]
    Z = np.empty((flat.size, bank.p), dtype=np.float32)
    rows = min(_STAGE_ROWS, bank.p)
    stage = np.empty((rows, flat.size), dtype=np.float32)
    tri = np.empty(flat.size, dtype=np.float64)
    specs, stats, dropped = [], [], []
    for i, (spec, raw) in enumerate(zip(bank.specs, bank.grams)):
        try:
            centered, st = _center(raw)
        except DegenerateKernelError as exc:
            # log the message only: a kept record must not pin the traceback's Grams
            logger.warning("dropping kernel %d (%s): %s", i, spec.label(), str(exc))
            dropped.append(i)
            continue
        # the indices are in range; "clip" skips the buffered bounds check. A
        # take straight into the float32 stage would first copy the row's stale
        # bits to a float64 temporary, which can warn on NaN patterns.
        np.take(centered, flat, out=tri, mode="clip")
        np.divide(tri, st.scale, out=stage[len(specs) % rows])  # rounds to float32
        del raw, centered  # free this Gram before the next one is evaluated
        specs.append(spec)
        stats.append(st)
        if len(specs) % rows == 0:
            Z[:, len(specs) - rows : len(specs)] = stage.T
    tail = len(specs) % rows
    Z[:, len(specs) - tail : len(specs)] = stage[:tail].T
    del stage, tri
    if not specs:
        raise DegenerateKernelError("every kernel in the bank is degenerate")
    if dropped:
        _compact_columns(Z, len(specs))
    return KernelBank(specs=specs, Z=Z, n=n, stats=stats, order=order), dropped


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
    """Dense float64 (n, n) Gram sum_l w_l K_l of a centered bank.

    The sum runs over the pair-major store in l order, skipping zero
    weights, and is scattered into the symmetric array once. Each product
    is taken in float64 (dtype= on the ufunc) under any numpy promotion rules.
    Weights whose sum leaves the float range raise KernelError.
    """
    w = check_weights(bank.p, weights)
    acc = np.zeros(bank.Z.shape[0], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for l in np.flatnonzero(w > 0):
            acc += np.multiply(w[l], bank.Z[:, l], dtype=np.float64)
    if not np.all(np.isfinite(acc)):
        raise KernelError("the weighted sum of the Grams overflows")
    return bank._symmetric(acc)


def combine_cross(bank: KernelBank, weights, test_features, train_features) -> np.ndarray:
    """Weighted sum of the centered test x train cross blocks, combine's test-side companion.

    weights is one (p,) vector, giving a (t, n) array, or a (k, p) stack,
    giving (k, t, n). Each kept kernel's block is evaluated once for all k
    rows, from scope_products' shared products, centered with bank.stats
    and added into every row's sum (acc[j] += W[j, l] * block, in l order,
    zero weights skipped) before the next block is made: k sums and one
    block are alive, and a row of a stack has the bits of its own call.
    """
    W = np.array([check_weights(bank.p, w) for w in np.atleast_2d(weights)])
    acc = np.zeros((len(W), len(test_features), bank.n), dtype=np.float64)
    for l, (spec, *prods) in enumerate(scope_products(bank.specs, test_features, train_features)):
        block = center_standardize_apply(
            compute_cross_gram(spec, test_features, train_features, prods), bank.stats[l]
        )
        for j in np.flatnonzero(W[:, l] > 0):
            acc[j] += W[j, l] * block
        del block  # drop this block before the next one is made
    return acc if np.ndim(weights) == 2 else acc[0]
