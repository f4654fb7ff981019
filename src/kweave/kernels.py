"""Base-kernel evaluation, bank building, centering, and combination.

build_kernel_bank checks the features and pairs them with a recipe's
specs in a RawBank; it evaluates nothing. center_bank then takes one spec
at a time: it evaluates the raw Gram K, centers it in feature space and
scales it to trace/n = 1 with one formula, C = (K - (r_i + r_j) + g) / s
(r the row means, g = mean(r), s = mean(diag K - 2r) + g), writes its upper
triangle as one column of the KernelBank's pair-major matrix Z and drops
the Gram. Z has shape (n(n+1)/2, p): row r holds the p kernel values of
pair r (i <= j) of the pairs kspace.plan_rows plans in stage one's order
and hands center_bank. The bank is the one train-side record: float32 Z,
read in place by the K-space, those pairs (bank.pairs), the statistics and
the train rows the kernels ran on (bank.features). Evaluation, centering
and its statistics run in float64 and only the store rounds: stage one's
solver error dwarfs that rounding (6e-8), and the store takes half the
memory (README, Layout, has both measured).
Each feature scope's products (X @ X.T, squared distances) are computed
once and shared by its kernels, on the train side and for the test x train
cross blocks. numpy computes X @ X.T on one buffer as a symmetric rank-k
update, so every train-side Gram is exactly symmetric (a test pins this on
both recipes). A polynomial Gram is the running product of dots + offset,
degree - 1 multiplications. One raw Gram is alive at a time, so the
train-side peak is Z, a staging block of _STAGE_BYTES (or one kernel's
row, if larger) and a few (n, n) arrays. Dense float64 Grams are scattered
from Z by bank.pairs only in combine and gram(l), which the best_kernel
baseline reads one kernel at a time; target alignment reads Z directly, in
float64-upcast row blocks. The statistics (r, g, s) recorded on the
training Gram center the float64 cross blocks consistently: combine_cross
evaluates them on bank.features, centers and sums them one block at a
time, for one weight vector or a stack of k, holding k sums and one block.
center_bank's elementwise centering and staging copy and combine's sum run
compiled from _native.c where the native library loads, else in numpy, with
the same bits; the statistics, exp and the polynomial products stay numpy's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _native

logger = logging.getLogger(__name__)

_GAUSSIAN_GAMMAS = [2.0**k for k in range(-10, -1)]  # 2^-10 .. 2^-2
_POLY_DEGREES = [2, 3, 4]
RECIPES = ("uci_full", "uci_full_plus_per_feature")
# bytes of float32 kernel rows staged per block copy into the pair-major
# store (see center_bank): 32 rows at Sonar's 166-167 train rows
_STAGE_BYTES = 1_800_000
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
    """A recipe's specs over one checked feature matrix; center_bank evaluates it."""

    specs: list[KernelSpec]
    features: np.ndarray

    @property
    def p(self) -> int:
        return len(self.specs)

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass
class KernelBank:
    """Centered bank: p kernels over the train rows features, stored pair-major.

    Z[r, l] is centered kernel l at the pair pairs[0][r] <= pairs[1][r] of
    the rows of features, which the test side is scored against. stats[l]
    holds kernel l's centering statistics.
    """

    specs: list[KernelSpec]
    features: np.ndarray
    Z: np.ndarray
    stats: list[CenterStats]
    pairs: tuple[np.ndarray, np.ndarray]

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
    def n(self) -> int:
        return self.features.shape[0]

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
    linear kernel, one new array for every other family. A polynomial is the
    running product ((b b) b) ... of b = dots + offset, never libm's pow."""
    if spec.family == "linear":
        V = dots
    elif spec.family == "polynomial":
        base = dots + spec.offset
        V = base * base if spec.degree > 1 else base
        for _ in range(spec.degree - 2):
            V *= base
    else:  # gaussian
        V = np.multiply(sq, -spec.gamma)
        np.exp(V, out=V)
    if not np.all(np.isfinite(V)):
        raise KernelError(f"kernel {spec.label()} produced non-finite values")
    return V


def compute_cross_gram(spec: KernelSpec, dots: np.ndarray, sq) -> np.ndarray:
    """Raw test x train block of one base kernel from scope_products' products."""
    return _from_products(spec, dots, sq)


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


def _center_stats(K: np.ndarray) -> CenterStats:
    """(r, g, s) of an exactly symmetric K; DegenerateKernelError where s <= 1e-12."""
    rm = K.mean(axis=1)
    gm = float(rm.mean())
    s = float(np.mean(K.diagonal() - 2.0 * rm)) + gm
    if s <= 1e-12:
        raise DegenerateKernelError(
            f"degenerate kernel: centered trace/n = {s:g} (constant feature map)"
        )
    return CenterStats(row_means=rm, grand_mean=gm, scale=s)


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


def center_bank(bank: RawBank, pairs) -> tuple[KernelBank, list[int]]:
    """Evaluate and center/standardize each raw Gram into one pair-major store,
    dropping degenerates.

    One Gram is alive at a time, evaluated from its scope's shared products
    (scope_products); its statistics come from numpy's reductions. Its
    centered values at the pairs, ((K - (r_i + r_j)) + g) / s in float64,
    are rounded into a row of a float32 (rows, n(n+1)/2) staging block of
    _STAGE_BYTES (at least one row); a full block is copied into Z's columns
    at once, not one strided column at a time. Both steps run compiled
    (center_pairs and stage_to_columns in _native.c) where the native
    library loads, else in numpy, with the same bits. Row r of Z holds the
    pair pairs[0][r] <= pairs[1][r] (kspace.plan_rows's, or
    np.triu_indices(n)); pairs that miss or repeat one raise KernelError. The
    bank keeps them as bank.pairs, with the raw bank's features.

    Returns the centered bank and the indices (into the input bank) of
    dropped kernels. Degenerate kernels are logged, not fatal: per-feature
    banks on near-constant columns would otherwise abort whole runs.
    """
    n, (ii, jj) = bank.n, pairs
    size = n * (n + 1) // 2
    ok = np.shape(ii) == np.shape(jj) == (size,) and np.all((0 <= ii) & (ii <= jj) & (jj < n))
    flat = np.ravel_multi_index((ii, jj), (n, n)) if ok else None
    if not ok or np.unique(flat).size != size:  # size pairs i <= j, none twice: each once
        raise KernelError(f"pairs must list each of the {size} pairs i <= j < {n} once")
    Z = np.empty((flat.size, bank.p), dtype=np.float32)
    rows = min(max(1, _STAGE_BYTES // (4 * flat.size)), bank.p)
    stage = np.empty((rows, flat.size), dtype=np.float32)
    lib = _native.library()
    if lib is None:
        tri = np.empty(flat.size, dtype=np.float64)
    else:
        pi, pj = (np.ascontiguousarray(a, dtype=np.int32) for a in (ii, jj))
    specs, stats, dropped = [], [], []
    X = bank.features
    for i, (spec, *prods) in enumerate(scope_products(bank.specs, X, X)):
        K = _from_products(spec, *prods)
        try:
            st = _center_stats(K)
        except DegenerateKernelError as exc:
            # log the message only: a kept record must not pin the traceback's Grams
            logger.warning("dropping kernel %d (%s): %s", i, spec.label(), str(exc))
            dropped.append(i)
            continue
        out = stage[len(specs) % rows]
        if lib is None:
            C = np.add(st.row_means[:, None], st.row_means)
            np.subtract(K, C, out=C)
            C += st.grand_mean
            # the indices are in range; "clip" skips the buffered bounds check.
            # A take straight into the float32 stage would first copy the row's
            # stale bits to a float64 temporary, which can warn on NaN patterns.
            np.take(C, flat, out=tri, mode="clip")
            np.divide(tri, st.scale, out=out)  # rounds to float32
            del C
        else:
            K = np.ascontiguousarray(K)
            lib.center_pairs(K.ctypes.data, n, st.row_means.ctypes.data, st.grand_mean,
                             st.scale, pi.ctypes.data, pj.ctypes.data, size, out.ctypes.data)
        # free this Gram, and at a scope's end its products, before the next is made
        del K, prods
        specs.append(spec)
        stats.append(st)
        if len(specs) % rows == 0:
            _stage_to_columns(lib, stage, rows, Z, len(specs) - rows)
    tail = len(specs) % rows
    _stage_to_columns(lib, stage, tail, Z, len(specs) - tail)
    del stage
    if not specs:
        raise DegenerateKernelError("every kernel in the bank is degenerate")
    if dropped:
        _compact_columns(Z, len(specs))
    return KernelBank(specs, bank.features, Z, stats, (ii, jj)), dropped


def _stage_to_columns(lib, stage: np.ndarray, k: int, Z: np.ndarray, col: int) -> None:
    """Z[:, col:col + k] = stage[:k].T, compiled where lib is loaded."""
    if lib is None:
        Z[:, col : col + k] = stage[:k].T
    else:
        lib.stage_to_columns(stage.ctypes.data, k, stage.shape[1], Z.ctypes.data, Z.shape[1],
                             col)


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
    if w.shape != (p,):  # dropped kernels set p, so only the centered bank knows it
        given = w.size if w.ndim == 1 else f"shape {w.shape}"
        raise KernelError(f"expected {p} weights (one per kept kernel), got {given}")
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
    A float32 store is summed compiled (combine_rows in _native.c) where the
    native library loads, with the same bits; any other store, or no
    library, runs the numpy loop. Weights whose sum leaves the float range
    raise KernelError.
    """
    w = check_weights(bank.p, weights)
    keep, Z, lib = np.flatnonzero(w > 0), bank.Z, _native.library()
    if lib is not None and Z.dtype == np.float32 and Z.flags.c_contiguous:
        acc = np.empty(Z.shape[0], dtype=np.float64)
        keep, wk = keep.astype(np.int64), w[keep]
        lib.combine_rows(Z.ctypes.data, Z.shape[0], Z.shape[1], keep.ctypes.data,
                         wk.ctypes.data, keep.size, acc.ctypes.data)
    else:
        acc = np.zeros(Z.shape[0], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for l in keep:
                acc += np.multiply(w[l], Z[:, l], dtype=np.float64)
    if not np.all(np.isfinite(acc)):
        raise KernelError("the weighted sum of the Grams overflows")
    return bank._symmetric(acc)


def combine_cross(bank: KernelBank, weights, test_features) -> np.ndarray:
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
    for l, (spec, *prods) in enumerate(scope_products(bank.specs, test_features, bank.features)):
        block = center_standardize_apply(compute_cross_gram(spec, *prods), bank.stats[l])
        for j in np.flatnonzero(W[:, l] > 0):
            acc[j] += W[j, l] * block
        del block  # drop this block before the next one is made
    return acc if np.ndim(weights) == 2 else acc[0]
