"""Soft-margin kernel SVM over a precomputed, exactly symmetric Gram, trained with SMO.

Solves the standard dual

    min_a  1/2 a^T Q a - e^T a,   Q_ij = y_i y_j K_ij,
    s.t.   0 <= a_i <= C,  y^T a = 0,

by repeatedly optimizing the maximal-KKT-violating pair analytically
(Fan, Chen & Lin, JMLR 6, 2005), reading column i of K in place as row
K[i]. The loop selects it from two arrays, u and l: m = -y * G (G the
gradient) on the up (low) set, where y_t a_t can grow (shrink), and -inf
(+inf) elsewhere. As C > 0, every t is in a set. Each binary fit runs
compiled (smo_fit in _native.c) where the package's native library loads,
else in numpy; both fits give the same bits.

Multiclass is one-vs-rest with argmax over per-class decision values.

C is chosen by k-fold cross-validation, in select_C alone. The C grid
must be strictly ascending, each C finite and > 0. select_C walks it
C-major, C outside and the folds inside, and seeds each fold's fit after
the first with that fold's duals at the previous C, unchanged ("alpha
seeding", DeCoste & Wagstaff, KDD 2000). The seed stays feasible, since
0 <= a <= C_prev < C and y^T a = 0 still hold, and where no dual reached
its bound it is already optimal at the larger C. A C whose CV fits
include one that stopped short of tol is not chosen while some C has none.

With two classes, class 1 vs rest mirrors class 0 vs rest: y1 = -y0 and Q
is unchanged, so the optimal duals are the same. ovr_train therefore
seeds the class-1 fit with class 0's duals whenever class 0 converged,
in select_C (in place of the fold's class-1 duals at the previous C) and
in the final fit alike. That fit rebuilds its gradient from K, checks the
KKT gap, which the mirrored duals meet up to rounding, and computes its
own bias, normally after no pair step. Every other final fit starts cold
from a = 0.
"""

from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass

import numpy as np

from . import _native

logger = logging.getLogger(__name__)

DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
_TAU = 1e-12  # curvature floor for the pair subproblem

# a pair loop's status, then smo_fit's code for an array that _array_fault
# refuses; as in _native.c
_CONVERGED, _STALLED, _CAPPED, _REFUSED = range(4)


@dataclass
class SvmModel:
    """Dual solution of one binary problem.

    alpha is dense length-n in [0, C]. signed_labels are the +-1 training
    labels the duals refer to. converged is False when the iteration cap
    was hit first. kkt_gap is the maximal KKT violation at exit: the
    largest m = -y * G over the up set minus the smallest over the low
    set, 0.0 when either set is empty.
    """

    alpha: np.ndarray
    bias: float
    signed_labels: np.ndarray
    C: float
    converged: bool = True
    iterations: int = 0
    kkt_gap: float = 0.0

    def to_dict(self) -> dict:
        """alpha as [row, value] pairs of its support vectors (alpha > 0)."""
        return {
            "alpha": [[int(i), float(self.alpha[i])] for i in np.flatnonzero(self.alpha > 0)],
            "bias": float(self.bias),
            "C": float(self.C),
            "signed_labels": [int(v) for v in self.signed_labels],
            "converged": bool(self.converged),
        }


def smo_train(
    gram,
    y,
    C: float,
    tol: float = 1e-3,
    max_iter: int | None = None,
    alpha0=None,
) -> SvmModel:
    """Maximize the dual over a precomputed, exactly symmetric Gram (K == K.T).

    The first failing check raises, in this order: a square Gram, labels
    of length n, C finite and > 0, tol >= 0, max_iter an integer >= 1 (a
    float, even 5.0, is refused), alpha0 a float array of length n; then,
    before any pair step, a finite Gram, labels that are all +1 or -1, both
    classes in y, a finite alpha0 and alpha0 inside [0, C]. Each raises
    ValueError, but numpy's own error where C or alpha0 cannot convert.

    Converged once the maximal KKT violation drops to tol. Hitting
    max_iter returns a model flagged non-converged instead of raising;
    its duals are the max_iter-th iterate of the uncapped run. A KKT gap
    or bias of zero is +0.0.

    alpha0 starts the loop from given duals instead of a = 0. It must also
    satisfy y^T alpha0 = 0 (not checked: a seed off the hyperplane makes
    the result infeasible); the duals of the same problem at a smaller C
    meet all of this.

    At tol = 0 the loop can cycle among pairs with moves at machine
    precision and run to max_iter: the stall check catches only a step
    that moves nothing.
    """
    K = np.asarray(gram, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("Gram must be a square matrix")
    n = len(K)
    if y.shape != (n,):
        raise ValueError("labels do not match Gram dimension")
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    if not tol >= 0:
        raise ValueError("tol must be non-negative")
    if max_iter is None:
        max_iter = max(20000, 200 * n)
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError("max_iter must be an integer of at least 1")
    alpha = None if alpha0 is None else np.array(alpha0, dtype=np.float64)
    if alpha is not None and alpha.shape != (n,):
        raise ValueError("alpha0 does not match Gram dimension")

    binary_fit = _numpy_fit if _native.library() is None else _compiled_fit
    alpha, status, it, stall_gap, gap, bias = binary_fit(K, y, alpha, C, tol, max_iter)
    if status == _STALLED:
        logger.warning(
            "SMO stalled at KKT gap %g (tol %g) after %d pair steps", stall_gap, tol, it,
        )
    elif status == _CAPPED:
        logger.warning("SMO hit the iteration cap (%d) before tol %g", max_iter, tol)
    return SvmModel(
        alpha=alpha,
        bias=bias,
        signed_labels=y.astype(np.int64),
        C=C,
        converged=status == _CONVERGED,
        iterations=it,
        kkt_gap=gap,
    )


def _array_fault(K, y, alpha, C):
    """The message of the first array check that fails, or None: a finite
    Gram, then labels of +1 and -1 only, then both classes in y, then given
    alpha (None is a = 0) a finite alpha inside [0, C]."""
    if not np.isfinite(K).all():
        return "Gram must be finite"
    if not np.all(np.abs(y) == 1.0):
        return "labels must be +1 or -1"
    if not (np.any(y > 0) and np.any(y < 0)):
        return "both classes required to train an SVM"
    if alpha is not None:
        if not np.all(np.isfinite(alpha)):
            return "alpha0 must be finite"
        if np.any(alpha < 0.0) or np.any(alpha > C):
            return "alpha0 must lie in [0, C]"
    return None


def _numpy_fit(K, y, alpha, C, tol, max_iter):
    """smo_train's fit in numpy: (alpha, status, pair steps, KKT gap at a
    stall, KKT gap at exit, bias).

    alpha is the seed, updated in place, or None to start from a = 0. Raises
    ValueError on the first array check that fails. It runs where the
    compiled fit, smo_fit in _native.c, which gives the same bits, cannot
    be built or loaded.
    """
    fault = _array_fault(K, y, alpha, C)
    if fault:
        raise ValueError(fault)
    if alpha is None:
        alpha = np.zeros(len(y), dtype=np.float64)

    # The loop tracks m = -y * G, G = y * K(a * y) - 1 the gradient of the
    # minimization dual, so m = y - K(a * y) (K 0 = +-0 keeps m = y at a = 0).
    # U = (u, l) holds m on the start's up (low) set and -inf (+inf) elsewhere;
    # +-inf absorbs the update, and an empty set (only a seed off y^T a = 0
    # empties one) ends the loop at the tol test.
    pos = y > 0
    below_c, above_0 = alpha < C, alpha > 0.0
    in_set = np.where(pos, [below_c, above_0], [above_0, below_c])
    U = np.where(in_set, y - K @ (alpha * y), [[-np.inf], [np.inf]])
    status, it, stall_gap = _numpy_pair_loop(K, y, alpha, U, C, tol, max_iter)

    # the exit KKT gap, and the bias: the average of y_i - f(x_i) over free
    # support vectors, else the midpoint of the feasible interval from the
    # bound KKT conditions. The + 0.0 on each makes a zero +0.0, whatever
    # zeros numpy's max and min met
    u, l = U
    gap = u.max() - l.min()
    gap = float(gap) + 0.0 if np.isfinite(gap) else 0.0
    eps = 1e-8 * C
    # v = -y * G with G = -y * m; the + 0.0 turns -0.0 into +0.0, as a
    # gradient updated by additions from G = -1 never holds -0.0, so v has
    # the bits it would have had the loop updated G itself
    m = np.where(u > -np.inf, u, l)
    v = -y * (-y * m + 0.0)
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        # summed left to right, as smo_fit sums them (.mean sums pairwise)
        bias = float(np.add.accumulate(v[free])[-1] / free.sum())
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
    return alpha, status, it, stall_gap, gap, bias + 0.0


def _numpy_pair_loop(K, y, alpha, U, C, tol, max_iter):
    """_numpy_fit's pair steps: (status, pair steps, KKT gap at a stall).

    Updates alpha and U = (u, l) in place, as smo_loop in _native.c does with
    the same bits.
    """
    diag = np.diag(K).tolist()
    yl = y.tolist()
    # Since y = +-1 and rounding to nearest commutes with negation, the update
    #   m -= K[i] * (y_i da_i) + K[j] * (y_j da_j)
    # gives the same bits as G += y K[:, i] (y_i da_i) + y K[:, j] (y_j da_j),
    # up to the sign of exact zeros, which no comparison sees. A step that
    # moves i or j onto or off a bound rewrites its entries from whichever
    # row holds its m.
    u, l = U
    buf = np.empty(len(y), dtype=np.float64)
    col_j = np.empty(len(y), dtype=np.float64)

    it = 0
    while it < max_iter:
        i = int(u.argmax())
        mi = u.item(i)
        j = int(l.argmin())
        mj = l.item(j)
        if mi - mj <= tol:
            return _CONVERGED, it, None

        yi, yj = yl[i], yl[j]
        old_i, old_j = alpha.item(i), alpha.item(j)
        quad = diag[i] + diag[j] - 2.0 * K.item(i, j)
        delta = (mi - mj) / max(quad, _TAU)
        # box caps along the feasible direction (a_i += y_i d, a_j -= y_j d)
        cap_i = (C - old_i) if yi > 0 else old_i
        cap_j = old_j if yj > 0 else (C - old_j)
        delta = min(delta, cap_i, cap_j)

        s = yi * old_i + yj * old_j  # conserved by the pair update
        if cap_j <= cap_i and delta >= cap_j:
            # j hits its bound: land there exactly (a rounded near-bound value
            # would keep j selectable while leaving no room to move) and
            # recover i from the conserved sum
            aj = 0.0 if yj > 0 else C
            ai = yi * (s - yj * aj)
        elif delta >= cap_i:
            ai = C if yi > 0 else 0.0
            aj = yj * (s - yi * ai)
        else:
            ai = old_i + yi * delta
            aj = old_j - yj * delta
        ai = min(max(ai, 0.0), C)
        aj = min(max(aj, 0.0), C)
        alpha[i], alpha[j] = ai, aj
        dai, daj = ai - old_i, aj - old_j
        if dai == 0.0 and daj == 0.0:
            # the best pair cannot move at this precision; stop without
            # claiming the tolerance was reached
            return _STALLED, it, mi - mj
        np.multiply(K[i], yi * dai, out=buf)
        np.multiply(K[j], yj * daj, out=col_j)
        np.subtract(U, np.add(buf, col_j, out=buf), out=U)
        for k, a, a_old in ((i, ai, old_i), (j, aj, old_j)):
            if not (0.0 < a < C and 0.0 < a_old < C):
                # read m_k before writing: 0 -> C moves k between the rows
                mk = u.item(k) if u.item(k) > -np.inf else l.item(k)
                k_up, k_low = (a < C, a > 0.0) if yl[k] > 0 else (a > 0.0, a < C)
                u[k] = mk if k_up else -np.inf
                l[k] = mk if k_low else np.inf
        it += 1
    return _CAPPED, it, None


def _compiled_fit(K, y, alpha, C, tol, max_iter):
    """_numpy_fit's fit, run by smo_fit from the native library."""
    n = len(y)
    if alpha is None:
        alpha, Ka = np.zeros(n, dtype=np.float64), None
    else:
        # numpy's GEMV on K as given, as _numpy_fit runs it, for its bits.
        # smo_fit checks K and alpha only after it, so it must not warn on
        # an entry they refuse (nor, as no compiled step does, on an overflow)
        with np.errstate(all="ignore"):
            Ka = K @ (alpha * y)
    # smo_fit reads K and y as C-contiguous rows; alpha is smo_train's own
    K, y = np.ascontiguousarray(K), np.ascontiguousarray(y)
    U = np.empty((2, n))
    steps, out = ctypes.c_int64(), (ctypes.c_double * 3)()
    code = _native.library().smo_fit(
        K.ctypes.data, y.ctypes.data, alpha.ctypes.data, U.ctypes.data, n, C, tol,
        min(max_iter, 2**63 - 1), _TAU, None if Ka is None else Ka.ctypes.data,
        ctypes.byref(steps), out,
    )
    if code == _REFUSED:
        raise ValueError(_array_fault(K, y, alpha, C))
    return alpha, code, steps.value, *out


@dataclass
class OvrModel:
    """One binary SVM per class; prediction is argmax of decision values."""

    models: list[SvmModel]

    def decision_matrix(self, cross) -> np.ndarray:
        """f_k(x) = sum_i alpha_i y_i K(x, x_i) + bias of model k, one column per model."""
        V = np.asarray(cross, dtype=np.float64)
        n = self.models[0].alpha.shape[0]
        if V.shape[1] != n:
            raise ValueError(f"cross block has {V.shape[1]} columns, model expects {n}")
        return np.column_stack([V @ (m.alpha * m.signed_labels) + m.bias for m in self.models])

    def predict(self, cross) -> np.ndarray:
        # np.argmax takes the first maximum: ties go to the lower class id
        return self.decision_matrix(cross).argmax(axis=1)

    def to_dict(self) -> dict:
        return {
            "n_classes": len(self.models),
            "models": [{"class_id": k, **mdl.to_dict()} for k, mdl in enumerate(self.models)],
        }


def ovr_train(gram, labels, C: float, n_classes: int | None = None, alpha0=None) -> OvrModel:
    """Train class-k-vs-rest models over a shared Gram.

    alpha0, if given, holds one starting dual vector per class (see
    smo_train); select_C passes a fold's duals at the previous C. With two
    classes, a converged class-0 fit seeds class 1 with its own duals
    instead: they are optimal for the mirrored problem (y1 = -y0, same Q),
    so that fit normally only checks them against tol. A capped or stalled
    class 0 leaves class 1 to the caller's seed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = int(labels.max()) + 1 if n_classes is None else n_classes
    if c < 2:
        raise ValueError("need at least two classes")
    models = []
    for k in range(c):
        yk = np.where(labels == k, 1.0, -1.0)
        if not np.any(labels == k):
            raise ValueError(f"class {k} absent from training data")
        if k == 1 and c == 2 and models[0].converged:
            seed = models[0].alpha
        else:
            seed = None if alpha0 is None else alpha0[k]
        models.append(smo_train(gram, yk, C, alpha0=seed))
    return OvrModel(models)


def validate_C_grid(grid) -> list[float]:
    """grid as floats; ValueError unless non-empty, finite, > 0 and strictly ascending."""
    grid = [float(c) for c in grid]
    if not grid:
        raise ValueError("empty C grid")
    if not all(np.isfinite(c) and c > 0 for c in grid):
        raise ValueError("C grid entries must be positive and finite")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("C grid must be strictly ascending")
    return grid


def select_C(gram, labels, folds, grid=DEFAULT_C_GRID):
    """Mean k-fold CV accuracy per C; returns (chosen C, per-C records).

    grid must be strictly ascending, each C finite and > 0; any other grid
    raises ValueError before a fit. The walk is C-major: at each C in turn
    every fold fits from its own previous duals (with two classes, class 1
    starts from class 0's; see ovr_train), so each fold keeps one seed
    chain. Records follow the grid; each holds the C, its mean CV accuracy,
    smo_iterations, the pair steps summed over folds and classes, and
    nonconverged, the number of those binary fits that stopped short of tol
    at the iteration cap or a stall.

    Folds whose training side loses a class (or otherwise fail) are skipped
    with a warning and keep their seed; a C with no surviving folds scores
    None. The chosen C has the highest CV accuracy among the scored C with
    no unfinished fit, or among all scored C when none qualifies; ties go
    to the smaller C.
    """
    grid = validate_C_grid(grid)
    K = np.asarray(gram, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    c = int(labels.max()) + 1

    blocks = [
        (K[np.ix_(tr, tr)], labels[tr], K[np.ix_(te, tr)], labels[te])
        for tr, te in ((plan.train_indices, plan.test_indices) for plan in folds)
    ]
    seeds = [None] * len(blocks)
    records = []
    for C in grid:
        accs, steps, capped = [], 0, 0
        for f, (train_K, train_y, cross_K, test_y) in enumerate(blocks):
            try:
                ovr = ovr_train(train_K, train_y, C, n_classes=c, alpha0=seeds[f])
            except ValueError as exc:
                logger.warning("C=%g fold %d skipped: %s", C, f, exc)
                continue
            seeds[f] = [mdl.alpha for mdl in ovr.models]
            steps += sum(mdl.iterations for mdl in ovr.models)
            capped += sum(not mdl.converged for mdl in ovr.models)
            accs.append(float(np.mean(ovr.predict(cross_K) == test_y)))
        cv = float(np.mean(accs)) if accs else None
        records.append({"C": C, "cv_accuracy": cv, "smo_iterations": steps, "nonconverged": capped})

    scored = [r for r in records if r["cv_accuracy"] is not None]
    if not scored:
        raise RuntimeError("every C failed cross-validation")
    # max keeps the first of equal maxima: the smaller C
    best = max([r for r in scored if r["nonconverged"] == 0] or scored,
               key=lambda r: r["cv_accuracy"])
    return best["C"], records


def fit(gram, labels, folds, grid=DEFAULT_C_GRID):
    """Select C by k-fold CV, then train one-vs-rest on all rows at that C.

    Returns (best C, per-C records, OvrModel). A binary fit that hits the
    iteration cap is kept as it ended, flagged non-converged.
    """
    best_C, records = select_C(gram, labels, folds, grid=grid)
    return best_C, records, ovr_train(gram, labels, best_C)
