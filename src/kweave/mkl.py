"""Kernel-weight learning in K-space by stochastic projected subgradient descent.

The objective over a K-example set S is

    F(mu) = (lam/2) ||mu||^2 + (1/|S|) sum_{(z,t) in S} [1 - t mu.z]_+ ,
    mu >= 0 componentwise.

Minimized Pegasos-style: at step k, draw a batch B, take the subgradient
g = lam*mu - (1/|B|) sum_{(z,t) in B, t mu.z < 1} t z, step with 1/(lam*k),
and project onto the non-negative orthant. The regularizer lam is picked by
hinge loss on a held-out 20% of the K-examples, independently of the
downstream data classifier.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .kspace import KExampleSet, sample_batch

logger = logging.getLogger(__name__)


class MklError(RuntimeError):
    pass


class DivergedError(MklError):
    """Non-finite iterate; pathological lam or data."""

    def __init__(self, step: int):
        super().__init__(f"non-finite weight vector at step {step}")
        self.step = step


@dataclass
class MklConfig:
    """Solver settings for one training run.

    lam: regularization strength (must be > 0).
    num_steps: subgradient steps; 10**3 suits small datasets, 10**5 large.
    """

    lam: float
    batch_size: int = 100
    num_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.batch_size < 1 or self.num_steps < 1:
            raise ValueError("batch_size and num_steps must be >= 1")


@dataclass
class MklModel:
    """Learned non-negative kernel weights plus training provenance."""

    mu: np.ndarray
    chosen_lambda: float
    final_train_hinge: float
    validation_hinge: float | None
    steps_run: int
    seed: int

    @property
    def collapsed(self) -> bool:
        return not np.any(self.mu > 0)


def hinge_loss(mu: np.ndarray, kset: KExampleSet) -> float:
    """Exact mean hinge loss of the weight vector over the whole set."""
    if len(kset) == 0:
        raise ValueError("empty K-example set")
    s = kset.scores(mu)
    return float(np.mean(np.maximum(0.0, 1.0 - kset.t * s)))


def pegasos_train(kset: KExampleSet, config: MklConfig, on_step=None) -> MklModel:
    """Run the projected stochastic subgradient solver from mu = 0.

    on_step(k, mu), when given, observes every post-projection iterate
    (used by tests to assert non-negativity along the whole trajectory).
    """
    if len(kset) == 0:
        raise ValueError("empty K-example set")
    if kset.n_pos == 0 or kset.n_neg == 0:
        raise ValueError("K-example set must contain both K-classes")
    lam, B = config.lam, config.batch_size
    rng = np.random.default_rng(config.seed)
    mu = np.zeros(kset.p, dtype=np.float64)
    # one fit's step buffers: each batch is gathered into zbuf, and the update
    # masks non-violators to weight 0 instead of copying the violating rows
    zbuf = np.empty((B, kset.p), dtype=np.float64)
    s = np.empty(B, dtype=np.float64)
    w = np.empty(B, dtype=np.float64)
    viol = np.empty(B, dtype=bool)

    for k in range(1, config.num_steps + 1):
        batch = sample_batch(kset, B, rng, out=zbuf)
        # overflow here is handled by the explicit finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            np.dot(batch.z, mu, out=s)
            s *= batch.t
            np.less(s, 1.0, out=viol)
            # mu <- (1 - 1/k) mu + (1/(lam k |B|)) sum of violating t*z
            mu *= 1.0 - 1.0 / k
            if np.any(viol):
                np.multiply(batch.t, viol, out=w)
                mu += (w @ batch.z) / (lam * k * B)
        np.maximum(mu, 0.0, out=mu)
        if not np.all(np.isfinite(mu)):
            raise DivergedError(k)
        if on_step is not None:
            on_step(k, mu)

    return MklModel(
        mu=mu,
        chosen_lambda=lam,
        final_train_hinge=hinge_loss(mu, kset),
        validation_hinge=None,
        steps_run=config.num_steps,
        seed=config.seed,
    )


def default_lambda_grid() -> list[float]:
    """100, 100/4, 100/16, ... truncated at the 1e-8 floor (17 values)."""
    grid = []
    k = 0
    while True:
        v = 100.0 / 4.0**k
        if v < 1e-8:
            break
        grid.append(v)
        k += 1
    return grid


def _validate_grid(grid) -> list[float]:
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if any(g <= 0 for g in grid):
        raise ValueError("lambda grid entries must be positive")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly descending")
    return grid


def _split_kset(kset: KExampleSet, val_fraction: float, seed: int):
    m = len(kset)
    n_val = max(1, int(math.floor(val_fraction * m + 0.5)))
    if n_val >= m:
        raise ValueError("validation fraction leaves no training K-examples")
    perm = np.random.default_rng(seed).permutation(m)
    return kset.subset(perm[n_val:]), kset.subset(perm[:n_val])


def _train_grid(kset, grid, seed, val_fraction, batch_size, num_steps):
    """Fit one model per grid value on an 80/20 split of the K-examples.

    Returns (val_kset, results); each result is a dict with the model and
    its exact validation hinge, or an error string for values where the
    solver failed (skipped with a warning).
    """
    grid = _validate_grid(grid)
    if len(kset) < 5:
        raise ValueError(f"need at least 5 K-examples to select lambda, got {len(kset)}")
    train_k, val_k = _split_kset(kset, val_fraction, seed)

    def fit(idx, lam):
        cfg = MklConfig(lam=lam, batch_size=batch_size, num_steps=num_steps, seed=seed ^ idx)
        try:
            model = pegasos_train(train_k, cfg)
        except (DivergedError, ValueError) as exc:
            logger.warning("lambda=%g failed: %s", lam, exc)
            return {"lambda": lam, "model": None, "val_hinge": None, "error": str(exc)}
        model.validation_hinge = hinge_loss(model.mu, val_k)
        return {"lambda": lam, "model": model, "val_hinge": model.validation_hinge, "error": None}

    return val_k, [fit(idx, lam) for idx, lam in enumerate(grid)]


def select_lambda(
    kset: KExampleSet,
    grid=None,
    seed: int = 0,
    val_fraction: float = 0.2,
    batch_size: int = 100,
    num_steps: int = 1000,
):
    """Pick lam by exact hinge loss on a held-out 20% of the K-examples.

    Returns (chosen_lambda, records). Each record holds the lambda, its
    validation hinge, the steps run, whether the weights collapsed to zero,
    and the final train hinge; a lambda whose fit failed has None in all
    but the lambda. Ties break toward the larger lam (the grid is
    descending, so the first minimum wins).
    """
    if grid is None:
        grid = default_lambda_grid()
    _, results = _train_grid(kset, grid, seed, val_fraction, batch_size, num_steps)
    best_lam, best_hinge = None, None
    for r in results:
        if r["val_hinge"] is None:
            continue
        if best_hinge is None or r["val_hinge"] < best_hinge:
            best_lam, best_hinge = r["lambda"], r["val_hinge"]
    if best_lam is None:
        raise MklError("every lambda in the grid failed")
    records = []
    for r in results:
        model = r["model"]
        records.append(
            {
                "lambda": r["lambda"],
                "val_hinge": r["val_hinge"],
                "steps": None if model is None else model.steps_run,
                "collapsed": None if model is None else model.collapsed,
                "final_train_hinge": None if model is None else model.final_train_hinge,
            }
        )
    return best_lam, records


def lambda_sweep_report(
    kset: KExampleSet,
    grid,
    evaluator,
    seed: int = 0,
    val_fraction: float = 0.2,
    batch_size: int = 100,
    num_steps: int = 1000,
) -> list[dict]:
    """Per-lambda diagnostics pairing K-space quality with downstream accuracy.

    evaluator maps an MklModel to a downstream test accuracy (the cli wires
    it to the full combine-and-classify stage). K-accuracy is sign agreement
    of mu.z with t on the validation K-split (a zero score counts as +1).
    """
    val_k, results = _train_grid(kset, grid, seed, val_fraction, batch_size, num_steps)
    records = []
    for r in results:
        if r["model"] is None:
            continue
        model = r["model"]
        s = val_k.scores(model.mu)
        pred = np.where(s >= 0, 1, -1)
        acc = evaluator(model)
        records.append(
            {
                "lambda": r["lambda"],
                "k_hinge": r["val_hinge"],
                "k_accuracy": float(np.mean(pred == val_k.t)),
                "data_accuracy": None if acc is None else float(acc),
            }
        )
    return records


# ---------------------------------------------------------------------------
# hinge-loss concentration diagnostic


@dataclass
class BoundInputs:
    """Inputs to the finite-sample bound on the expected K-space hinge loss."""

    gamma: float
    R: float
    delta: float
    n: int
    empirical_hinge: float

    def __post_init__(self):
        if self.gamma <= 0 or self.R <= 0:
            raise ValueError("gamma and R must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.empirical_hinge < 0:
            raise ValueError("empirical_hinge must be >= 0")


def concentration_bound(b: BoundInputs) -> float:
    """empirical_hinge + sqrt(2 (1 + R^2/gamma)^2 ln(1/delta) / n)."""
    slack = math.sqrt(2.0 * (1.0 + b.R**2 / b.gamma) ** 2 * math.log(1.0 / b.delta) / b.n)
    return b.empirical_hinge + slack
