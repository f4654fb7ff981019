"""Kernel-weight learning in K-space by stochastic projected subgradient descent.

The objective over a K-example set S is

    F(mu) = (lam/2) ||mu||^2 + (1/|S|) sum_{(z,t) in S} [1 - t mu.z]_+ ,
    mu >= 0 componentwise.

Minimized Pegasos-style: at step k, take a batch B, the subgradient
g = lam*mu - (1/|B|) sum_{(z,t) in B, t mu.z < 1} t z, step with 1/(lam*k),
and project onto the non-negative orthant. B is the |B| rows of S from
(phase + (k - 1) |B|) mod |S| on, cycling, with the phase drawn from the
fit's seed; S's rows are stored permuted once (kspace), so this is
shuffle-once SGD, not Pegasos's i.i.d. draws. The regularizer lam is picked
by hinge loss on a held-out 20% of the K-examples, the leading rows of the
balanced set, independently of the downstream data classifier.

pegasos_train runs one fit at the stack's dtype (float32 for a centered
bank's store) and returns an MklModel: float64 weights, their exact train
hinge and the steps run. train_grid fits every lambda of a grid on the
lambda-train rows, each seeded with seed ^ (its grid index); select_lambda
picks from that list, and the experiment layer's lambda sweep reads it too.
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
class MklModel:
    """The non-negative kernel weights one Pegasos fit learned."""

    mu: np.ndarray
    final_train_hinge: float
    steps_run: int

    @property
    def collapsed(self) -> bool:
        return not np.any(self.mu > 0)

    def objective(self, lam: float) -> float:
        """Train F(mu) = lam/2 ||mu||^2 + hinge; above F(0) = 1 is worse than mu = 0."""
        return 0.5 * lam * float(self.mu @ self.mu) + self.final_train_hinge


# Share of the K-examples held out to pick lambda by validation hinge, and
# the fewest K-examples that leave both sides of that split non-empty.
VAL_FRACTION, MIN_KEXAMPLES = 0.2, 5


def hinge_loss(mu: np.ndarray, kset: KExampleSet) -> float:
    """Exact mean hinge loss of the weight vector over the whole set."""
    if len(kset) == 0:
        raise ValueError("empty K-example set")
    s = kset.scores(mu)
    return float(np.mean(np.maximum(0.0, 1.0 - kset.t * s)))


def pegasos_train(
    kset: KExampleSet, lam: float, num_steps: int = 1000, batch_size: int = 100, seed: int = 0
) -> MklModel:
    """Run the projected stochastic subgradient solver from mu = 0.

    lam is the regularization strength (positive and finite); num_steps of
    10**3 suit small datasets, 10**5 large ones. The batches cycle through
    kset's rows from a phase drawn from seed, so a num_steps=k fit returns
    the k-th iterate of any longer fit with the same seed.

    mu and the step buffers have the stack's dtype and the step's scalars
    are cast to it; the +-1 labels are read as stored (int8), and int8 times
    float32 is float32 under either numpy promotion rule, so every step runs
    at the stack's width. The returned mu is float64.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if batch_size < 1 or num_steps < 1:
        raise ValueError("batch_size and num_steps must be >= 1")
    if len(kset) == 0:
        raise ValueError("empty K-example set")
    if kset.n_pos == 0 or kset.n_neg == 0:
        raise ValueError("K-example set must contain both K-classes")
    m = len(kset)
    phase = int(np.random.default_rng(seed).integers(m))
    dt = kset.stack.dtype.type
    mu = np.zeros(kset.p, dtype=dt)
    # one fit's step buffers; the update gives non-violators weight 0
    # instead of copying violators
    g = np.empty(kset.p, dtype=dt)
    s = np.empty(batch_size, dtype=dt)
    w = np.empty(batch_size, dtype=dt)

    # overflow, and a float32 step scale that underflows to 0, are handled by
    # the explicit finiteness check
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, num_steps + 1):
            batch = sample_batch(kset, (phase + (k - 1) * batch_size) % m, batch_size)
            np.dot(batch.z, mu, out=s)
            s *= batch.t
            # mu <- (1 - 1/k) mu + (1/(lam k |B|)) sum of violating t*z;
            # w = t * [s < 1] zeroes the sum when no row violates
            np.less(s, 1.0, out=w)
            w *= batch.t
            mu *= dt(1.0 - 1.0 / k)
            np.dot(w, batch.z, out=g)
            g /= dt(lam * k * batch_size)
            mu += g
            np.maximum(mu, 0.0, out=mu)
            if not math.isfinite(mu.max()):  # mu >= 0, and max propagates NaN
                raise DivergedError(k)

    mu = mu.astype(np.float64, copy=False)
    return MklModel(mu=mu, final_train_hinge=hinge_loss(mu, kset), steps_run=num_steps)


def default_lambda_grid() -> list[float]:
    """100, 100/4, 100/16, ..., 100/4**16: the 17 values down to the 1e-8 floor."""
    return [100.0 / 4.0**k for k in range(17)]


def validate_lambda_grid(grid) -> list[float]:
    """grid as floats; ValueError unless non-empty, finite, > 0 and strictly descending."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if not all(math.isfinite(g) and g > 0 for g in grid):
        raise ValueError("lambda grid entries must be positive and finite")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly descending")
    return grid


def _split_kset(kset: KExampleSet):
    """(train, validation) blocks of a balanced set in planned order: the
    validation rows lead (kspace.plan_rows). At MIN_KEXAMPLES rows or more
    neither is empty."""
    n_val = int(math.floor(VAL_FRACTION * len(kset) + 0.5))
    return kset[n_val:], kset[:n_val]


def train_grid(kset, grid, seed, batch_size, num_steps):
    """Fit one model per grid value (None: default_lambda_grid) on the 80%
    train block of the K-examples.

    Returns (val_kset, fits): one (lam, model, val_hinge) per grid value, in
    grid order, with the model's exact validation hinge; model and
    val_hinge are None where the solver failed (logged as a warning).
    Raises MklError when every value failed.
    """
    grid = validate_lambda_grid(default_lambda_grid() if grid is None else grid)
    if len(kset) < MIN_KEXAMPLES:
        raise ValueError(f"need at least {MIN_KEXAMPLES} K-examples, got {len(kset)}")
    train_k, val_k = _split_kset(kset)
    fits = []
    for idx, lam in enumerate(grid):
        try:
            model = pegasos_train(train_k, lam, num_steps, batch_size, seed ^ idx)
        except (DivergedError, ValueError) as exc:
            logger.warning("lambda=%g failed: %s", lam, exc)
            fits.append((lam, None, None))
        else:
            fits.append((lam, model, hinge_loss(model.mu, val_k)))
    if all(model is None for _, model, _ in fits):
        raise MklError("every lambda in the grid failed")
    return val_k, fits


def select_lambda(
    kset: KExampleSet,
    grid=None,
    seed: int = 0,
    batch_size: int = 100,
    num_steps: int = 1000,
):
    """Pick lam by exact hinge loss on a held-out 20% of the K-examples.

    Returns (chosen_lambda, records). Each record holds the lambda, its
    validation hinge, the steps run, whether the weights collapsed to zero,
    the final train hinge, and the train objective
    lam/2 ||mu||^2 + final train hinge; a lambda whose fit failed has None
    in all but the lambda. Ties break toward the larger lam (the grid is
    descending, so the first minimum wins).
    """
    _, fits = train_grid(kset, grid, seed, batch_size, num_steps)
    records = [
        {
            "lambda": lam,
            "val_hinge": val_hinge,
            "steps": None if model is None else model.steps_run,
            "collapsed": None if model is None else model.collapsed,
            "final_train_hinge": None if model is None else model.final_train_hinge,
            "objective": None if model is None else model.objective(lam),
        }
        for lam, model, val_hinge in fits
    ]
    fitted = [r for r in records if r["val_hinge"] is not None]
    return min(fitted, key=lambda r: r["val_hinge"])["lambda"], records
