"""Seeded synthetic binary datasets at the shapes of the paper's UCI tables.

The UCI files need a download, so the benchmark feeds the program
generated data of the same shape and class balance:

    sonar: 208 rows x 60 features, classes 111 / 97
    pima:  768 rows x 8 features,  classes 500 / 268

Features are N(0, 1). The first max(1, d // 6) columns are shifted by
+-SHIFT according to the class, and `round(NOISE * minority)` labels of
each class are then swapped to the other, so class counts stay exact.

Accuracy is kept below 1.0 (a +-0.7 shift alone gives 1.0 on the Sonar
shape) mainly by the class overlap of a small shift, with little label
noise: swapped labels that sit deep inside the other class make the
C = 1000 SMO fits long and their length depend on the dataset. Measured on
the Sonar shape with best_kernel, 15% swaps gave 0.27M-0.44M SMO pair
steps per split, with fits hitting the iteration cap; SHIFT 0.4 and 3%
swaps give 0.18M-0.23M with none, at accuracy 0.73-0.95.
"""

from __future__ import annotations

import csv

import numpy as np

SHAPES = {"sonar": (111, 97, 60), "pima": (500, 268, 8)}
SHIFT = 0.4
NOISE = 0.03
CLASS_NAMES = ("pos", "neg")


def make_dataset(n_pos: int, n_neg: int, d: int, seed: int, index: int = 0):
    """Return (X, labels), labels in {0: pos, 1: neg}; one dataset per (seed, index)."""
    rng = np.random.default_rng([seed, index, n_pos, n_neg, d])
    labels = np.repeat(np.array([0, 1]), [n_pos, n_neg])
    rng.shuffle(labels)
    X = rng.standard_normal((n_pos + n_neg, d))
    k = max(1, d // 6)
    X[:, :k] += np.where(labels == 0, SHIFT, -SHIFT)[:, None]
    swaps = int(round(NOISE * min(n_pos, n_neg)))
    to_neg = rng.choice(np.flatnonzero(labels == 0), swaps, replace=False)
    to_pos = rng.choice(np.flatnonzero(labels == 1), swaps, replace=False)
    labels[to_neg] = 1
    labels[to_pos] = 0
    return X, labels


def write_csv(path, X, labels) -> None:
    """Headered CSV with a `label` column; repr() keeps every float exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow([f"f{j}" for j in range(X.shape[1])] + ["label"])
        for row, lab in zip(X.tolist(), labels.tolist()):
            out.writerow([repr(v) for v in row] + [CLASS_NAMES[lab]])
