"""The pairwise K-space: one example per instance pair (i <= j).

A pair (i, j) of training instances becomes a p-dimensional example whose
coordinates are the p base-kernel values for that pair, labeled +1 when the
instances share a class and -1 otherwise. The z vectors are the centered
bank's own pair-major store, bank.Z: one C-contiguous (n(n+1)/2, p)
float64 matrix of n(n+1)/2 * p * 8 bytes, owned by the bank. The K-space
adds only labels and index arrays to it, and every subset (balancing, the
lambda train/validation split) shares it too, copying only index arrays.
A minibatch is then a gather of contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelBank, pair_indices


@dataclass
class KBatch:
    """A gathered minibatch: z is (batch, p), t is a +-1 vector."""

    z: np.ndarray
    t: np.ndarray


class KExampleSet:
    """Labeled instance pairs indexing rows of a shared pair-major matrix.

    stack is (m, p); rows[k] is the stack row of the k-th pair of this set,
    every stack row in order when rows is None. pairs[k] = (i, j) with
    i <= j; z_k[l] = K_l[i, j]; t_k = +1 iff the two instances share a
    class (diagonal pairs are always +1).
    """

    def __init__(self, pairs: np.ndarray, t: np.ndarray, stack: np.ndarray, rows=None):
        self.pairs = np.asarray(pairs, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.int8)
        self.stack = stack
        self.rows = np.arange(len(self.pairs)) if rows is None else np.asarray(rows, np.int64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must be (m, 2)")
        if self.t.shape != (self.pairs.shape[0],) or self.rows.shape != self.t.shape:
            raise ValueError("labels or rows length does not match pair count")
        if self.stack.ndim != 2:
            raise ValueError("stack must be (m, p)")

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def p(self) -> int:
        return self.stack.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.t > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.t < 0))

    def z_rows(self, positions) -> np.ndarray:
        """Gather z vectors for the given pair positions: (len, p)."""
        return self.stack[self.rows[np.asarray(positions, dtype=np.int64)]]

    def scores(self, mu: np.ndarray) -> np.ndarray:
        """mu . z for every pair in the set: one GEMV over the shared matrix."""
        return (self.stack @ np.asarray(mu, dtype=np.float64))[self.rows]

    def subset(self, positions) -> "KExampleSet":
        pos = np.asarray(positions, dtype=np.int64)
        return KExampleSet(self.pairs[pos], self.t[pos], self.stack, self.rows[pos])


def make_kexamples(train_labels: np.ndarray, bank: KernelBank) -> KExampleSet:
    """Label all pairs i <= j of a centered bank's instances.

    The z vectors are bank.Z itself, not a copy, and the pairs are its
    rows in order. The bank must share the ordering of train_labels.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    n = labels.shape[0]
    if bank.n != n:
        raise ValueError(f"bank Grams are {bank.n} x {bank.n}, labels have length {n}")
    ii, jj = pair_indices(n)
    t = np.where(labels[ii] == labels[jj], 1, -1).astype(np.int8)
    return KExampleSet(pairs=np.stack([ii, jj], axis=1), t=t, stack=bank.Z)


def balance(kset: KExampleSet, seed: int) -> KExampleSet:
    """Subsample the majority K-class down to the minority count.

    Without replacement, uniform, deterministic for a fixed seed; the
    minority side is kept whole and the original pair order is preserved.
    """
    n_pos, n_neg = kset.n_pos, kset.n_neg
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"cannot balance: n_pos={n_pos}, n_neg={n_neg}")
    if n_pos == n_neg:
        return kset
    rng = np.random.default_rng(seed)
    if n_pos > n_neg:
        maj = np.flatnonzero(kset.t > 0)
        target = n_neg
    else:
        maj = np.flatnonzero(kset.t < 0)
        target = n_pos
    keep_maj = rng.choice(maj, size=target, replace=False)
    mask = np.ones(len(kset), dtype=bool)
    mask[maj] = False
    mask[keep_maj] = True
    return kset.subset(np.flatnonzero(mask))


def sample_batch(kset: KExampleSet, batch_size: int, rng) -> KBatch:
    """Draw batch_size pairs uniformly with replacement and gather z rows."""
    if len(kset) == 0:
        raise ValueError("cannot sample from an empty K-example set")
    idx = rng.integers(0, len(kset), size=batch_size)
    return KBatch(z=kset.z_rows(idx), t=kset.t[idx].astype(np.float64))
