"""The pairwise K-space: one example per instance pair (i <= j).

A pair (i, j) of training instances becomes a p-dimensional example whose
coordinates are the p base-kernel values for that pair, labeled +1 when the
instances share a class and -1 otherwise. The z vectors are the centered
bank's own pair-major store, bank.Z: one C-contiguous (n(n+1)/2, p)
float32 matrix of n(n+1)/2 * p * 4 bytes, owned by the bank. The K-space
adds only labels and row indices to it, and every subset (balancing, the
lambda train/validation split) shares it too, copying only those arrays. A
set stores no (i, j) pairs: for a bank's store, the pairs of its rows are
pair_indices(n) indexed by rows.
A minibatch is a gather of contiguous rows at positions the caller drew,
into a caller's buffer of the stack's dtype when one is given. The sets
over one stack also share one cached score vector, stack @ mu for the last
mu scored, so the train and validation hinges of one weight vector cost
one GEMV, run at the stack's dtype and kept as float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelBank, pair_indices


@dataclass
class KBatch:
    """A gathered minibatch: z is (batch, p), t is the int8 +-1 labels.

    z may be the buffer the caller passed to sample_batch; the next call
    with that buffer overwrites it.
    """

    z: np.ndarray
    t: np.ndarray


class KExampleSet:
    """Labeled instance pairs indexing rows of a shared pair-major matrix.

    stack is (m, p); rows[k] is the stack row of the k-th pair of this set,
    stack rows 0 .. len(t) - 1 in order when rows is None. For the pair
    (i, j), i <= j, at stack row r: z[l] = K_l[i, j] = stack[r, l], and
    t = +1 iff the two instances share a class (diagonal pairs are always
    +1). The stack is read-only: subsets share the score cache of the set
    they came from, which assumes its values never change.
    """

    def __init__(self, t: np.ndarray, stack: np.ndarray, rows=None):
        self.t = np.asarray(t, dtype=np.int8)
        self.stack = stack
        self._score_cache = [None, None]  # [mu bytes, stack @ mu], shared with subsets
        self.rows = np.arange(len(self.t)) if rows is None else np.asarray(rows, np.int64)
        if self.t.ndim != 1 or self.rows.shape != self.t.shape:
            raise ValueError("labels must be 1-D, with one stack row each")
        if self.stack.ndim != 2:
            raise ValueError("stack must be (m, p)")
        # gathers use mode="clip", which would clamp a bad row, not raise; with
        # rows None this refuses a stack shorter than the pair count
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= self.stack.shape[0]):
            raise ValueError(f"rows must lie in [0, {self.stack.shape[0]})")

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def p(self) -> int:
        return self.stack.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.t > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.t < 0))

    def z_rows(self, positions, out=None) -> np.ndarray:
        """Gather z vectors for the given pair positions: (len, p) of the stack's
        dtype, into out if given."""
        # rows were range-checked at construction; "clip" skips the per-call bounds check
        rows = self.rows[np.asarray(positions, dtype=np.int64)]
        return np.take(self.stack, rows, axis=0, out=out, mode="clip")

    def scores(self, mu: np.ndarray) -> np.ndarray:
        """mu . z for every pair in the set, as float64.

        One GEMV over the shared matrix, with mu cast explicitly to the
        stack's dtype, reused by every set over the stack while mu's values
        stay the same (compared bitwise, so a mu changed in place misses).
        """
        mu = np.asarray(mu, dtype=np.float64)
        key = mu.tobytes()
        cache = self._score_cache
        if cache[0] != key:
            scores = self.stack @ mu.astype(self.stack.dtype, copy=False)
            cache[:] = [key, scores.astype(np.float64, copy=False)]
        return cache[1][self.rows]

    def subset(self, positions) -> "KExampleSet":
        pos = np.asarray(positions, dtype=np.int64)
        sub = KExampleSet(self.t[pos], self.stack, self.rows[pos])
        sub._score_cache = self._score_cache
        return sub


def make_kexamples(train_labels: np.ndarray, bank: KernelBank) -> KExampleSet:
    """Label all pairs i <= j of a centered bank's instances.

    The z vectors are bank.Z itself, not a copy, and the set's rows are
    its rows in order. The bank must share the ordering of train_labels.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    n = labels.shape[0]
    if bank.n != n:
        raise ValueError(f"bank Grams are {bank.n} x {bank.n}, labels have length {n}")
    ii, jj = pair_indices(n)
    t = np.where(labels[ii] == labels[jj], 1, -1).astype(np.int8)
    return KExampleSet(t=t, stack=bank.Z)


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


def sample_batch(kset: KExampleSet, positions, out=None) -> KBatch:
    """Gather the z rows and labels of a minibatch at the given pair positions.

    The caller draws the positions (pegasos_train draws a block of steps'
    worth in one call). out, when given, is a (len(positions), p) buffer of
    the stack's dtype that the rows are gathered into; the batch's z is
    then that buffer.
    """
    if len(kset) == 0:
        raise ValueError("cannot sample from an empty K-example set")
    return KBatch(z=kset.z_rows(positions, out=out), t=kset.t[positions])
