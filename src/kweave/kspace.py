"""The pairwise K-space: one example per instance pair (i <= j), in stage one's row order.

A pair (i, j) of training instances becomes a p-dimensional example whose
coordinates are the p base-kernel values for that pair, labeled +1 when the
instances share a class and -1 otherwise. The z vectors are the rows of the
centered bank's own pair-major float32 store, bank.Z, whose row r holds
the pair bank.pairs records at r; the K-space adds only labels, and every
subset is a contiguous block of rows, a view.

The row order is planned before centering, whatever the method, from the
train labels and two seeds alone; plan_rows hands center_bank the pairs of
the validation rows, then the lambda-train rows (together the balanced set,
permuted once), then the rows balancing drops. Balancing and the lambda
split make the same rng calls as they would to subset np.triu_indices'
order, so the sets are the same: the leading blocks of the store. A Pegasos
batch is B consecutive rows of a block from a seeded phase, cycling:
shuffle-once SGD (Mishchenko, Khaled & Richtarik, NeurIPS 2020) rather than
Pegasos's i.i.d. draws, read as a view; only a batch that wraps past the
block's end is gathered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelBank


@dataclass
class KBatch:
    """A minibatch of (batch, p) rows z and their +-1 labels t: views of the
    set's rows, or for a batch that wraps past its end, gathered copies."""

    z: np.ndarray
    t: np.ndarray


class KExampleSet:
    """Labeled instance pairs: the rows of a pair-major matrix, in order.

    stack is (m, p) and t holds one +-1 label per row (int8 from
    make_kexamples): for the pair (i, j), i <= j, at row r,
    z[l] = K_l[i, j] = stack[r, l], and t[r] = +1 iff the two instances
    share a class (diagonal pairs are always +1). kset[a:b] is the set of
    rows a .. b - 1, a view of both arrays.
    """

    def __init__(self, t: np.ndarray, stack: np.ndarray):
        self.t = np.asarray(t)
        self.stack = stack
        if self.t.ndim != 1 or self.stack.ndim != 2 or self.stack.shape[0] != self.t.shape[0]:
            raise ValueError("stack must be (m, p), with one label per row")

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, rows: slice) -> "KExampleSet":
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a K-example subset is a contiguous slice of rows")
        return KExampleSet(self.t[rows], self.stack[rows])

    @property
    def p(self) -> int:
        return self.stack.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.t > 0))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.t < 0))

    def scores(self, mu: np.ndarray) -> np.ndarray:
        """mu . z for every pair in the set, as float64: one GEMV over its rows,
        with mu cast explicitly to the stack's dtype."""
        mu = np.asarray(mu, dtype=np.float64).astype(self.stack.dtype, copy=False)
        return (self.stack @ mu).astype(np.float64, copy=False)


def pair_counts(labels) -> tuple[int, int]:
    """(same, cross): the pairs i <= j of the labeled instances that share a
    class (the +1 K-examples) and those that do not, from the class counts."""
    counts = np.unique(labels, return_counts=True)[1]
    n = int(counts.sum())
    same = int(np.sum(counts * (counts + 1) // 2))
    return same, n * (n + 1) // 2 - same


def plan_rows(train_labels, balance_seed: int, split_seed: int):
    """((ii, jj), m): each row's pair i <= j as int32 indices, for center_bank,
    and the balanced K-example count. Rows 0 .. m - 1 are the balanced set in
    rng(split_seed).permutation(m) order, with the majority pairs kept by
    rng(balance_seed).choice; the dropped pairs follow in triu_indices order.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    ii, jj = (a.astype(np.int32) for a in np.triu_indices(labels.shape[0]))
    same = labels[ii] == labels[jj]
    n_pos, n_neg = pair_counts(labels)
    m = 2 * min(n_pos, n_neg)
    keep = np.ones(same.size, dtype=bool)
    if n_pos != n_neg:
        maj = np.flatnonzero(same if n_pos > n_neg else ~same)
        keep[maj] = False
        keep[np.random.default_rng(balance_seed).choice(maj, size=m // 2, replace=False)] = True
    balanced = np.flatnonzero(keep)[np.random.default_rng(split_seed).permutation(m)]
    order = np.concatenate([balanced, np.flatnonzero(~keep)])
    return (ii[order], jj[order]), m


def make_kexamples(train_labels: np.ndarray, bank: KernelBank) -> KExampleSet:
    """Label all pairs i <= j of a centered bank's instances, in its row order.

    The z vectors are bank.Z itself, not a copy. The bank must share the
    ordering of train_labels.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    if bank.n != len(labels):
        raise ValueError(f"bank Grams are {bank.n} x {bank.n}, labels have length {len(labels)}")
    ii, jj = bank.pairs
    t = np.where(labels[ii] == labels[jj], 1, -1).astype(np.int8)
    return KExampleSet(t=t, stack=bank.Z)


def balance(kset: KExampleSet) -> KExampleSet:
    """The balanced set of a K-space in planned order (plan_rows): its leading
    2 * min(n_pos, n_neg) rows, a view.

    Raises ValueError when a K-class is empty, or when that block is not
    balanced, i.e. the rows are not in planned order.
    """
    n_pos, n_neg = kset.n_pos, kset.n_neg
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"cannot balance: n_pos={n_pos}, n_neg={n_neg}")
    bal = kset[: 2 * min(n_pos, n_neg)]
    if bal.n_pos != bal.n_neg:
        raise ValueError("cannot balance: the K-space rows are not in planned order")
    return bal


def sample_batch(kset: KExampleSet, start: int, size: int) -> KBatch:
    """The size consecutive rows from start, cycling past the end.

    A batch inside the set is a view of its rows; one that wraps is gathered.
    """
    m = len(kset)
    if m == 0:
        raise ValueError("cannot sample from an empty K-example set")
    if not 0 <= start < m:
        raise ValueError(f"batch start {start} outside [0, {m})")
    stop = start + size
    if stop <= m:
        return KBatch(kset.stack[start:stop], kset.t[start:stop])
    rows = np.arange(start, stop)
    return KBatch(np.take(kset.stack, rows, 0, mode="wrap"), np.take(kset.t, rows, mode="wrap"))
