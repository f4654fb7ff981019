"""Dataset ingestion, label encoding, and deterministic split generation.

Supported on-disk formats, UTF-8 with or without a leading byte-order mark:
  * CSV: header row, a column named ``label`` (any position),
    every other column parsed as float64.
  * sparse: one instance per line, ``<label> <idx>:<val> ...`` with
    1-based strictly increasing indices (libsvm style); a line whose
    first token holds ``:`` has no label and is refused.

Labels are re-encoded to dense 0..c-1 ids in order of first appearance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset file or degenerate dataset contents."""


CONSTANT_STD = 1e-12  # the std at or below which a feature column counts as constant


@dataclass
class Dataset:
    """An in-memory dataset: feature matrix plus encoded labels.

    instances: (n, d) float64 matrix with d >= 1, all values finite.
    labels: (n,) integer class ids in 0..c-1; every id occurs at least once.
    class_names: the original label strings, indexed by class id.
    """

    instances: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        self.instances = np.asarray(self.instances, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.instances.shape[0]
        if n < 2:
            raise DatasetError(f"need at least 2 instances, got {n}")
        if self.d < 1:
            raise DatasetError("need at least 1 feature column, got 0")
        if self.labels.shape != (n,):
            raise DatasetError("labels length does not match instance count")
        if not np.all(np.isfinite(self.instances)):
            raise DatasetError("non-finite feature value in dataset")
        c = len(self.class_names)
        if c < 2:
            raise DatasetError("only one class present")
        if self.labels.min() < 0 or self.labels.max() >= c:
            raise DatasetError("label id out of range")
        present = np.bincount(self.labels, minlength=c)
        if np.any(present == 0):
            missing = int(np.argmin(present))
            raise DatasetError(f"class id {missing} has no instances")

    @property
    def n(self) -> int:
        return self.instances.shape[0]

    @property
    def d(self) -> int:
        return self.instances.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices) -> "Dataset":
        """Row subset keeping the global label encoding."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.instances[idx], self.labels[idx], self.class_names)


def _encode_labels(raw: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    # class ids by first appearance, single pass
    ids: dict[str, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, name in enumerate(raw):
        if name not in ids:
            ids[name] = len(ids)
        out[i] = ids[name]
    return out, tuple(ids.keys())


def _parse_float(text: str, path: str, lineno: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DatasetError(f"{path}:{lineno}: cannot parse {text!r} as float") from None
    if not math.isfinite(v):
        raise DatasetError(f"{path}:{lineno}: non-finite value {text!r}")
    return v


def _load_csv(path: str) -> Dataset:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise DatasetError(f"{path}:1: no 'label' column in header")
        label_col = header.index("label")
        feat_cols = [j for j in range(len(header)) if j != label_col]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue  # skip blank lines
            if len(rec) != len(header):
                raise DatasetError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(rec)}"
                )
            raw_labels.append(rec[label_col].strip())
            rows.append([_parse_float(rec[j], path, lineno) for j in feat_cols])

    return Dataset(np.array(rows, dtype=np.float64), *_encode_labels(raw_labels))


def _load_sparse(path: str) -> Dataset:
    raw_labels: list[str] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if ":" in parts[0]:
                raise DatasetError(f"{path}:{lineno}: missing label before the entry {parts[0]!r}")
            row = len(raw_labels)
            raw_labels.append(parts[0])
            prev = 0
            for tok in parts[1:]:
                if ":" not in tok:
                    raise DatasetError(f"{path}:{lineno}: malformed entry {tok!r}")
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise DatasetError(
                        f"{path}:{lineno}: bad feature index {idx_s!r}"
                    ) from None
                if idx < 1:
                    raise DatasetError(f"{path}:{lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    raise DatasetError(
                        f"{path}:{lineno}: indices not strictly increasing at {idx}"
                    )
                prev = idx
                rows.append(row)
                cols.append(idx - 1)
                vals.append(_parse_float(val_s, path, lineno))

    # indices strictly increase within a line, so no entry is written twice
    X = np.zeros((len(raw_labels), max(cols, default=-1) + 1), dtype=np.float64)
    X[rows, cols] = vals
    return Dataset(X, *_encode_labels(raw_labels))


def load_dataset(path: str, format: str = "csv") -> Dataset:
    """Load a "csv" or "sparse_svm" dataset file, refusing one on which no
    feature column varies (every kernel of its bank would be degenerate) or
    one whose column spread overflows (scaling would zero that column)."""
    if format not in ("csv", "sparse_svm"):
        raise DatasetError(f"unknown format {format!r}")
    dataset = _load_csv(path) if format == "csv" else _load_sparse(path)
    with np.errstate(over="ignore"):
        std = dataset.instances.std(axis=0)
    overflow = np.flatnonzero(~np.isfinite(std))
    if overflow.size:
        raise DatasetError(f"the std of feature column {overflow[0]} (counting from 0) overflows")
    if not np.any(std > CONSTANT_STD):
        raise DatasetError(f"no feature column varies (every std <= {CONSTANT_STD:g})")
    return dataset


# ---------------------------------------------------------------------------
# splits


@dataclass
class SplitPlan:
    """A deterministic train/test index split: disjoint, sorted, both non-empty."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)
        if self.train_indices.size == 0 or self.test_indices.size == 0:
            raise ValueError("split has an empty side")
        if np.intersect1d(self.train_indices, self.test_indices).size > 0:
            raise ValueError("train and test overlap")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def holdout_split(
    dataset: Dataset,
    train_fraction: float,
    seed: int,
    stratified: bool = True,
) -> SplitPlan:
    """One random train/test split, deterministic for a fixed seed.

    Stratified mode shuffles and splits each class separately, so class
    proportions are preserved up to rounding of one instance per class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    n = dataset.n
    rng = np.random.default_rng(seed)

    if stratified:
        train_parts, test_parts = [], []
        for c in range(dataset.n_classes):
            idx_c = np.flatnonzero(dataset.labels == c)
            if idx_c.size < 2:
                raise ValueError(
                    f"stratified split needs >= 2 members per class, class {c} has {idx_c.size}"
                )
            perm = rng.permutation(idx_c)
            t = _round_half_up(train_fraction * idx_c.size)
            t = min(max(t, 1), idx_c.size - 1)
            train_parts.append(perm[:t])
            test_parts.append(perm[t:])
        train = np.sort(np.concatenate(train_parts))
        test = np.sort(np.concatenate(test_parts))
    else:
        n_train = _round_half_up(train_fraction * n)
        if n_train == 0 or n_train == n:
            raise ValueError(f"train_fraction {train_fraction} yields an empty side for n={n}")
        perm = rng.permutation(n)
        train = np.sort(perm[:n_train])
        test = np.sort(perm[n_train:])

    return SplitPlan(train_indices=train, test_indices=test)


def kfold_plan(n: int, k: int, seed: int) -> list[SplitPlan]:
    """k plans whose test folds partition [0, n); fold sizes differ by <= 1."""
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    # array_split gives the first n % k folds one row more
    folds = np.array_split(rng.permutation(n), k)
    return [SplitPlan(np.setdiff1d(np.arange(n), fold), np.sort(fold)) for fold in folds]


# ---------------------------------------------------------------------------
# feature preprocessing


@dataclass
class FeatureScaler:
    """Per-column z-scoring fit on training rows only.

    Zero-variance columns are centered but not scaled (scale 1), so
    constant features pass through as exact zeros.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaler":
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        scale = np.where(std > CONSTANT_STD, std, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale
