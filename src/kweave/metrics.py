"""Evaluation measures: accuracy, per-class rates, F1, MCC, and margin filtering."""

from __future__ import annotations

import numpy as np


def confusion_matrix(true_labels, predicted_labels, c: int) -> np.ndarray:
    """(c, c) int64 counts: [i, j] = instances of true class i predicted as class j."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError("label vectors must be 1-d and equal length")
    if t.size == 0:
        raise ValueError("empty input")
    if t.min() < 0 or t.max() >= c or p.min() < 0 or p.max() >= c:
        raise ValueError("labels out of range")
    return np.bincount(t * c + p, minlength=c * c).reshape(c, c)


def evaluate(true_labels, predicted_labels, c: int) -> dict:
    """The reports' metrics dict: accuracy, mean per-class recall, per-class F1
    and one-vs-rest MCC, and retained_fraction 1.0 (filter_unsure sets it).

    0/0 cases (a class absent from truth or predictions) score 0 for both
    F1 and MCC rather than propagating NaN.
    """
    cm = confusion_matrix(true_labels, predicted_labels, c)
    counts = cm.astype(np.float64)
    total = counts.sum()
    tp = np.diag(counts)
    row = counts.sum(axis=1)  # true-class supports
    col = counts.sum(axis=0)  # predicted-class counts

    recall = np.divide(tp, row, out=np.zeros(c), where=row != 0)
    precision = np.divide(tp, col, out=np.zeros(c), where=col != 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(c), where=pr != 0)

    fp = col - tp
    fn = row - tp
    tn = total - tp - fp - fn
    den = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = np.divide(tp * tn - fp * fn, den, out=np.zeros(c), where=den != 0)

    return {
        "accuracy": float(tp.sum() / total),
        "mean_per_class_accuracy": float(recall.mean()),
        "f1_per_class": f1.tolist(),
        "mcc_per_class": mcc.tolist(),
        "macro_f1": float(f1.mean()),
        "mean_mcc": float(mcc.mean()),
        "retained_fraction": 1.0,
    }


def margin_confidence(decision_matrix) -> np.ndarray:
    """Top decision value minus second-best, per instance."""
    D = np.asarray(decision_matrix, dtype=np.float64)
    if D.ndim != 2 or D.shape[1] < 2:
        raise ValueError("need decision values for at least two classes")
    part = np.partition(D, D.shape[1] - 2, axis=1)
    return part[:, -1] - part[:, -2]


def filter_unsure(confidences, predictions, true_labels, drop_fraction: float, c: int):
    """Drop the floor(rho * m) least-confident predictions, then score the rest.

    Ties in confidence drop the lower index first (stable sort order).
    Returns (retained indices ascending, evaluate's dict on the retained set).
    """
    conf = np.asarray(confidences, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if not (conf.shape == pred.shape == true.shape) or conf.ndim != 1:
        raise ValueError("inputs must be 1-d and equal length")
    if conf.size == 0:
        raise ValueError("empty input")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    m = conf.size
    n_drop = int(np.floor(drop_fraction * m))
    order = np.argsort(conf, kind="stable")
    retained = np.sort(order[n_drop:])
    report = evaluate(true[retained], pred[retained], c)
    report["retained_fraction"] = 1.0 - n_drop / m
    return retained, report
