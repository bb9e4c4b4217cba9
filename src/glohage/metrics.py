"""MAE and cumulative-score evaluation metrics."""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyError, LengthMismatchError


@dataclass
class EvalReport:
    mae: float
    per_fold: list  # (person_id, n, fold mae) triples
    cs_curve: np.ndarray  # CS(j) for j = 0..cs_max
    n: int
    err_std: float  # std of pooled absolute errors


def _check(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LengthMismatchError(f"pred {pred.shape} vs truth {truth.shape}")
    if pred.size == 0:
        raise EmptyError("no predictions")
    return pred, truth


def mae(pred, truth):
    pred, truth = _check(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def cumulative_score(pred, truth, j):
    """Fraction of samples with absolute error at most j years."""
    pred, truth = _check(pred, truth)
    return float(np.mean(np.abs(pred - truth) <= j))


def aggregate(fold_results, cs_max=15):
    """Pool per-fold predictions into one report.

    ``fold_results`` is a list of (person_id, pred, truth). The headline
    MAE and CS(j) are ``mae`` and ``cumulative_score`` of all test samples
    pooled (not the mean of fold MAEs).
    """
    if not fold_results:
        raise EmptyError("no folds")
    per_fold = []
    all_pred, all_truth = [], []
    for person, pred, truth in fold_results:
        pred, truth = _check(pred, truth)
        per_fold.append((person, len(pred), mae(pred, truth)))
        all_pred.append(pred)
        all_truth.append(truth)
    pred = np.concatenate(all_pred)
    truth = np.concatenate(all_truth)
    return EvalReport(
        mae=mae(pred, truth),
        per_fold=per_fold,
        cs_curve=np.array([cumulative_score(pred, truth, j) for j in range(cs_max + 1)]),
        n=len(pred),
        err_std=float(np.abs(pred - truth).std()),
    )


def write_report(path, report):
    """Emit the report CSV: summary, std, cs and per-fold rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))


def format_report(report):
    """The report as CSV text; a person id holding a comma or a quote is
    quoted, so every fold row keeps four fields."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["summary", report.n, repr(report.mae)])
    rows.writerow(["std", repr(report.err_std)])
    for j, v in enumerate(report.cs_curve):
        rows.writerow(["cs", j, repr(float(v))])
    for person, n, fold_mae in report.per_fold:
        rows.writerow(["fold", person, n, repr(fold_mae)])
    return out.getvalue()
