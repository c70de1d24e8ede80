"""Reliability and screening metrics over prediction arrays.

Every metric takes three equal-length arrays: the predicted
positive-class probabilities ``p_hat``, the thresholded labels ``y_pred``
and the ground truth ``y_true``.  Index i of the three is one scored
example, a record.  Everything here is plain numpy; nothing touches the
autodiff tape.

Calibration uses M equal-width probability bins where bin m covers
(m/M, (m+1)/M] and the first bin additionally includes 0.  Expected
calibration error is the count-weighted mean absolute gap between per-bin
accuracy and per-bin mean confidence.  AUROC is the Mann-Whitney statistic
with tied scores counted half, computed from tie-averaged ranks.  The
screening curve takes the top ceil(n * K / 100) records by descending
probability (ties broken by original order) and reports the fraction of
true positives among them; at K = 100 that is exactly the dataset
prevalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError

LN2 = math.log(2.0)

DEFAULT_K_GRID: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100)


def _arrays(p_hat, y_pred, y_true) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Validate the three metric inputs and return them as numpy arrays."""
    p = np.asarray(p_hat, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.int64)
    yt = np.asarray(y_true, dtype=np.int64)
    if not (p.shape == yp.shape == yt.shape):
        raise ValueError(
            f"metric arrays must share one shape, got {p.shape}, "
            f"{yp.shape} and {yt.shape}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("probabilities must lie in [0, 1]")
    return p, yp, yt


# -- entropy ---------------------------------------------------------


def entropy(p):
    """Binary entropy in nats; exactly 0 at the endpoints, ln 2 at 1/2."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("entropy needs probabilities in [0, 1]")
    safe = np.clip(arr, 1e-300, 1.0 - 1e-16)
    h = -safe * np.log(safe) - (1.0 - safe) * np.log1p(-safe)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    return float(h) if np.isscalar(p) else h


# -- calibration -----------------------------------------------------


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    count: int
    accuracy: float
    confidence: float
    defined: bool


def bin_predictions(p_hat, y_pred, y_true,
                    num_bins: int = 10) -> list[CalibrationBin]:
    if num_bins < 1:
        raise ValueError("need at least one bin")
    p, yp, yt = _arrays(p_hat, y_pred, y_true)
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    # side="left" puts values sitting on an edge into the bin below it;
    # clipping pulls p = 0 into the first (closed) bin
    idx = np.clip(np.searchsorted(edges, p, side="left") - 1, 0, num_bins - 1)
    bins = []
    for m in range(num_bins):
        mask = idx == m
        count = int(mask.sum())
        if count:
            acc = float((yp[mask] == yt[mask]).mean())
            conf = float(p[mask].mean())
            bins.append(CalibrationBin(edges[m], edges[m + 1], count,
                                       acc, conf, True))
        else:
            bins.append(CalibrationBin(edges[m], edges[m + 1], 0,
                                       0.0, 0.0, False))
    return bins


def ece(p_hat, y_pred, y_true, num_bins: int = 10) -> float:
    """Expected calibration error; empty bins contribute nothing."""
    p, yp, yt = _arrays(p_hat, y_pred, y_true)
    n = p.size
    if n == 0:
        raise DegenerateError("calibration error of zero records")
    total = 0.0
    for b in bin_predictions(p, yp, yt, num_bins):
        if b.defined:
            total += (b.count / n) * abs(b.accuracy - b.confidence)
    return total


# -- classification metrics ------------------------------------------


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    precision_defined: bool
    recall_defined: bool
    f1_defined: bool


def classification_metrics(p_hat, y_pred, y_true) -> ClassificationMetrics:
    """Confusion-matrix metrics; undefined ratios carry 0.0 and a flag."""
    _, yp, yt = _arrays(p_hat, y_pred, y_true)
    if yp.size == 0:
        raise DegenerateError("classification metrics of zero records")
    tp = int(np.sum((yp == 1) & (yt == 1)))
    fp = int(np.sum((yp == 1) & (yt == 0)))
    tn = int(np.sum((yp == 0) & (yt == 0)))
    fn = int(np.sum((yp == 0) & (yt == 1)))
    accuracy = (tp + tn) / yp.size
    p_def = (tp + fp) > 0
    r_def = (tp + fn) > 0
    precision = tp / (tp + fp) if p_def else 0.0
    recall = tp / (tp + fn) if r_def else 0.0
    f_def = p_def and r_def and (precision + recall) > 0
    f1 = 2 * precision * recall / (precision + recall) if f_def else 0.0
    return ClassificationMetrics(accuracy, precision, recall, f1,
                                 tp, fp, tn, fn, p_def, r_def, f_def)


def auroc(p_hat, y_pred, y_true) -> float:
    """Mann-Whitney AUROC with ties counted half.

    Raises :class:`DegenerateError` when only one class is present.
    """
    p, _, yt = _arrays(p_hat, y_pred, y_true)
    n_pos = int(np.sum(yt == 1))
    n_neg = int(np.sum(yt == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateError(
            f"AUROC needs both classes, got {n_pos} positives and "
            f"{n_neg} negatives"
        )
    order = np.argsort(p, kind="stable")
    ranks = np.empty(p.size, dtype=np.float64)
    sorted_p = p[order]
    i = 0
    while i < p.size:
        j = i
        while j + 1 < p.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    rank_sum = float(ranks[yt == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# -- histograms ------------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # length bins + 1
    counts: np.ndarray  # length bins

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def fixed_histogram(values, upper: float, num_bins: int = 20) -> Histogram:
    """Equal-width histogram over [0, upper]; values at upper land in the
    last bin."""
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, upper)
    counts, edges = np.histogram(arr, bins=num_bins, range=(0.0, upper))
    return Histogram(edges=edges, counts=counts)


def entropy_histogram(p_hat, y_pred, y_true,
                      num_bins: int = 20) -> Histogram:
    p, _, _ = _arrays(p_hat, y_pred, y_true)
    return fixed_histogram(entropy(p), LN2, num_bins)


def output_histogram(p_hat, y_pred, y_true,
                     num_bins: int = 20) -> Histogram:
    p, _, _ = _arrays(p_hat, y_pred, y_true)
    return fixed_histogram(p, 1.0, num_bins)


def outcome_histograms(p_hat, y_pred, y_true,
                       num_bins: int = 20) -> dict[str, Histogram]:
    """Output histograms split by confusion outcome (tp / fp / tn / fn)."""
    p, yp, yt = _arrays(p_hat, y_pred, y_true)
    masks = {
        "tp": (yp == 1) & (yt == 1),
        "fp": (yp == 1) & (yt == 0),
        "tn": (yp == 0) & (yt == 0),
        "fn": (yp == 0) & (yt == 1),
    }
    return {name: fixed_histogram(p[mask], 1.0, num_bins)
            for name, mask in masks.items()}


# -- virtual screening -----------------------------------------------


@dataclass(frozen=True)
class ScreeningPoint:
    k_percent: float
    screened: int
    success_rate: float


def screening_curve(p_hat, y_pred, y_true,
                    k_grid=DEFAULT_K_GRID) -> list[ScreeningPoint]:
    p, _, yt = _arrays(p_hat, y_pred, y_true)
    n = p.size
    if n == 0:
        raise DegenerateError("screening curve of zero records")
    order = np.argsort(-p, kind="stable")
    hits = np.cumsum(yt[order])
    points = []
    for k in k_grid:
        if not (0.0 < k <= 100.0):
            raise ValueError(f"screening percentage {k} outside (0, 100]")
        taken = math.ceil(n * k / 100.0)
        points.append(ScreeningPoint(float(k), taken,
                                     float(hits[taken - 1]) / taken))
    return points


# -- bundled report --------------------------------------------------


@dataclass
class ReliabilityReport:
    num_records: int
    prevalence: float
    bins: list[CalibrationBin]
    ece: float
    metrics: ClassificationMetrics
    auroc: float
    auroc_defined: bool
    entropy_hist: Histogram
    output_hist: Histogram
    outcome_hists: dict[str, Histogram]
    screening: list[ScreeningPoint]

    def to_dict(self) -> dict:
        return {
            "num_records": self.num_records,
            "prevalence": self.prevalence,
            "ece": self.ece,
            "auroc": self.auroc if self.auroc_defined else None,
            "accuracy": self.metrics.accuracy,
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "confusion": {"tp": self.metrics.tp, "fp": self.metrics.fp,
                          "tn": self.metrics.tn, "fn": self.metrics.fn},
            "flags": {
                "precision_defined": self.metrics.precision_defined,
                "recall_defined": self.metrics.recall_defined,
                "f1_defined": self.metrics.f1_defined,
                "auroc_defined": self.auroc_defined,
            },
            "calibration_bins": [
                {"lower": b.lower, "upper": b.upper, "count": b.count,
                 "accuracy": b.accuracy, "confidence": b.confidence,
                 "defined": b.defined} for b in self.bins
            ],
            "screening": [
                {"k_percent": s.k_percent, "screened": s.screened,
                 "success_rate": s.success_rate} for s in self.screening
            ],
        }


def build_report(p_hat, y_pred, y_true, num_bins: int = 10,
                 k_grid=DEFAULT_K_GRID,
                 histogram_bins: int = 20) -> ReliabilityReport:
    """Assemble every evaluation artifact from one set of arrays.

    Single-class inputs leave AUROC unset (flagged) instead of
    propagating :class:`DegenerateError`, so end-of-run reporting cannot
    fall over on a pathological split.
    """
    p, yp, yt = _arrays(p_hat, y_pred, y_true)
    if p.size == 0:
        raise DegenerateError("report of zero records")
    try:
        roc, roc_defined = auroc(p, yp, yt), True
    except DegenerateError:
        roc, roc_defined = 0.0, False
    return ReliabilityReport(
        num_records=p.size,
        prevalence=float(np.mean(yt == 1)),
        bins=bin_predictions(p, yp, yt, num_bins),
        ece=ece(p, yp, yt, num_bins),
        metrics=classification_metrics(p, yp, yt),
        auroc=roc,
        auroc_defined=roc_defined,
        entropy_hist=entropy_histogram(p, yp, yt, histogram_bins),
        output_hist=output_histogram(p, yp, yt, histogram_bins),
        outcome_hists=outcome_histograms(p, yp, yt, histogram_bins),
        screening=screening_curve(p, yp, yt, k_grid),
    )
