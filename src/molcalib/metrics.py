"""Reliability and screening metrics over prediction arrays.

Each metric takes only the arrays it reads, of one length: the
predicted positive-class probabilities ``p_hat``, the thresholded labels
``y_pred`` and the ground truth ``y_true``.  Index i of each is one
scored example, a record.  Binned and per-depth results are arrays too.
Everything here is plain numpy; nothing touches the autodiff tape.

Calibration is positive-class reliability: records go into M
equal-width bins by ``p_hat``, where bin m covers (m/M, (m+1)/M] and the
first bin additionally includes 0, and each bin's mean ``p_hat`` (its
confidence) is set against its fraction of true positives.  Expected
calibration error is the count-weighted mean absolute gap between the
two, so it reads about 0 when ``y_true`` is drawn with probability
``p_hat``, whatever the threshold.  AUROC is the Mann-Whitney statistic
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

DEFAULT_K_GRID: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
#: Bins of the calibration curve and its ECE, unless a caller picks others.
DEFAULT_NUM_BINS = 10

#: Bins of the entropy, output and outcome histograms in every report.
HISTOGRAM_BINS = 20


def _checked(p_hat, **labels) -> list[np.ndarray]:
    """The metric inputs as numpy arrays of one shape: ``p_hat`` as
    float64 in [0, 1] unless it is None, then each label array, by name,
    as int64 holding only 0 and 1."""
    arrays = [] if p_hat is None else [np.asarray(p_hat, dtype=np.float64)]
    if arrays and not np.all((arrays[0] >= 0.0) & (arrays[0] <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")  # or NaN
    for name, values in labels.items():
        y = np.asarray(values)
        if not np.all((y == 0) | (y == 1)):
            raise ValueError(f"{name} must hold only 0 and 1")
        arrays.append(y.astype(np.int64))
    if len({a.shape for a in arrays}) > 1:
        raise ValueError(f"metric arrays must share one shape, got "
                         f"{', '.join(str(a.shape) for a in arrays)}")
    return arrays


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
class CalibrationBins:
    """Bin m covers (edges[m], edges[m + 1]], the first also 0, and holds
    counts[m] records of mean ``y_true`` positive_fraction[m] and mean
    ``p_hat`` confidence[m]; both read 0.0 in an empty bin."""

    edges: np.ndarray  # num_bins + 1
    counts: np.ndarray  # num_bins, as are the fields below
    positive_fraction: np.ndarray
    confidence: np.ndarray
    defined: np.ndarray  # counts > 0

    def ece(self) -> float:
        """Count-weighted mean |positive fraction - confidence|; empty bins
        contribute nothing."""
        n = int(self.counts.sum())
        if n == 0:
            raise DegenerateError("calibration error of zero records")
        gaps = self.counts / n * np.abs(self.positive_fraction
                                         - self.confidence)
        # summed in bin order, not pairwise: manifests keep ECE's last bit
        return sum(gaps[self.defined].tolist())


def _bins(p, yt, num_bins: int) -> CalibrationBins:
    if num_bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    # side="left" puts values sitting on an edge into the bin below it;
    # clipping pulls p = 0 into the first (closed) bin
    idx = np.clip(np.searchsorted(edges, p, side="left") - 1, 0, num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    defined = counts > 0
    # a weighted bincount of zeros and ones counts exactly
    positives = np.bincount(idx, weights=yt, minlength=num_bins)
    fraction = np.divide(positives, counts, out=np.zeros(num_bins),
                         where=defined)
    # np.mean's pairwise sum per bin, which a weighted bincount's running
    # sum does not reproduce bit for bit
    confidence = np.array([p[idx == m].mean() if defined[m] else 0.0
                           for m in range(num_bins)])
    return CalibrationBins(edges, counts, fraction, confidence, defined)


def bin_predictions(p_hat, y_true,
                    num_bins: int = DEFAULT_NUM_BINS) -> CalibrationBins:
    return _bins(*_checked(p_hat, y_true=y_true), num_bins)


def ece(p_hat, y_true, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Expected calibration error of the positive-class probability;
    empty bins contribute nothing."""
    return bin_predictions(p_hat, y_true, num_bins).ece()


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


def _outcomes(yp, yt) -> dict[str, np.ndarray]:
    """Each record's confusion outcome, as one mask per outcome."""
    return {"tp": (yp == 1) & (yt == 1), "fp": (yp == 1) & (yt == 0),
            "tn": (yp == 0) & (yt == 0), "fn": (yp == 0) & (yt == 1)}


def _confusion(yp, yt) -> ClassificationMetrics:
    if yp.size == 0:
        raise DegenerateError("classification metrics of zero records")
    tp, fp, tn, fn = (int(mask.sum()) for mask in _outcomes(yp, yt).values())
    accuracy = (tp + tn) / yp.size
    p_def = (tp + fp) > 0
    r_def = (tp + fn) > 0
    precision = tp / (tp + fp) if p_def else 0.0
    recall = tp / (tp + fn) if r_def else 0.0
    f_def = p_def and r_def and (precision + recall) > 0
    f1 = 2 * precision * recall / (precision + recall) if f_def else 0.0
    return ClassificationMetrics(accuracy, precision, recall, f1,
                                 tp, fp, tn, fn, p_def, r_def, f_def)


def classification_metrics(y_pred, y_true) -> ClassificationMetrics:
    """Confusion-matrix metrics; undefined ratios carry 0.0 and a flag."""
    return _confusion(*_checked(None, y_pred=y_pred, y_true=y_true))


def _auroc(p, yt) -> float:
    n_pos = int(np.sum(yt == 1))
    n_neg = int(np.sum(yt == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateError(
            f"AUROC needs both classes, got {n_pos} positives and "
            f"{n_neg} negatives"
        )
    # a run of c tied scores ending at 1-based rank e shares the average
    # rank e - (c - 1) / 2
    _, run, counts = np.unique(p, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - 0.5 * (counts - 1))[run]
    rank_sum = float(ranks[yt == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auroc(p_hat, y_true) -> float:
    """Mann-Whitney AUROC with ties counted half.

    Raises :class:`DegenerateError` when only one class is present.
    """
    return _auroc(*_checked(p_hat, y_true=y_true))


# -- histograms ------------------------------------------------------


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # length bins + 1
    counts: np.ndarray  # length bins

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def fixed_histogram(values, upper: float, num_bins: int) -> Histogram:
    """Equal-width histogram over [0, upper], upper > 0; values at upper
    land in the last bin, values outside the range in the end bins, and
    NaN in none: the counts and edges of ``np.histogram`` of the clipped
    values, at a fraction of its cost."""
    edges = np.linspace(0.0, upper, num_bins + 1)
    # the float below `upper` falls in the last bin, as `upper` does; NaN
    # sorts past every edge into an extra bin that is dropped
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0,
                  np.nextafter(upper, 0.0))
    index = np.searchsorted(edges, arr, side="right") - 1
    counts = np.bincount(index, minlength=num_bins + 1)[:num_bins]
    return Histogram(edges=edges, counts=counts)


def _outcome_hists(p, yp, yt, num_bins: int) -> dict[str, Histogram]:
    return {name: fixed_histogram(p[mask], 1.0, num_bins)
            for name, mask in _outcomes(yp, yt).items()}


def outcome_histograms(p_hat, y_pred, y_true,
                       num_bins: int) -> dict[str, Histogram]:
    """Output histograms split by confusion outcome (tp / fp / tn / fn)."""
    return _outcome_hists(*_checked(p_hat, y_pred=y_pred, y_true=y_true),
                          num_bins)


# -- virtual screening -----------------------------------------------


@dataclass(frozen=True)
class ScreeningCurve:
    """The screening curve at each depth k_percent[j]: the top screened[j]
    records by descending ``p_hat`` hold success_rate[j] true positives
    per record."""

    k_percent: np.ndarray
    screened: np.ndarray  # int64
    success_rate: np.ndarray


def _screening(p, yt, k_grid) -> ScreeningCurve:
    if p.size == 0:
        raise DegenerateError("screening curve of zero records")
    k = np.asarray(k_grid, dtype=np.float64)
    outside = k[~((k > 0.0) & (k <= 100.0))]
    if outside.size:
        raise ValueError(f"screening percentage {outside[0]} outside (0, 100]")
    taken = np.ceil(p.size * k / 100.0).astype(np.int64)
    hits = np.cumsum(yt[np.argsort(-p, kind="stable")])
    return ScreeningCurve(k, taken, hits[taken - 1] / taken)


def screening_curve(p_hat, y_true, k_grid=DEFAULT_K_GRID) -> ScreeningCurve:
    return _screening(*_checked(p_hat, y_true=y_true), k_grid)


# -- bundled report --------------------------------------------------


@dataclass
class ReliabilityReport:
    num_records: int
    prevalence: float
    bins: CalibrationBins
    ece: float
    metrics: ClassificationMetrics
    auroc: float
    auroc_defined: bool
    entropy_hist: Histogram
    output_hist: Histogram
    outcome_hists: dict[str, Histogram]
    screening: ScreeningCurve
    p_hat: np.ndarray  # the scored probabilities, one per record
    y_pred: np.ndarray  # the thresholded labels, one per record

    def to_dict(self) -> dict:
        bins = self.bins
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
            "calibration_bins": _rows(
                lower=bins.edges[:-1], upper=bins.edges[1:],
                count=bins.counts, positive_fraction=bins.positive_fraction,
                confidence=bins.confidence, defined=bins.defined),
            "screening": _rows(**vars(self.screening)),
        }


def _rows(**columns) -> list[dict]:
    """One dict of Python scalars per index of the equal-length arrays
    `columns`, keyed by column name."""
    return [dict(zip(columns, row))
            for row in zip(*(column.tolist() for column in columns.values()))]


def build_report(p_hat, y_pred, y_true, num_bins: int = DEFAULT_NUM_BINS,
                 k_grid=DEFAULT_K_GRID) -> ReliabilityReport:
    """Assemble every evaluation artifact from one set of arrays, checked
    once.

    Single-class inputs leave AUROC unset (flagged) instead of
    propagating :class:`DegenerateError`, so end-of-run reporting cannot
    fall over on a pathological split.
    """
    p, yp, yt = _checked(p_hat, y_pred=y_pred, y_true=y_true)
    if p.size == 0:
        raise DegenerateError("report of zero records")
    try:
        roc, roc_defined = _auroc(p, yt), True
    except DegenerateError:
        roc, roc_defined = 0.0, False
    bins = _bins(p, yt, num_bins)
    return ReliabilityReport(
        num_records=p.size,
        prevalence=float(np.mean(yt == 1)),
        bins=bins,
        ece=bins.ece(),
        metrics=_confusion(yp, yt),
        auroc=roc,
        auroc_defined=roc_defined,
        entropy_hist=fixed_histogram(entropy(p), LN2, HISTOGRAM_BINS),
        output_hist=fixed_histogram(p, 1.0, HISTOGRAM_BINS),
        outcome_hists=_outcome_hists(p, yp, yt, HISTOGRAM_BINS),
        screening=_screening(p, yt, k_grid),
        p_hat=p,
        y_pred=yp,
    )
