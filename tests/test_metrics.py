"""Reliability metric tests against independent brute-force oracles.

Every metric takes the arrays (p_hat, y_pred, y_true); index i of the
three is one record.  The oracles in ``molcalib.selftest`` recompute
every quantity with per-record loops and interval arithmetic, sharing no
code with the library implementation:
binning walks records one by one against (lower, upper] intervals, AUROC
counts all positive/negative pairs in O(n^2), screening re-sorts with
python's stable sort.  Agreement is required to 1e-12 across seeded
random record sets.
"""

import numpy as np
import pytest

from molcalib.errors import DegenerateError
from molcalib.metrics import (
    DEFAULT_K_GRID,
    LN2,
    auroc,
    bin_predictions,
    build_report,
    classification_metrics,
    ece,
    entropy,
    entropy_histogram,
    fixed_histogram,
    outcome_histograms,
    output_histogram,
    screening_curve,
)
from molcalib.selftest import (
    metric_oracle_mismatches,
    oracle_auroc,
    oracle_ece,
)

TOL = 1e-12


def records(triples):
    """The metric arrays (p_hat, y_pred, y_true) from per-record triples."""
    p, y_pred, y_true = zip(*triples)
    return (np.array(p, dtype=np.float64), np.array(y_pred, dtype=np.int64),
            np.array(y_true, dtype=np.int64))


def random_records(rng, n, p_pred_agree=0.7):
    triples = []
    for _ in range(n):
        p = float(rng.random())
        y_true = int(rng.random() < 0.4)
        y_pred = int(p > 0.5)
        if rng.random() > p_pred_agree:
            y_pred = 1 - y_pred
        triples.append((p, y_pred, y_true))
    return records(triples)


def quantized(recs, decimals=1):
    """Round the probabilities to force plenty of exact ties."""
    p, y_pred, y_true = recs
    return np.round(p, decimals), y_pred, y_true


# -- entropy ---------------------------------------------------------


class TestEntropy:
    def test_endpoints_exactly_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert entropy(0.5) == pytest.approx(LN2, abs=TOL)

    def test_symmetry(self):
        for p in [0.1, 0.25, 0.33, 0.49]:
            assert entropy(p) == pytest.approx(entropy(1.0 - p), abs=TOL)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 0.99, size=200)
        expected = -p * np.log(p) - (1 - p) * np.log(1 - p)
        np.testing.assert_allclose(entropy(p), expected, atol=TOL, rtol=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            entropy(1.5)
        with pytest.raises(ValueError):
            entropy(-0.1)


# -- binning and calibration -----------------------------------------


class TestBinning:
    def test_edge_values_fall_into_lower_bin(self):
        recs = records([(p, 1, 1) for p in (0.0, 0.1, 0.2, 1.0)])
        bins = bin_predictions(*recs, 10)
        counts = [b.count for b in bins]
        # 0.0 joins the closed first bin; 0.1 and 0.2 sit on edges and
        # belong to the bin below; 1.0 tops out the last bin
        assert counts == [2, 1, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_empty_bins_flagged(self):
        recs = records([(0.95, 1, 1)])
        bins = bin_predictions(*recs, 10)
        assert bins[0].defined is False
        assert bins[0].count == 0
        assert bins[0].positive_fraction == 0.0
        assert bins[9].defined is True

    @pytest.mark.parametrize("num_bins", [1, 5, 10, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle(self, num_bins, seed):
        recs = random_records(np.random.default_rng(seed), 400)
        assert metric_oracle_mismatches(recs, num_bins, DEFAULT_K_GRID) == []

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            bin_predictions(*records([(1.5, 1, 1)]), 10)
        with pytest.raises(ValueError):
            bin_predictions(*records([(float("nan"), 1, 1)]), 10)


class TestEce:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        recs = random_records(rng, 1000)
        assert ece(*recs, 10) == pytest.approx(oracle_ece(recs, 10), abs=TOL)

    def test_perfectly_calibrated_is_zero(self):
        # each bin's mean confidence equals its fraction of positives by
        # construction, with binary-exact probabilities so the
        # subtraction is exact; y_pred is the 0.5-thresholded label
        triples = []
        for conf, group in [(0.75, 4), (0.25, 4), (0.875, 8)]:
            positives = round(conf * group)
            for i in range(group):
                triples.append((conf, int(conf > 0.5), int(i < positives)))
        assert ece(*records(triples), 10) < TOL

    def test_calibrated_by_construction_is_near_zero(self):
        # y_true ~ Bernoulli(p_hat): calibrated whatever the threshold, so
        # only sampling noise (about 0.002 at this size) is left
        rng = np.random.default_rng(12)
        p = rng.random(200_000)
        y_true = (rng.random(p.size) < p).astype(np.int64)
        y_pred = (p > 0.5).astype(np.int64)
        assert ece(p, y_pred, y_true, 10) < 0.01
        for b in bin_predictions(p, y_pred, y_true, 10):
            assert abs(b.positive_fraction - b.confidence) < 0.01

    def test_maximally_miscalibrated(self):
        recs = records([(1.0, 1, 0)] * 10)
        assert ece(*recs, 10) == pytest.approx(1.0, abs=TOL)

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            ece([], [], [], 10)


# -- classification metrics ------------------------------------------


class TestClassificationMetrics:
    def test_hand_confusion(self):
        recs = records(
            [(0.9, 1, 1)] * 6    # tp
            + [(0.8, 1, 0)] * 2  # fp
            + [(0.2, 0, 0)] * 9  # tn
            + [(0.1, 0, 1)] * 3  # fn
        )
        m = classification_metrics(*recs)
        assert (m.tp, m.fp, m.tn, m.fn) == (6, 2, 9, 3)
        assert m.accuracy == pytest.approx(15 / 20, abs=TOL)
        assert m.precision == pytest.approx(6 / 8, abs=TOL)
        assert m.recall == pytest.approx(6 / 9, abs=TOL)
        p, r = 6 / 8, 6 / 9
        assert m.f1 == pytest.approx(2 * p * r / (p + r), abs=TOL)
        assert m.precision_defined and m.recall_defined and m.f1_defined

    def test_no_positive_predictions(self):
        recs = records([(0.1, 0, 1), (0.2, 0, 0)])
        m = classification_metrics(*recs)
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and m.recall_defined
        assert m.f1 == 0.0 and not m.f1_defined

    def test_no_true_positives_in_truth(self):
        recs = records([(0.9, 1, 0), (0.1, 0, 0)])
        m = classification_metrics(*recs)
        assert not m.recall_defined

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            classification_metrics([], [], [])


# -- AUROC -----------------------------------------------------------


class TestAuroc:
    def test_perfect_separation(self):
        recs = records([(0.9, 1, 1)] * 3 + [(0.1, 0, 0)] * 3)
        assert auroc(*recs) == pytest.approx(1.0, abs=TOL)

    def test_inverted_separation(self):
        recs = records([(0.1, 0, 1)] * 3 + [(0.9, 1, 0)] * 3)
        assert auroc(*recs) == pytest.approx(0.0, abs=TOL)

    def test_all_tied_is_half(self):
        recs = records([(0.5, 0, 1)] * 4 + [(0.5, 0, 0)] * 6)
        assert auroc(*recs) == pytest.approx(0.5, abs=TOL)

    @pytest.mark.parametrize("seed", [0, 5, 11, 19])
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        recs = quantized(random_records(rng, 300))
        assert auroc(*recs) == pytest.approx(oracle_auroc(recs), abs=TOL)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        recs = random_records(rng, 200)
        base = auroc(*recs)
        p, y_pred, y_true = recs
        assert auroc(p ** 3, y_pred, y_true) == pytest.approx(base, abs=TOL)

    def test_single_class_degenerate(self):
        with pytest.raises(DegenerateError):
            auroc(*records([(0.5, 1, 1), (0.4, 0, 1)]))
        with pytest.raises(DegenerateError):
            auroc(*records([(0.5, 1, 0), (0.4, 0, 0)]))


# -- histograms ------------------------------------------------------


class TestHistograms:
    def test_fixed_histogram_counts_and_edges(self):
        h = fixed_histogram([0.0, 0.01, 0.5, 0.99, 1.0], 1.0, 20)
        assert h.edges.shape == (21,)
        assert h.counts.sum() == 5
        assert h.counts[0] == 2      # 0.0 and 0.01
        assert h.counts[-1] == 2     # 0.99 and the max value 1.0

    def test_upper_boundary_lands_in_last_bin(self):
        h = fixed_histogram([LN2], LN2, 20)
        assert h.counts[-1] == 1

    def test_values_above_upper_are_clipped(self):
        h = fixed_histogram([2.0], 1.0, 20)
        assert h.counts[-1] == 1 and h.total == 1

    def test_entropy_histogram_range(self):
        recs = records([(p, 0, 0) for p in (0.0, 0.5, 1.0)])
        h = entropy_histogram(*recs, 20)
        assert h.counts[0] == 2   # both endpoint entropies are zero
        assert h.counts[-1] == 1  # maximal entropy at one half
        assert h.edges[-1] == pytest.approx(LN2, abs=TOL)

    def test_output_histogram_total(self):
        rng = np.random.default_rng(2)
        recs = random_records(rng, 137)
        assert output_histogram(*recs, 20).total == 137

    def test_outcome_histograms_partition_records(self):
        rng = np.random.default_rng(4)
        recs = random_records(rng, 250)
        split = outcome_histograms(*recs, 20)
        assert set(split) == {"tp", "fp", "tn", "fn"}
        assert sum(h.total for h in split.values()) == 250
        m = classification_metrics(*recs)
        assert split["tp"].total == m.tp
        assert split["fn"].total == m.fn


# -- screening -------------------------------------------------------


class TestScreening:
    def test_hand_curve(self):
        recs = records([(p, int(p > 0.5), y)
                        for p, y in [(0.9, 1), (0.8, 0), (0.7, 1), (0.6, 0)]])
        points = screening_curve(*recs, (25, 50, 100))
        assert [s.screened for s in points] == [1, 2, 4]
        assert points[0].success_rate == pytest.approx(1.0, abs=TOL)
        assert points[1].success_rate == pytest.approx(0.5, abs=TOL)
        assert points[2].success_rate == pytest.approx(0.5, abs=TOL)

    def test_full_depth_equals_prevalence_exactly(self):
        rng = np.random.default_rng(8)
        recs = random_records(rng, 731)
        prevalence = sum(recs[2].tolist()) / 731
        (point,) = screening_curve(*recs, (100,))
        assert point.screened == 731
        assert point.success_rate == prevalence

    def test_ceiling_takes_at_least_one(self):
        recs = records([(0.9, 1, 1)] + [(0.1, 0, 0)] * 99)
        (point,) = screening_curve(*recs, (0.5,))
        assert point.screened == 1
        assert point.success_rate == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_stable_sort_oracle(self, seed):
        # quantized scores create ties that only a stable order resolves
        recs = quantized(random_records(np.random.default_rng(seed), 500))
        assert metric_oracle_mismatches(recs, 10, DEFAULT_K_GRID) == []

    def test_rejects_bad_percentages(self):
        recs = records([(0.5, 1, 1)])
        with pytest.raises(ValueError):
            screening_curve(*recs, (0.0,))
        with pytest.raises(ValueError):
            screening_curve(*recs, (101.0,))

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            screening_curve([], [], [], (10,))


# -- bundled report --------------------------------------------------


class TestReport:
    def test_report_fields_agree_with_parts(self):
        rng = np.random.default_rng(17)
        recs = random_records(rng, 600)
        rep = build_report(*recs, num_bins=10)
        assert rep.num_records == 600
        assert rep.bins == bin_predictions(*recs, 10)
        assert rep.ece == ece(*recs, 10)  # bitwise: the same bins, summed
        assert rep.auroc == pytest.approx(auroc(*recs), abs=TOL)
        assert rep.auroc_defined
        assert rep.metrics == classification_metrics(*recs)
        assert rep.prevalence == pytest.approx(
            sum(recs[2].tolist()) / 600, abs=TOL)
        assert len(rep.screening) == len(DEFAULT_K_GRID)

    def test_single_class_report_flags_auroc(self):
        recs = records([(0.8, 1, 1), (0.6, 1, 1)])
        rep = build_report(*recs)
        assert not rep.auroc_defined
        assert rep.to_dict()["auroc"] is None

    def test_to_dict_is_json_clean(self):
        import json

        rng = np.random.default_rng(23)
        recs = random_records(rng, 50)
        blob = json.dumps(build_report(*recs).to_dict())
        assert "calibration_bins" in blob

    def test_empty_report_degenerate(self):
        with pytest.raises(DegenerateError):
            build_report([], [], [])


class TestRecordConstruction:
    """Records arrive as three arrays that every metric checks."""

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_report([0.4, 0.5], [0, 0], [0])
        with pytest.raises(ValueError):
            ece([0.4, 0.5], [0], [0, 1])
        # labels outside {0, 1}
        with pytest.raises(ValueError):
            build_report([0.2, 0.9], [0, 1], [0, 2])
        with pytest.raises(ValueError):
            ece([0.2, 0.9], [0, -1], [0, 1])
        with pytest.raises(ValueError):
            ece([0.2, 0.9], [0, 1], [0.0, 0.5])
