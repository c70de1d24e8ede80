"""Reliability metric tests against independent brute-force oracles.

Records are the arrays (p_hat, y_pred, y_true); index i of the three is
one record, and each metric takes the arrays it reads.  The oracles in
``molcalib.selftest`` recompute every quantity with per-record loops and
interval arithmetic, sharing no code with the library implementation:
binning walks records one by one against (lower, upper] intervals, AUROC
counts all positive/negative pairs in O(n^2), screening re-sorts with
python's stable sort.  Agreement is required to 1e-12 across seeded
random record sets.
"""

import re
from pathlib import Path

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
    fixed_histogram,
    outcome_histograms,
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


def scored(recs):
    """The arrays (p_hat, y_true) of records."""
    return recs[0], recs[2]


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
        bins = bin_predictions([0.0, 0.1, 0.2, 1.0], [1, 1, 1, 1], 10)
        # 0.0 joins the closed first bin; 0.1 and 0.2 sit on edges and
        # belong to the bin below; 1.0 tops out the last bin
        assert bins.counts.tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert bins.edges.tolist() == np.linspace(0.0, 1.0, 11).tolist()

    def test_empty_bins_flagged(self):
        bins = bin_predictions([0.95], [1], 10)
        assert bins.defined.tolist() == [False] * 9 + [True]
        assert bins.counts[0] == 0
        assert bins.positive_fraction[0] == 0.0
        assert bins.confidence[0] == 0.0

    @pytest.mark.parametrize("num_bins", [1, 5, 10, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle(self, num_bins, seed):
        recs = random_records(np.random.default_rng(seed), 400)
        assert metric_oracle_mismatches(*scored(recs), num_bins,
                                        DEFAULT_K_GRID) == []

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            bin_predictions([1.5], [1], 10)
        with pytest.raises(ValueError):
            bin_predictions([float("nan")], [1], 10)


class TestEce:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        recs = scored(random_records(rng, 1000))
        assert ece(*recs, 10) == pytest.approx(oracle_ece(*recs, 10),
                                               abs=TOL)

    def test_perfectly_calibrated_is_zero(self):
        # each bin's mean confidence equals its fraction of positives by
        # construction, with binary-exact probabilities so the
        # subtraction is exact
        p, y_true = [], []
        for conf, group in [(0.75, 4), (0.25, 4), (0.875, 8)]:
            positives = round(conf * group)
            p += [conf] * group
            y_true += [int(i < positives) for i in range(group)]
        assert ece(p, y_true, 10) < TOL

    def test_calibrated_by_construction_is_near_zero(self):
        # y_true ~ Bernoulli(p_hat): calibrated whatever the threshold, so
        # only sampling noise (about 0.002 at this size) is left
        rng = np.random.default_rng(12)
        p = rng.random(200_000)
        y_true = (rng.random(p.size) < p).astype(np.int64)
        assert ece(p, y_true, 10) < 0.01
        bins = bin_predictions(p, y_true, 10)
        assert np.all(np.abs(bins.positive_fraction - bins.confidence)
                      < 0.01)

    def test_maximally_miscalibrated(self):
        assert ece([1.0] * 10, [0] * 10, 10) == pytest.approx(1.0, abs=TOL)

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            ece([], [], 10)


# -- classification metrics ------------------------------------------


class TestClassificationMetrics:
    def test_hand_confusion(self):
        recs = records(
            [(0.9, 1, 1)] * 6    # tp
            + [(0.8, 1, 0)] * 2  # fp
            + [(0.2, 0, 0)] * 9  # tn
            + [(0.1, 0, 1)] * 3  # fn
        )
        m = classification_metrics(recs[1], recs[2])
        assert (m.tp, m.fp, m.tn, m.fn) == (6, 2, 9, 3)
        assert m.accuracy == pytest.approx(15 / 20, abs=TOL)
        assert m.precision == pytest.approx(6 / 8, abs=TOL)
        assert m.recall == pytest.approx(6 / 9, abs=TOL)
        p, r = 6 / 8, 6 / 9
        assert m.f1 == pytest.approx(2 * p * r / (p + r), abs=TOL)
        assert m.precision_defined and m.recall_defined and m.f1_defined

    def test_no_positive_predictions(self):
        m = classification_metrics([0, 0], [1, 0])
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and m.recall_defined
        assert m.f1 == 0.0 and not m.f1_defined

    def test_no_true_positives_in_truth(self):
        m = classification_metrics([1, 0], [0, 0])
        assert not m.recall_defined

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            classification_metrics([], [])


# -- AUROC -----------------------------------------------------------


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9] * 3 + [0.1] * 3, [1] * 3 + [0] * 3) == \
            pytest.approx(1.0, abs=TOL)

    def test_inverted_separation(self):
        assert auroc([0.1] * 3 + [0.9] * 3, [1] * 3 + [0] * 3) == \
            pytest.approx(0.0, abs=TOL)

    def test_all_tied_is_half(self):
        assert auroc([0.5] * 10, [1] * 4 + [0] * 6) == \
            pytest.approx(0.5, abs=TOL)

    @pytest.mark.parametrize("seed", [0, 5, 11, 19])
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        recs = scored(quantized(random_records(rng, 300)))
        assert auroc(*recs) == pytest.approx(oracle_auroc(*recs), abs=TOL)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        p, y_true = scored(random_records(rng, 200))
        assert auroc(p ** 3, y_true) == pytest.approx(auroc(p, y_true),
                                                      abs=TOL)

    def test_single_class_degenerate(self):
        with pytest.raises(DegenerateError):
            auroc([0.5, 0.4], [1, 1])
        with pytest.raises(DegenerateError):
            auroc([0.5, 0.4], [0, 0])


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

    def test_fixed_histogram_equals_numpy_histogram(self):
        # every edge, the floats either side of it, out-of-range values
        # and NaN, which np.histogram leaves out of every bin
        rng = np.random.default_rng(11)
        for case in range(300):
            upper = (1.0, LN2, float(rng.uniform(0.01, 10.0)))[case % 3]
            bins = int(rng.integers(1, 60))
            edges = np.linspace(0.0, upper, bins + 1)
            values = np.concatenate([
                rng.uniform(-0.2 * upper, 1.2 * upper, rng.integers(0, 50)),
                edges, np.nextafter(edges, -1.0), np.nextafter(edges, 99.0),
                [np.nan] * (case % 2)])
            counts, want_edges = np.histogram(np.clip(values, 0.0, upper),
                                              bins=bins, range=(0.0, upper))
            h = fixed_histogram(values, upper, bins)
            assert h.edges.tobytes() == want_edges.tobytes()
            assert h.counts.dtype == counts.dtype
            np.testing.assert_array_equal(h.counts, counts)

    def test_entropy_histogram_range(self):
        recs = records([(p, 0, 0) for p in (0.0, 0.5, 1.0)])
        h = build_report(*recs).entropy_hist
        assert h.counts[0] == 2   # both endpoint entropies are zero
        assert h.counts[-1] == 1  # maximal entropy at one half
        assert h.edges[-1] == pytest.approx(LN2, abs=TOL)

    def test_output_histogram_total(self):
        rng = np.random.default_rng(2)
        recs = random_records(rng, 137)
        h = build_report(*recs).output_hist
        assert h.total == 137
        assert h.edges[-1] == 1.0

    def test_outcome_histograms_partition_records(self):
        rng = np.random.default_rng(4)
        recs = random_records(rng, 250)
        split = outcome_histograms(*recs, 20)
        assert set(split) == {"tp", "fp", "tn", "fn"}
        assert sum(h.total for h in split.values()) == 250
        m = classification_metrics(recs[1], recs[2])
        assert split["tp"].total == m.tp
        assert split["fn"].total == m.fn


# -- screening -------------------------------------------------------


class TestScreening:
    def test_hand_curve(self):
        curve = screening_curve([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0],
                                (25, 50, 100))
        assert curve.k_percent.tolist() == [25.0, 50.0, 100.0]
        assert curve.screened.tolist() == [1, 2, 4]
        np.testing.assert_allclose(curve.success_rate, [1.0, 0.5, 0.5],
                                   atol=TOL, rtol=0)

    def test_full_depth_equals_prevalence_exactly(self):
        rng = np.random.default_rng(8)
        recs = scored(random_records(rng, 731))
        prevalence = sum(recs[1].tolist()) / 731
        curve = screening_curve(*recs, (100,))
        assert curve.screened.tolist() == [731]
        assert curve.success_rate.tolist() == [prevalence]

    def test_ceiling_takes_at_least_one(self):
        curve = screening_curve([0.9] + [0.1] * 99, [1] + [0] * 99, (0.5,))
        assert curve.screened.tolist() == [1]
        assert curve.success_rate.tolist() == [1.0]

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_stable_sort_oracle(self, seed):
        # quantized scores create ties that only a stable order resolves
        recs = quantized(random_records(np.random.default_rng(seed), 500))
        assert metric_oracle_mismatches(*scored(recs), 10,
                                        DEFAULT_K_GRID) == []

    def test_rejects_bad_percentages(self):
        for k in (0.0, 101.0, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                screening_curve([0.5], [1], (10.0, k))

    def test_zero_records_degenerate(self):
        with pytest.raises(DegenerateError):
            screening_curve([], [], (10,))


# -- bundled report --------------------------------------------------


class TestReport:
    def test_report_fields_agree_with_parts(self):
        rng = np.random.default_rng(17)
        recs = random_records(rng, 600)
        rep = build_report(*recs, num_bins=10)
        assert rep.num_records == 600
        bins = bin_predictions(*scored(recs), 10)
        for field in ("edges", "counts", "positive_fraction", "confidence",
                      "defined"):
            assert np.array_equal(getattr(rep.bins, field),
                                  getattr(bins, field)), field
        assert rep.ece == ece(*scored(recs), 10)  # bitwise
        assert rep.auroc == auroc(*scored(recs))
        assert rep.auroc_defined
        assert rep.metrics == classification_metrics(recs[1], recs[2])
        assert rep.prevalence == pytest.approx(
            sum(recs[2].tolist()) / 600, abs=TOL)
        curve = screening_curve(*scored(recs), DEFAULT_K_GRID)
        for field in ("k_percent", "screened", "success_rate"):
            assert np.array_equal(getattr(rep.screening, field),
                                  getattr(curve, field)), field
        assert rep.screening.k_percent.tolist() == list(DEFAULT_K_GRID)
        assert np.array_equal(rep.p_hat, recs[0])
        assert np.array_equal(rep.y_pred, recs[1])

    def test_single_class_report_flags_auroc(self):
        recs = records([(0.8, 1, 1), (0.6, 1, 1)])
        rep = build_report(*recs)
        assert not rep.auroc_defined
        assert rep.to_dict()["auroc"] is None

    def test_to_dict_is_json_clean(self):
        import json

        rng = np.random.default_rng(23)
        recs = random_records(rng, 50)
        # json refuses numpy integers, so this also proves that none
        # reaches a manifest
        blob = json.dumps(build_report(*recs).to_dict())
        assert "calibration_bins" in blob

    def test_empty_report_degenerate(self):
        with pytest.raises(DegenerateError):
            build_report([], [], [])


class TestRecordConstruction:
    """Records arrive as arrays that every metric checks."""

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_report([0.4, 0.5], [0, 0], [0])
        with pytest.raises(ValueError):
            ece([0.4, 0.5], [0], 10)
        with pytest.raises(ValueError):
            classification_metrics([0, 1], [1])
        # labels outside {0, 1}
        with pytest.raises(ValueError):
            build_report([0.2, 0.9], [0, 1], [0, 2])
        with pytest.raises(ValueError):
            build_report([0.2, 0.9], [0, -1], [0, 1])
        with pytest.raises(ValueError):
            ece([0.2, 0.9], [0.0, 0.5], 10)
        with pytest.raises(ValueError):
            classification_metrics([0, 2], [0, 1])


def test_readme_metrics_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (example,) = [block for block in
                  re.findall(r"```python\n(.*?)```", section, re.S)
                  if "molcalib.metrics" in block]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.")
