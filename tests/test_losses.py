"""Loss values, degenerate-parameter identities, decomposition residuals.

Every loss takes logits; cases stated in probabilities go in as
z = log p - log(1 - p).
"""

import math

import numpy as np
import pytest

from molcalib import autodiff as ad
from molcalib.config import resolve_config
from molcalib.errors import ConfigError, ShapeError
from molcalib.losses import (
    LossConfig,
    erl_kl_residual,
    l2_penalty,
    ls_kl_residual,
    smooth_labels,
)
from molcalib.model import GnnModel
from molcalib.selftest import logits_of, numeric_gradient

BCE = LossConfig()


def smoothing(a):
    return LossConfig(kind="label_smoothing", smoothing=a)


def entropy_reg(b):
    return LossConfig(kind="entropy_regularized", entropy_weight=b)


def focal(g):
    return LossConfig(kind="focal", focusing=g)


def weighted_focal(a, g):
    return LossConfig(kind="weighted_focal", focusing=g, positive_weight=a)


def loss_at(cfg, y, p):
    """The loss `cfg` gives the probabilities `p`, as a float."""
    return cfg.compute(y, ad.Tensor(logits_of(p))).item()


def rand_batch(rng, n):
    y = (rng.random(n) < 0.5).astype(np.float64)
    p = rng.random(n) * 0.98 + 0.01
    return y, p


class TestHandValues:
    def test_bce_single(self):
        loss = loss_at(BCE, [1.0], [0.9])
        assert loss == pytest.approx(-math.log(0.9), abs=1e-15)

    def test_bce_sum_form(self):
        loss = loss_at(BCE, [1.0, 0.0], [0.9, 0.2])
        expect = -math.log(0.9) - math.log(0.8)
        assert loss == pytest.approx(expect, abs=1e-14)

    def test_smoothed_targets(self):
        np.testing.assert_allclose(smooth_labels([1.0, 0.0], 0.1), [0.95, 0.05])
        np.testing.assert_array_equal(smooth_labels([1.0, 0.0], 0.0), [1.0, 0.0])

    def test_label_smoothing_hand_value(self):
        loss = loss_at(smoothing(0.1), [1.0], [0.95])
        expect = -0.95 * math.log(0.95) - 0.05 * math.log(0.05)
        assert loss == pytest.approx(expect, abs=1e-15)

    def test_focal_hand_value(self):
        loss = loss_at(focal(2.0), [1.0], [0.9])
        expect = -((0.1) ** 2) * math.log(0.9)
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_entropy_term_midpoint(self):
        # the entropy term is what a unit entropy weight takes off BCE
        y, p = [1.0, 0.0, 1.0], [0.5, 0.5, 0.5]
        h = loss_at(BCE, y, p) - loss_at(entropy_reg(1.0), y, p)
        assert h == pytest.approx(3 * math.log(2.0), abs=1e-14)

    def test_erl_at_uniform_output(self):
        y, p = [1.0, 0.0], [0.5, 0.5]
        erl = loss_at(entropy_reg(0.3), y, p)
        assert erl == pytest.approx(
            loss_at(BCE, y, p) - 0.3 * 2 * math.log(2.0), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ConfigError):
            smoothing(1.0)
        with pytest.raises(ConfigError):
            focal(-1.0)
        with pytest.raises(ConfigError):
            weighted_focal(0.0, 1.0)
        with pytest.raises(ConfigError):
            entropy_reg(-0.1)
        with pytest.raises(ValueError):
            BCE.compute([2.0], ad.Tensor([0.0]))
        with pytest.raises(ShapeError):
            BCE.compute([1.0, 0.0], ad.Tensor([0.0]))


# every loss kind, with the magnitude of its gradient at a saturated wrong
# logit for a positive and for a negative: the class weight times the
# target mass on the right class
SATURATING = {
    "bce": (BCE, 1.0, 1.0),
    "label_smoothing": (smoothing(0.1), 0.95, 0.95),
    "entropy_regularized": (entropy_reg(0.25), 1.0, 1.0),
    "focal": (focal(2.0), 1.0, 1.0),
    "focal_half": (focal(0.5), 1.0, 1.0),
    "weighted_focal": (weighted_focal(0.25, 2.0), 0.25, 0.75),
}


class TestSaturation:
    @pytest.mark.parametrize("name", sorted(SATURATING))
    def test_saturated_wrong_prediction_has_unit_gradient(self, name):
        # a confident miss must still be pushed back: positives at very
        # negative logits, negatives at very positive ones
        cfg, pos_slope, neg_slope = SATURATING[name]
        for z, y, slope in ((-40.0, 1.0, -pos_slope),
                            (-800.0, 1.0, -pos_slope),
                            (40.0, 0.0, neg_slope), (800.0, 0.0, neg_slope)):
            logit = ad.Tensor([z], requires_grad=True)
            loss = cfg.compute([y], logit)
            assert np.isfinite(loss.item()) and loss.item() > 0.0
            ad.backward(loss)
            assert logit.grad[0] == pytest.approx(slope, rel=1e-6), (z, y)


class TestDegenerateIdentities:
    def test_focal_gamma_zero_is_bce(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y, p = rand_batch(rng, rng.integers(1, 60))
            a = loss_at(focal(0.0), y, p)
            b = loss_at(BCE, y, p)
            assert abs(a - b) <= 1e-12

    def test_weighted_half_is_half_focal(self):
        rng = np.random.default_rng(22)
        for gamma in (0.0, 1.0, 2.0):
            y, p = rand_batch(rng, 40)
            a = loss_at(weighted_focal(0.5, gamma), y, p)
            b = 0.5 * loss_at(focal(gamma), y, p)
            assert abs(a - b) <= 1e-12

    def test_smoothing_zero_is_bce(self):
        rng = np.random.default_rng(23)
        y, p = rand_batch(rng, 50)
        assert loss_at(smoothing(0.0), y, p) == loss_at(BCE, y, p)

    def test_erl_beta_zero_is_bce(self):
        rng = np.random.default_rng(24)
        y, p = rand_batch(rng, 50)
        assert loss_at(entropy_reg(0.0), y, p) == loss_at(BCE, y, p)

    def test_erl_lower_bound(self):
        rng = np.random.default_rng(25)
        beta = 0.7
        for _ in range(10):
            y, p = rand_batch(rng, 30)
            erl = loss_at(entropy_reg(beta), y, p)
            bce = loss_at(BCE, y, p)
            assert erl >= bce - beta * len(p) * math.log(2.0) - 1e-12


class TestResiduals:
    def test_ls_residual_closed_form(self):
        rng = np.random.default_rng(26)
        alpha = 0.17
        for n in (1, 8, 100):
            y, p = rand_batch(rng, n)
            res = ls_kl_residual(y, logits_of(p), alpha)
            assert res == pytest.approx(alpha * n * math.log(2.0), abs=1e-10)

    def test_ls_residual_constant_in_predictions(self):
        rng = np.random.default_rng(27)
        alpha = 0.1
        n = 64
        y, p1 = rand_batch(rng, n)
        _, p2 = rand_batch(rng, n)
        assert abs(ls_kl_residual(y, logits_of(p1), alpha)
                   - ls_kl_residual(y, logits_of(p2), alpha)) <= 1e-10

    def test_erl_residual_closed_form(self):
        rng = np.random.default_rng(28)
        beta = 0.42
        for n in (1, 8, 100):
            y, p = rand_batch(rng, n)
            res = erl_kl_residual(y, logits_of(p), beta)
            assert res == pytest.approx(-beta * n * math.log(2.0), abs=1e-10)


class TestLossGradients:
    def losses(self):
        return [
            ("bce", BCE),
            ("ls", smoothing(0.1)),
            ("erl", entropy_reg(0.25)),
            ("focal", focal(2.0)),
            ("focal_half", focal(0.5)),
            ("wfl", weighted_focal(0.75, 1.0)),
        ]

    def test_all_losses_match_finite_differences(self):
        rng = np.random.default_rng(31)
        y = (rng.random(12) < 0.5).astype(np.float64)
        start = logits_of(rng.random(12) * 0.9 + 0.05)
        for name, cfg in self.losses():
            z = ad.Tensor(start.copy(), requires_grad=True)
            ad.backward(cfg.compute(y, z))
            fd = numeric_gradient(lambda: cfg.compute(y, z).item(), z.data)
            np.testing.assert_allclose(z.grad, fd, rtol=1e-4, atol=1e-7,
                                       err_msg=f"{name} gradient mismatch")


class TestL2Penalty:
    def test_hand_value_and_exclusion(self):
        params = {
            "w": ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True),
            "b_clf": ad.Tensor(10.0, requires_grad=True),
        }
        assert l2_penalty(params, 0.5, GnnModel.DECAY_EXCLUDE) == \
            pytest.approx(0.5 * 30.0)
        assert l2_penalty(params, 0.5, exclude=frozenset()) == pytest.approx(
            0.5 * 130.0)


def probability_form(y, p, w_pos=1.0, w_neg=1.0, gamma=0.0, beta=0.0):
    """Each loss kind written out in probabilities, term by term."""
    y, p = np.asarray(y), np.asarray(p)
    h = -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))
    return float(np.sum(-w_pos * y * (1.0 - p) ** gamma * np.log(p)
                        - w_neg * (1.0 - y) * p ** gamma * np.log(1.0 - p)
                        - beta * h))


class TestLossConfig:
    def test_dispatch_matches_direct_calls(self):
        # each kind against its own formula in probabilities
        rng = np.random.default_rng(31)
        y, p = rand_batch(rng, 16)
        cases = [
            (BCE, probability_form(y, p)),
            (smoothing(0.1), probability_form(smooth_labels(y, 0.1), p)),
            (entropy_reg(0.1), probability_form(y, p, beta=0.1)),
            (focal(2.0), probability_form(y, p, gamma=2.0)),
            (weighted_focal(0.25, 2.0),
             probability_form(y, p, 0.25, 0.75, gamma=2.0)),
        ]
        for cfg, want in cases:
            assert loss_at(cfg, y, p) == pytest.approx(want, rel=1e-12)

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigError):
            LossConfig(kind="label_smoothing")
        with pytest.raises(ConfigError):
            LossConfig(kind="weighted_focal", focusing=2.0)

    def test_extraneous_parameter(self):
        with pytest.raises(ConfigError):
            LossConfig(kind="bce", focusing=2.0)
        with pytest.raises(ConfigError):
            LossConfig(kind="focal", focusing=1.0, smoothing=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            LossConfig(kind="hinge")

    def test_range_validation(self):
        # exactly the ranges the loss op is given
        for strength in (1.5, 1.0):
            with pytest.raises(ConfigError):
                LossConfig(kind="label_smoothing", smoothing=strength)
        for weight in (0.0, 1.0):
            with pytest.raises(ConfigError):
                LossConfig(kind="weighted_focal", focusing=2.0,
                           positive_weight=weight)
        with pytest.raises(ConfigError):
            LossConfig(kind="entropy_regularized", entropy_weight=-0.1)
        with pytest.raises(ConfigError):
            LossConfig(kind="bce", l2_coefficient=-1e-4)

    def test_to_dict_lists_every_knob(self):
        raw = {"dataset": {"name": "toy", "path": "toy.csv"},
               "loss": {"kind": "focal", "focusing": 1.0}}
        d = resolve_config(raw).to_dict()["loss"]
        assert set(d) == {"kind", "smoothing", "entropy_weight", "focusing",
                          "positive_weight", "l2_coefficient"}
        assert d["focusing"] == 1.0 and d["smoothing"] is None
