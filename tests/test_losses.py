"""Loss values, degenerate-parameter identities, decomposition residuals."""

import math

import numpy as np
import pytest

from molcalib import autodiff as ad
from molcalib.config import resolve_config
from molcalib.errors import ConfigError
from molcalib.losses import (
    LossConfig,
    bce_loss,
    entropy_regularized_loss,
    entropy_term,
    erl_kl_residual,
    focal_entropy_gap,
    focal_loss,
    l2_penalty,
    label_smoothing_loss,
    ls_kl_residual,
    smooth_labels,
    weighted_focal_loss,
)
from molcalib.selftest import numeric_gradient


def rand_batch(rng, n):
    y = (rng.random(n) < 0.5).astype(np.float64)
    p = rng.random(n) * 0.98 + 0.01
    return y, p


class TestHandValues:
    def test_bce_single(self):
        loss = bce_loss([1.0], ad.Tensor([0.9]))
        assert loss.item() == pytest.approx(-math.log(0.9), abs=1e-15)

    def test_bce_sum_form(self):
        loss = bce_loss([1.0, 0.0], ad.Tensor([0.9, 0.2]))
        expect = -math.log(0.9) - math.log(0.8)
        assert loss.item() == pytest.approx(expect, abs=1e-14)

    def test_bce_endpoint_is_finite(self):
        loss = bce_loss([1.0, 0.0], ad.Tensor([0.0, 1.0]))
        assert np.isfinite(loss.item())
        # the 1-p side evaluates at float precision, not exactly 1e-12
        assert loss.item() == pytest.approx(2 * -math.log(1e-12), rel=1e-6)

    def test_smoothed_targets(self):
        np.testing.assert_allclose(smooth_labels([1.0, 0.0], 0.1), [0.95, 0.05])
        np.testing.assert_array_equal(smooth_labels([1.0, 0.0], 0.0), [1.0, 0.0])

    def test_label_smoothing_hand_value(self):
        loss = label_smoothing_loss([1.0], ad.Tensor([0.95]), 0.1)
        expect = -0.95 * math.log(0.95) - 0.05 * math.log(0.05)
        assert loss.item() == pytest.approx(expect, abs=1e-15)

    def test_focal_hand_value(self):
        loss = focal_loss([1.0], ad.Tensor([0.9]), 2.0)
        expect = -((0.1) ** 2) * math.log(0.9)
        assert loss.item() == pytest.approx(expect, rel=1e-12)

    def test_entropy_term_midpoint(self):
        h = entropy_term(ad.Tensor([0.5, 0.5, 0.5]))
        assert h.item() == pytest.approx(3 * math.log(2.0), abs=1e-14)

    def test_erl_at_uniform_output(self):
        y = [1.0, 0.0]
        p = ad.Tensor([0.5, 0.5])
        erl = entropy_regularized_loss(y, p, 0.3)
        bce = bce_loss(y, p)
        assert erl.item() == pytest.approx(
            bce.item() - 0.3 * 2 * math.log(2.0), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_labels([1.0], 1.0)
        with pytest.raises(ValueError):
            focal_loss([1.0], ad.Tensor([0.5]), -1.0)
        with pytest.raises(ValueError):
            weighted_focal_loss([1.0], ad.Tensor([0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            entropy_regularized_loss([1.0], ad.Tensor([0.5]), -0.1)
        with pytest.raises(ValueError):
            bce_loss([2.0], ad.Tensor([0.5]))


class TestDegenerateIdentities:
    def test_focal_gamma_zero_is_bce(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y, p = rand_batch(rng, rng.integers(1, 60))
            a = focal_loss(y, ad.Tensor(p), 0.0).item()
            b = bce_loss(y, ad.Tensor(p)).item()
            assert abs(a - b) <= 1e-12

    def test_weighted_half_is_half_focal(self):
        rng = np.random.default_rng(22)
        for gamma in (0.0, 1.0, 2.0):
            y, p = rand_batch(rng, 40)
            a = weighted_focal_loss(y, ad.Tensor(p), 0.5, gamma).item()
            b = 0.5 * focal_loss(y, ad.Tensor(p), gamma).item()
            assert abs(a - b) <= 1e-12

    def test_smoothing_zero_is_bce(self):
        rng = np.random.default_rng(23)
        y, p = rand_batch(rng, 50)
        a = label_smoothing_loss(y, ad.Tensor(p), 0.0).item()
        assert a == bce_loss(y, ad.Tensor(p)).item()

    def test_erl_beta_zero_is_bce(self):
        rng = np.random.default_rng(24)
        y, p = rand_batch(rng, 50)
        a = entropy_regularized_loss(y, ad.Tensor(p), 0.0).item()
        assert a == bce_loss(y, ad.Tensor(p)).item()

    def test_erl_lower_bound(self):
        rng = np.random.default_rng(25)
        beta = 0.7
        for _ in range(10):
            y, p = rand_batch(rng, 30)
            erl = entropy_regularized_loss(y, ad.Tensor(p), beta).item()
            bce = bce_loss(y, ad.Tensor(p)).item()
            assert erl >= bce - beta * len(p) * math.log(2.0) - 1e-12


class TestResiduals:
    def test_ls_residual_closed_form(self):
        rng = np.random.default_rng(26)
        alpha = 0.17
        for n in (1, 8, 100):
            y, p = rand_batch(rng, n)
            res = ls_kl_residual(y, p, alpha)
            assert res == pytest.approx(alpha * n * math.log(2.0), abs=1e-10)

    def test_ls_residual_constant_in_predictions(self):
        rng = np.random.default_rng(27)
        alpha = 0.1
        n = 64
        y, p1 = rand_batch(rng, n)
        _, p2 = rand_batch(rng, n)
        assert abs(ls_kl_residual(y, p1, alpha)
                   - ls_kl_residual(y, p2, alpha)) <= 1e-10

    def test_erl_residual_closed_form(self):
        rng = np.random.default_rng(28)
        beta = 0.42
        for n in (1, 8, 100):
            y, p = rand_batch(rng, n)
            res = erl_kl_residual(y, p, beta)
            assert res == pytest.approx(-beta * n * math.log(2.0), abs=1e-10)

    def test_focal_gap_zero_at_gamma_zero(self):
        rng = np.random.default_rng(29)
        y, p = rand_batch(rng, 30)
        assert focal_entropy_gap(y, p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_focal_gap_finite(self):
        rng = np.random.default_rng(30)
        y, p = rand_batch(rng, 30)
        assert np.isfinite(focal_entropy_gap(y, p, 2.0))


class TestLossGradients:
    def losses(self):
        return [
            ("bce", lambda y, p: bce_loss(y, p)),
            ("ls", lambda y, p: label_smoothing_loss(y, p, 0.1)),
            ("erl", lambda y, p: entropy_regularized_loss(y, p, 0.25)),
            ("focal", lambda y, p: focal_loss(y, p, 2.0)),
            ("wfl", lambda y, p: weighted_focal_loss(y, p, 0.75, 1.0)),
        ]

    def test_all_losses_match_finite_differences(self):
        rng = np.random.default_rng(31)
        y = (rng.random(12) < 0.5).astype(np.float64)
        start = rng.random(12) * 0.9 + 0.05
        for name, fn in self.losses():
            p = ad.Tensor(start.copy(), requires_grad=True)
            loss = fn(y, p)
            ad.backward(loss)
            fd = numeric_gradient(lambda: fn(y, p).item(), p.data)
            np.testing.assert_allclose(p.grad, fd, rtol=1e-4, atol=1e-7,
                                       err_msg=f"{name} gradient mismatch")


class TestL2Penalty:
    def test_hand_value_and_exclusion(self):
        params = {
            "w": ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True),
            "b_clf": ad.Tensor(10.0, requires_grad=True),
        }
        assert l2_penalty(params, 0.5) == pytest.approx(0.5 * 30.0)
        assert l2_penalty(params, 0.5, exclude=frozenset()) == pytest.approx(
            0.5 * 130.0)


class TestLossConfig:
    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(31)
        y, p = rand_batch(rng, 16)
        cases = [
            (LossConfig(kind="bce"), bce_loss(y, ad.Tensor(p))),
            (LossConfig(kind="label_smoothing", smoothing=0.1),
             label_smoothing_loss(y, ad.Tensor(p), 0.1)),
            (LossConfig(kind="entropy_regularized", entropy_weight=0.1),
             entropy_regularized_loss(y, ad.Tensor(p), 0.1)),
            (LossConfig(kind="focal", focusing=2.0),
             focal_loss(y, ad.Tensor(p), 2.0)),
            (LossConfig(kind="weighted_focal", focusing=2.0,
                        positive_weight=0.25),
             weighted_focal_loss(y, ad.Tensor(p), 0.25, 2.0)),
        ]
        for cfg, want in cases:
            assert cfg.compute(y, ad.Tensor(p)).item() == want.item()

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
        # exactly the ranges the loss functions accept
        for smoothing in (1.5, 1.0):
            with pytest.raises(ConfigError):
                LossConfig(kind="label_smoothing", smoothing=smoothing)
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
