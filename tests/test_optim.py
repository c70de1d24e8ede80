"""Optimizer tests: hand-checked step, decoupling, schedule arithmetic."""

import numpy as np
import pytest

from molcalib import autodiff as ad
from molcalib.errors import ConfigError
from molcalib.model import GnnModel
from molcalib.optim import AdamW, OptimizerSettings, ScheduleSettings
from molcalib.selftest import check_decay_decoupling


def adamw(params, lr, weight_decay=0.0):
    return AdamW(params, OptimizerSettings(learning_rate=lr), weight_decay,
                 GnnModel.DECAY_EXCLUDE)


class TestAdamW:
    def test_first_step_hand_value(self):
        p = ad.Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        opt = adamw({"w": p}, lr=1e-3)
        opt.step()
        # bias correction makes the first update lr * g/(|g| + eps)
        expect = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        assert p.data[0] == pytest.approx(expect, abs=1e-15)

    def test_decay_excludes_bias(self):
        w = ad.Tensor([2.0], requires_grad=True)
        b = ad.Tensor([2.0], requires_grad=True)
        opt = adamw({"w": w, "b_clf": b}, lr=0.1, weight_decay=0.5)
        opt.step()  # no grads: pure decay
        assert w.data[0] < 2.0
        assert b.data[0] == 2.0

    def test_decay_never_touches_moments(self):
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal(3) for _ in range(5)]
        check_decay_decoupling(start=(1.0, -2.0, 0.5), grads=grads, lr=1e-2)

    def test_quadratic_convergence(self):
        target = np.array([3.0, -1.0, 0.25])
        p = ad.Tensor(np.zeros(3), requires_grad=True)
        opt = adamw({"w": p}, lr=0.05)
        for _ in range(400):
            p.zero_grad()
            gap = p + ad.Tensor(-target)
            loss = ad.tensor_sum(gap * gap)
            ad.backward(loss)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_lr_override_per_step(self):
        p = ad.Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        opt = adamw({"w": p}, lr=1e-3)
        opt.step(lr=0.0)
        assert p.data[0] == 1.0  # zero lr moves nothing, state still advances
        assert opt.t == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimizerSettings(learning_rate=0.0)
        with pytest.raises(ConfigError):
            OptimizerSettings(beta1=1.0)


class TestSchedule:
    def test_default_decay_points(self):
        sch = ScheduleSettings()
        assert sch.lr_at(1e-3, 0) == pytest.approx(1e-3)
        assert sch.lr_at(1e-3, 79) == pytest.approx(1e-3)
        assert sch.lr_at(1e-3, 80) == pytest.approx(1e-4)
        assert sch.lr_at(1e-3, 100) == pytest.approx(1e-4)
        assert sch.lr_at(1e-3, 160) == pytest.approx(1e-5)
        assert sch.lr_at(1e-3, 170) == pytest.approx(1e-5)

    def test_short_run_variant(self):
        sch = ScheduleSettings(decay_epochs=(40, 80))
        assert sch.lr_at(1e-3, 39) == pytest.approx(1e-3)
        assert sch.lr_at(1e-3, 40) == pytest.approx(1e-4)
        assert sch.lr_at(1e-3, 99) == pytest.approx(1e-5)

    def test_no_decay_epochs(self):
        sch = ScheduleSettings(decay_epochs=())
        assert sch.lr_at(1e-3, 500) == pytest.approx(1e-3)
