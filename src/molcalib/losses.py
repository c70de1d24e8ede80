"""Training objectives over predicted probabilities, plus identity checks.

All losses are sums over the batch (callers divide by batch size when they
want a mean) and operate on the positive-class probability coming out of the
model's final sigmoid.  Probabilities are clamped to [1e-12, 1 - 1e-12]
before any logarithm, so endpoint predictions yield large finite losses
rather than infinities.

The ``*_residual`` helpers evaluate the losses at plain numpy values and
report the constants that tie them to cross-entropy-plus-divergence forms:
label smoothing decomposes as (1-a) * BCE + a * sum KL(U || P) + a*n*ln 2,
and the entropy-regularized loss as BCE + b * sum KL(P || U) - b*n*ln 2.
Both residuals depend only on the batch size, never on the predictions,
which makes them cheap invariants to monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

P_MIN = 1e-12
P_MAX = 1.0 - 1e-12


def _as_targets(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"targets must be 1-D, got shape {arr.shape}")
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("targets must lie in [0, 1]")
    return arr


def _clamped(p_hat: ad.Tensor) -> ad.Tensor:
    return ad.clamp(p_hat, P_MIN, P_MAX)


def bce_loss(y, p_hat: ad.Tensor) -> ad.Tensor:
    """Summed binary cross-entropy; accepts hard or smoothed targets."""
    t = ad.Tensor(_as_targets(y))
    p = _clamped(p_hat)
    terms = t * ad.log(p) + (1.0 - t) * ad.log(1.0 - p)
    return -terms.sum()


def smooth_labels(y, alpha: float) -> np.ndarray:
    """Two-class label smoothing: y -> y(1 - alpha) + alpha/2."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"smoothing strength must be in [0, 1), got {alpha}")
    return _as_targets(y) * (1.0 - alpha) + alpha / 2.0


def label_smoothing_loss(y, p_hat: ad.Tensor, alpha: float) -> ad.Tensor:
    return bce_loss(smooth_labels(y, alpha), p_hat)


def entropy_term(p_hat: ad.Tensor) -> ad.Tensor:
    """Sum of per-prediction binary entropies, differentiable."""
    p = _clamped(p_hat)
    h = p * ad.log(p) + (1.0 - p) * ad.log(1.0 - p)
    return -h.sum()


def entropy_regularized_loss(y, p_hat: ad.Tensor, beta: float) -> ad.Tensor:
    """BCE minus a confidence penalty: low-entropy output costs more."""
    if beta < 0.0:
        raise ValueError(f"entropy weight must be >= 0, got {beta}")
    return bce_loss(y, p_hat) - beta * entropy_term(p_hat)


def focal_loss(y, p_hat: ad.Tensor, gamma: float) -> ad.Tensor:
    """Hard-example weighting; gamma = 0 recovers BCE exactly."""
    if gamma < 0.0:
        raise ValueError(f"focusing exponent must be >= 0, got {gamma}")
    t = ad.Tensor(_as_targets(y))
    p = _clamped(p_hat)
    pos = t * ((1.0 - p) ** gamma) * ad.log(p)
    neg = (1.0 - t) * (p ** gamma) * ad.log(1.0 - p)
    return -(pos + neg).sum()


def weighted_focal_loss(y, p_hat: ad.Tensor, alpha: float,
                        gamma: float) -> ad.Tensor:
    """Focal loss with class weights alpha (positives) and 1-alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"class weight must be in (0, 1), got {alpha}")
    if gamma < 0.0:
        raise ValueError(f"focusing exponent must be >= 0, got {gamma}")
    t = ad.Tensor(_as_targets(y))
    p = _clamped(p_hat)
    pos = alpha * t * ((1.0 - p) ** gamma) * ad.log(p)
    neg = (1.0 - alpha) * (1.0 - t) * (p ** gamma) * ad.log(1.0 - p)
    return -(pos + neg).sum()


def l2_penalty(params: dict[str, ad.Tensor], coefficient: float,
               exclude: frozenset[str] = frozenset({"b_clf"})) -> float:
    """Reporting value: coefficient times the summed squared weight norms.

    Decay itself happens inside the optimizer; this mirrors what that decay
    is implicitly penalizing, biases excluded.
    """
    total = 0.0
    for name, p in params.items():
        if name not in exclude:
            total += float(np.sum(p.data * p.data))
    return coefficient * total


# -- identity diagnostics (numpy in, float out) ----------------------


def ls_kl_residual(y, p_hat_values, alpha: float) -> float:
    """Residual of the label-smoothing decomposition; equals alpha*n*ln 2.

    Constant in both targets and predictions for fixed batch size.
    """
    p = np.asarray(p_hat_values, dtype=np.float64)
    l_ls = label_smoothing_loss(y, ad.Tensor(p), alpha).item()
    l_bce = bce_loss(y, ad.Tensor(p)).item()
    pc = np.clip(p, P_MIN, P_MAX)
    kl_uniform_to_p = -0.5 * np.log(pc) - 0.5 * np.log(1.0 - pc) - math.log(2.0)
    return l_ls - ((1.0 - alpha) * l_bce + alpha * float(kl_uniform_to_p.sum()))


def erl_kl_residual(y, p_hat_values, beta: float) -> float:
    """Residual of the entropy-penalty decomposition; equals -beta*n*ln 2."""
    p = np.asarray(p_hat_values, dtype=np.float64)
    l_erl = entropy_regularized_loss(y, ad.Tensor(p), beta).item()
    l_bce = bce_loss(y, ad.Tensor(p)).item()
    pc = np.clip(p, P_MIN, P_MAX)
    kl_p_to_uniform = pc * np.log(pc) + (1.0 - pc) * np.log(1.0 - pc) \
        + math.log(2.0)
    return l_erl - (l_bce + beta * float(kl_p_to_uniform.sum()))


def focal_entropy_gap(y, p_hat_values, gamma: float) -> float:
    """How far focal loss sits from BCE minus a scaled asymmetric entropy.

    The relation is approximate (first order in gamma), so this returns the
    signed gap for reporting rather than asserting a constant.
    """
    p = np.asarray(p_hat_values, dtype=np.float64)
    t = _as_targets(y)
    l_fl = focal_loss(y, ad.Tensor(p), gamma).item()
    l_bce = bce_loss(y, ad.Tensor(p)).item()
    pc = np.clip(p, P_MIN, P_MAX)
    h_asym = -(t * pc * np.log(pc) + (1.0 - t) * (1.0 - pc) * np.log(1.0 - pc))
    return l_fl - (l_bce - gamma * float(h_asym.sum()))


# -- loss selection --------------------------------------------------


LOSS_KINDS = ("bce", "label_smoothing", "entropy_regularized",
              "focal", "weighted_focal")

# which optional knobs each loss kind consumes; anything else set is an error
_REQUIRED = {
    "bce": frozenset(),
    "label_smoothing": frozenset({"smoothing"}),
    "entropy_regularized": frozenset({"entropy_weight"}),
    "focal": frozenset({"focusing"}),
    "weighted_focal": frozenset({"focusing", "positive_weight"}),
}


@dataclass(frozen=True)
class LossConfig:
    """Which objective to train with, plus exactly its parameters.

    ``l2_coefficient`` is carried here for the manifest but applied as
    decoupled decay inside the optimizer, never added to the loss value.
    """

    kind: str = "bce"
    smoothing: float | None = None
    entropy_weight: float | None = None
    focusing: float | None = None
    positive_weight: float | None = None
    l2_coefficient: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(
                f"unknown loss kind {self.kind!r}, expected one of "
                f"{', '.join(LOSS_KINDS)}")
        required = _REQUIRED[self.kind]
        for knob in ("smoothing", "entropy_weight", "focusing",
                     "positive_weight"):
            value = getattr(self, knob)
            if knob in required and value is None:
                raise ConfigError(f"loss kind {self.kind!r} needs {knob}")
            if knob not in required and value is not None:
                raise ConfigError(
                    f"loss kind {self.kind!r} does not take {knob}")
        if self.smoothing is not None and not 0.0 <= self.smoothing < 1.0:
            raise ConfigError("smoothing must lie in [0, 1)")
        if self.positive_weight is not None \
                and not 0.0 < self.positive_weight < 1.0:
            raise ConfigError("positive_weight must lie in (0, 1)")
        if self.entropy_weight is not None and self.entropy_weight < 0.0:
            raise ConfigError("entropy_weight must be non-negative")
        if self.focusing is not None and self.focusing < 0.0:
            raise ConfigError("focusing must be non-negative")
        if self.l2_coefficient < 0.0:
            raise ConfigError("l2_coefficient must be non-negative")

    def compute(self, y, p_hat: ad.Tensor) -> ad.Tensor:
        if self.kind == "bce":
            return bce_loss(y, p_hat)
        if self.kind == "label_smoothing":
            return label_smoothing_loss(y, p_hat, self.smoothing)
        if self.kind == "entropy_regularized":
            return entropy_regularized_loss(y, p_hat, self.entropy_weight)
        if self.kind == "focal":
            return focal_loss(y, p_hat, self.focusing)
        return weighted_focal_loss(y, p_hat, self.positive_weight,
                                   self.focusing)
