"""Training objectives on logits, plus identity checks.

Every loss kind is one :func:`autodiff.logit_loss` with its own
parameters: class weights, a focusing exponent and an entropy weight.
All losses are sums over the batch (callers divide by batch size when they
want a mean) and take the model's logit z, never a probability: log p and
log(1 - p) are -softplus(-z) and -softplus(z), so a confidently wrong
prediction has a finite loss and a gradient of magnitude about 1.

The ``*_residual`` helpers evaluate the losses at plain numpy logits and
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


def _as_targets(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"targets must be 1-D, got shape {arr.shape}")
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("targets must lie in [0, 1]")
    return arr


def smooth_labels(y, alpha: float) -> np.ndarray:
    """Two-class label smoothing: y -> y(1 - alpha) + alpha/2."""
    return _as_targets(y) * (1.0 - alpha) + alpha / 2.0


def l2_penalty(params: dict[str, ad.Tensor], coefficient: float,
               exclude: frozenset[str]) -> float:
    """Reporting value: coefficient times the summed squared weight norms.

    Decay itself happens inside the optimizer; this mirrors what that decay
    is implicitly penalizing, the `exclude` names (biases) left out.
    """
    total = 0.0
    for name, p in params.items():
        if name not in exclude:
            total += float(np.sum(p.data * p.data))
    return coefficient * total


# -- identity diagnostics (numpy in, float out) ----------------------


def _kl_terms(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, -log p, -log(1 - p)) of numpy logits z, p = sigmoid(z)."""
    z = np.asarray(logits, dtype=np.float64)
    return z, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)


def ls_kl_residual(y, logits, alpha: float) -> float:
    """Residual of the label-smoothing decomposition; equals alpha*n*ln 2.

    Constant in both targets and predictions for fixed batch size.
    """
    z, nlp, nlq = _kl_terms(logits)
    l_ls = LossConfig("label_smoothing", smoothing=alpha).compute(
        y, ad.Tensor(z)).item()
    l_bce = LossConfig().compute(y, ad.Tensor(z)).item()
    kl_uniform_to_p = 0.5 * nlp + 0.5 * nlq - math.log(2.0)
    return l_ls - ((1.0 - alpha) * l_bce + alpha * float(kl_uniform_to_p.sum()))


def erl_kl_residual(y, logits, beta: float) -> float:
    """Residual of the entropy-penalty decomposition; equals -beta*n*ln 2."""
    z, nlp, nlq = _kl_terms(logits)
    l_erl = LossConfig("entropy_regularized", entropy_weight=beta).compute(
        y, ad.Tensor(z)).item()
    l_bce = LossConfig().compute(y, ad.Tensor(z)).item()
    kl_p_to_uniform = -np.exp(-nlp) * nlp - np.exp(-nlq) * nlq \
        + math.log(2.0)
    return l_erl - (l_bce + beta * float(kl_p_to_uniform.sum()))


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

    def compute(self, y, z: ad.Tensor) -> ad.Tensor:
        """Summed loss of the logits `z` against targets `y`: the knobs
        this kind does not take are None and leave the loss as BCE."""
        alpha = self.positive_weight
        return ad.logit_loss(
            z, smooth_labels(y, self.smoothing or 0.0),
            pos_weight=1.0 if alpha is None else alpha,
            neg_weight=1.0 if alpha is None else 1.0 - alpha,
            gamma=self.focusing or 0.0,
            beta=self.entropy_weight or 0.0)
