"""AdamW with decoupled weight decay, its settings, and the step-decay
learning rate rule.

Decay is applied directly to the parameter update, never folded into the
gradient, so the first and second moment estimates are identical for any
decay strength.  Bias-like parameters are excluded by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


@dataclass(frozen=True)
class OptimizerSettings:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("moment decay rates must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")


@dataclass(frozen=True)
class ScheduleSettings:
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (80, 160)

    def __post_init__(self):
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError("decay_factor must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.decay_epochs,
                                      self.decay_epochs[1:])):
            raise ConfigError("decay_epochs must be strictly increasing")

    def lr_at(self, initial_lr: float, epoch: int) -> float:
        """initial_lr * decay_factor ** (number of decay epochs <= epoch)."""
        drops = sum(1 for e in self.decay_epochs if e <= epoch)
        return initial_lr * self.decay_factor ** drops


class AdamW:
    """Decoupled-decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], settings: OptimizerSettings,
                 weight_decay: float, decay_exclude: frozenset[str]) -> None:
        self.params = params
        self.lr = settings.learning_rate
        self.beta1, self.beta2 = settings.beta1, settings.beta2
        self.eps = settings.eps
        self.weight_decay = weight_decay
        self.decay_exclude = decay_exclude
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        """One update at `lr`, else at the settings' learning rate; pass
        `lr` to follow a schedule without mutating state."""
        step_lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and name not in self.decay_exclude:
                update = update + self.weight_decay * p.data
            p.data = p.data - step_lr * update
