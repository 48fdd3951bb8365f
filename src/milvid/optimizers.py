"""First-order update rules: SGD, Adagrad, RMSprop, Adam.

All four share one interface: ``step(theta, grad)`` updates the flat
parameter vector in place and advances the optimizer's internal state. Each
accumulator is one flat vector like ``theta``, zero before the first step,
and is part of training checkpoints, so a resumed run continues bit-identically.
Epsilon sits outside the square root: ``lr * g / (sqrt(v) + eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingAbort

KINDS = ("sgd", "adam", "adagrad", "rmsprop")

DEFAULT_LR = {"sgd": 0.01, "adagrad": 0.01, "adam": 0.001, "rmsprop": 0.001}

BETA1 = 0.9  # Adam first-moment decay
BETA2 = 0.999  # Adam second-moment decay
RHO = 0.9  # RMSprop squared-gradient decay
EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"
    lr: float | None = None  # None picks the kind's default

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a positive finite number, got {self.lr}")

    @property
    def effective_lr(self) -> float:
        return DEFAULT_LR[self.kind] if self.lr is None else self.lr


class Optimizer:
    """Base class holding the step counter and one flat accumulator per slot."""

    slot_names: tuple[str, ...] = ()

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.lr = cfg.effective_lr
        self.t = 0
        self.slots: dict[str, np.ndarray] = {}

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update the flat parameter vector ``theta`` in place from ``grad``."""
        if theta.shape != grad.shape:
            raise ConfigError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
        if not np.all(np.isfinite(grad)):
            bad = int(np.count_nonzero(~np.isfinite(grad)))
            raise TrainingAbort(f"non-finite gradient ({bad} bad entries) at step {self.t}")
        if not self.slots:
            self.slots = {name: np.zeros_like(theta) for name in self.slot_names}
        self.t += 1
        self._update(theta, grad)

    def _update(self, p, g) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, p, g):
        p -= self.lr * g


class Adagrad(Optimizer):
    slot_names = ("sq_sum",)

    def _update(self, p, g):
        self.slots["sq_sum"] += g * g
        p -= self.lr * g / (np.sqrt(self.slots["sq_sum"]) + EPS)


class RMSprop(Optimizer):
    slot_names = ("sq_avg",)

    def _update(self, p, g):
        v = self.slots["sq_avg"]
        v *= RHO
        v += (1.0 - RHO) * g * g
        p -= self.lr * g / (np.sqrt(v) + EPS)


class Adam(Optimizer):
    slot_names = ("m", "v")

    def _update(self, p, g):
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        m, v = self.slots["m"], self.slots["v"]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


_CLASSES = {"sgd": SGD, "adagrad": Adagrad, "rmsprop": RMSprop, "adam": Adam}


def make_optimizer(cfg: OptimizerConfig) -> Optimizer:
    return _CLASSES[cfg.kind](cfg)
