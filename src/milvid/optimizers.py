"""First-order update rules: SGD, Adagrad, RMSprop, Adam.

All four share one interface: ``step(params, grads)`` updates the parameter
arrays in place and advances the optimizer's internal state. Accumulators
are created lazily with the shapes of the first ``step`` call and are part
of training checkpoints, so a resumed run continues bit-identically.
Epsilon sits outside the square root: ``lr * g / (sqrt(v) + eps)``.
"""

from __future__ import annotations

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
        if self.lr is not None and self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")

    @property
    def effective_lr(self) -> float:
        return DEFAULT_LR[self.kind] if self.lr is None else self.lr


class Optimizer:
    """Base class holding the step counter and lazily-shaped accumulators."""

    slot_names: tuple[str, ...] = ()

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.lr = cfg.effective_lr
        self.t = 0
        self.slots: dict[str, list[np.ndarray]] = {}

    def _ensure_slots(self, params: list[np.ndarray]) -> None:
        for name in self.slot_names:
            if name not in self.slots:
                self.slots[name] = [np.zeros_like(p) for p in params]

    def _check(self, params, grads) -> None:
        if len(params) != len(grads):
            raise ConfigError("params and grads must have the same length")
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ConfigError(f"gradient {i} shape {g.shape} != parameter shape {p.shape}")
            if not np.all(np.isfinite(g)):
                bad = int(np.count_nonzero(~np.isfinite(g)))
                raise TrainingAbort(
                    f"non-finite gradient for parameter {i} ({bad} bad entries) at step {self.t}"
                )

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        self._ensure_slots(params)
        self.t += 1
        self._update(params, grads)

    def _update(self, params, grads) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class Adagrad(Optimizer):
    slot_names = ("sq_sum",)

    def _update(self, params, grads):
        for p, g, G in zip(params, grads, self.slots["sq_sum"]):
            G += g * g
            p -= self.lr * g / (np.sqrt(G) + EPS)


class RMSprop(Optimizer):
    slot_names = ("sq_avg",)

    def _update(self, params, grads):
        for p, g, v in zip(params, grads, self.slots["sq_avg"]):
            v *= RHO
            v += (1.0 - RHO) * g * g
            p -= self.lr * g / (np.sqrt(v) + EPS)


class Adam(Optimizer):
    slot_names = ("m", "v")

    def _update(self, params, grads):
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self.slots["m"], self.slots["v"]):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


_CLASSES = {"sgd": SGD, "adagrad": Adagrad, "rmsprop": RMSprop, "adam": Adam}


def make_optimizer(cfg: OptimizerConfig) -> Optimizer:
    return _CLASSES[cfg.kind](cfg)
