"""First-order update rules: SGD, Adagrad, RMSprop, Adam.

All four share one interface: ``step(theta, grad)`` updates the flat
parameter vector in place and advances the optimizer's internal state. Each
accumulator is one flat vector like ``theta``, zero before the first step,
and is part of training checkpoints, so a resumed run continues bit-identically.
Epsilon sits outside the square root: ``lr * g / (sqrt(v) + eps)``.

A step first checks the whole gradient for non-finite entries, one block of
``_BLOCK`` entries at a time into a boolean scratch block, so an abort writes
nothing. It then walks ``theta``, ``grad`` and the accumulators in the same
contiguous blocks, and each rule runs on one block at a time as a chain of
in-place ufuncs through two scratch vectors of one block each. The scratch is
allocated once per optimizer and is not a slot, so no checkpoint holds it,
and a step allocates nothing that grows with the parameter count. Every
rule evaluates the same elementwise operations in the same order as its
whole-vector form, given in a comment above it, so the blocked step gives
the same bits; the blocks only keep the data in cache between the
operations of one step.
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

# entries per block of a step: 32K float64 (256 KB) per vector, so Adam's six
# block vectors (1.5 MB) stay in a 2 MB L2 cache. On a 2-CPU Xeon an Adam step
# at 2.1M parameters took about 48 ms whole-vector and 25-30 ms with blocks of
# 16K-64K entries; 8K blocks pay more per-call overhead, 128K ones spill L2.
_BLOCK = 1 << 15


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
        self._scratch = np.empty((2, _BLOCK))
        self._finite = np.empty(_BLOCK, dtype=bool)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update the flat parameter vector ``theta`` in place from ``grad``."""
        if theta.ndim != 1 or theta.shape != grad.shape:
            raise ConfigError(
                f"step needs two flat vectors of one shape, got parameters {theta.shape} "
                f"and gradient {grad.shape}"
            )
        for lo in range(0, grad.size, _BLOCK):
            g = grad[lo : lo + _BLOCK]
            if not np.isfinite(g, out=self._finite[: g.size]).all():
                bad = int(np.count_nonzero(~np.isfinite(grad)))
                raise TrainingAbort(f"non-finite gradient ({bad} bad entries) at step {self.t}")
        if not self.slots:
            self.slots = {name: np.zeros_like(theta) for name in self.slot_names}
        slots = [self.slots[name] for name in self.slot_names]
        for name, s in zip(self.slot_names, slots):
            if s.shape != theta.shape:
                raise ConfigError(f"slot {name!r} shape {s.shape} != parameter shape {theta.shape}")
        self.t += 1
        for lo in range(0, theta.size, _BLOCK):
            p = theta[lo : lo + _BLOCK]
            n = p.size
            self._update(p, grad[lo : lo + n], *(s[lo : lo + n] for s in slots),
                         self._scratch[0, :n], self._scratch[1, :n])

    def _update(self, p, g, *slots_and_scratch) -> None:
        """Update one block: ``p``, ``g``, each slot in ``slot_names`` order, then ``s1, s2``."""
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, p, g, s1, s2):
        # p -= lr * g
        np.multiply(self.lr, g, out=s1)
        p -= s1


class Adagrad(Optimizer):
    slot_names = ("sq_sum",)

    def _update(self, p, g, sq_sum, s1, s2):
        # sq_sum += g * g;  p -= lr * g / (sqrt(sq_sum) + EPS)
        np.multiply(g, g, out=s1)
        sq_sum += s1
        _scaled_step(p, g, sq_sum, self.lr, s1, s2)


class RMSprop(Optimizer):
    slot_names = ("sq_avg",)

    def _update(self, p, g, v, s1, s2):
        # v = RHO * v + (1 - RHO) * g * g;  p -= lr * g / (sqrt(v) + EPS)
        v *= RHO
        np.multiply(1.0 - RHO, g, out=s1)
        s1 *= g
        v += s1
        _scaled_step(p, g, v, self.lr, s1, s2)


class Adam(Optimizer):
    slot_names = ("m", "v")

    def _update(self, p, g, m, v, s1, s2):
        # m = B1 * m + (1 - B1) * g;  v = B2 * v + (1 - B2) * g * g
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=s1)
        m += s1
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(m, bc1, out=s1)
        np.multiply(self.lr, s1, out=s1)
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += EPS
        s1 /= s2
        p -= s1


def _scaled_step(p, g, acc, lr, s1, s2):
    # p -= lr * g / (sqrt(acc) + EPS), shared by Adagrad and RMSprop
    np.multiply(lr, g, out=s1)
    np.sqrt(acc, out=s2)
    s2 += EPS
    s1 /= s2
    p -= s1


_CLASSES = {"sgd": SGD, "adagrad": Adagrad, "rmsprop": RMSprop, "adam": Adam}


def make_optimizer(cfg: OptimizerConfig) -> Optimizer:
    return _CLASSES[cfg.kind](cfg)
