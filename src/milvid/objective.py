"""Bag-max hinge objective with L2 regularization and argmax routing.

Each bag contributes ``max(0, 1 - Y * s)`` where ``s`` is the highest
instance score in the bag and ``Y`` its +1/-1 label; the objective is the
mean over bags plus ``lam * 0.5 * ||W||^2`` over weight matrices (biases
excluded). The subgradient of the max term flows only through the instance
that attains the bag maximum; bags whose hinge is zero contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bag_model import Bag
from .errors import ConfigError, ValidationError
from .scorer import ForwardTrace, Gradients, ScoringModel, backward, forward_batch


@dataclass(frozen=True)
class BagLoss:
    bag_id: str
    bag_score: float
    argmax_index: int
    margin: float  # Y * bag_score
    hinge: float  # max(0, 1 - margin)


def bag_score(
    model: ScoringModel,
    bag: Bag,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, int]:
    """Highest instance score in the bag and the index attaining it.

    Ties break toward the lowest temporal index.
    """
    scores, _ = forward_batch(model, bag.feature_matrix(), train=train, rng=rng)
    idx = int(np.argmax(scores))  # argmax returns the first maximum
    return float(scores[idx]), idx


def bag_maxima(
    model: ScoringModel,
    bags: list[Bag],
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Each bag's highest instance score, the stacked row attaining it, and the trace.

    The bags' rows are stacked in order and scored by one forward pass, so a
    train-mode pass draws the same dropout masks as one pass per bag. The
    argmax is ``np.argmax`` per bag: the first maximum wins, and so does a NaN.
    """
    x = np.concatenate([bag.feature_matrix() for bag in bags])
    scores, trace = forward_batch(model, x, train=train, rng=rng)
    starts = _starts(bags)
    rows = starts + [int(np.argmax(s)) for s in np.split(scores, starts[1:])]
    return scores[rows], rows, trace


def _starts(bags) -> np.ndarray:
    return np.cumsum([0] + [len(bag) for bag in bags[:-1]])


def _hinges(model, bags, lam, train, rng):
    # value, per-bag detail, and each bag's upstream on its argmax row (0 when inactive)
    if lam < 0:
        raise ConfigError(f"regularization strength must be >= 0, got {lam}")
    if not bags:
        raise ValidationError("objective needs at least one bag")
    scores, rows, trace = bag_maxima(model, bags, train, rng)
    labels = np.array([bag.label for bag in bags], dtype=np.float64)
    margins = labels * scores
    hinges = np.where(1.0 - margins > 0.0, 1.0 - margins, 0.0)  # a NaN margin gives 0
    index = rows - _starts(bags)
    details = zip(scores.tolist(), index.tolist(), margins.tolist(), hinges.tolist())
    losses = [BagLoss(bag.bag_id, *d) for bag, d in zip(bags, details)]
    value = sum(hinges.tolist()) / len(bags) + lam * 0.5 * model.weight_sq_norm()
    upstream = np.where(hinges > 0.0, -labels / len(bags), 0.0)
    return value, losses, upstream, rows, trace


def objective(
    model: ScoringModel,
    bags: list[Bag],
    lam: float,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, list[BagLoss]]:
    """Mean bag hinge plus ``lam * 0.5 * ||W||^2``; also per-bag detail."""
    return _hinges(model, bags, lam, train, rng)[:2]


def objective_gradient(
    model: ScoringModel,
    bags: list[Bag],
    lam: float,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, list[BagLoss], Gradients]:
    """Objective value, per-bag detail, and its exact (sub)gradient.

    One backward pass runs over the argmax rows of the bags with a violated
    margin, each with upstream ``-Y / z``; the L2 term adds ``lam * W`` to
    each weight gradient.
    """
    value, losses, upstream, rows, trace = _hinges(model, bags, lam, train, rng)
    active = np.flatnonzero(upstream)
    grads = backward(model, trace.select(rows[active]), upstream[active])
    for gw, w in zip(grads.weights, model.weights):
        gw += lam * w
    return value, losses, grads
