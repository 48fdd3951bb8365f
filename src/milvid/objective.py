"""Bag-max hinge objective with L2 regularization and argmax routing.

Each bag contributes ``max(0, 1 - Y * s)`` where ``s`` is the highest
instance score in the bag and ``Y`` its +1/-1 label; the objective is the
mean over bags plus ``lam * 0.5 * ||W||^2`` over weight matrices (biases
excluded). The subgradient of the max term flows only through the instance
that attains the bag maximum; bags whose hinge is zero contribute nothing.

Under a sigmoid or tanh output every bag-max hinge stays active, so the
objective is the linear loss ``1 - Y * s``: a hinge is zero only where the
output rounds to exactly +1 or -1 in float64 (sigmoid for a pre-activation
z >= ~36.7, tanh for |z| >= ~19.0). Only ``identity`` can meet the margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bag_model import Bag, stack_rows
from .errors import ConfigError
from .optimizers import _BLOCK
from .scorer import (
    ForwardTrace, Gradients, ScoringModel, Workspace, backward, forward_batch, score_rows,
)


@dataclass(frozen=True)
class BagLoss:
    bag_id: str
    bag_score: float
    argmax_index: int
    margin: float  # Y * bag_score
    hinge: float  # max(0, 1 - margin)


def bag_score(model: ScoringModel, bag: Bag) -> tuple[float, int]:
    """Eval-mode highest instance score in the bag and the index attaining it:
    ``score_rows``, then ``np.argmax`` (the first maximum wins, and so does a NaN)."""
    scores = score_rows(model, bag.matrix)
    index = int(np.argmax(scores))
    return float(scores[index]), index


def bag_maxima(
    model: ScoringModel,
    bags: list[Bag],
    train: bool = False,
    rng: np.random.Generator | None = None,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Each bag's highest instance score, the stacked row attaining it, and the trace.

    The bags' rows are stacked in order (``stack_rows``) and scored by one
    forward pass, so a train-mode pass draws the same dropout masks as one
    pass per bag. The argmax rows are ``np.argmax``'s per bag
    (``segment_argmax``): the first maximum wins, and so does a NaN.
    With ``work``, the stacked rows and the trace are views into the
    workspace, valid until the next call on it (see ``forward_batch``);
    ``work=None`` gives fresh arrays.
    """
    work = Workspace() if work is None else work
    x, starts = stack_rows(bags, work)
    scores, trace = forward_batch(model, x, train=train, rng=rng, work=work)
    rows = segment_argmax(scores, starts)
    return scores[rows], rows, trace


def segment_argmax(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.argmax`` of each non-empty segment of ``values`` that ``starts``
    begins, as an index into ``values``, in one pass: the segment's first value
    equal to its max wins (of 0.0 and -0.0, the first), and a NaN wins over any number."""
    peaks = np.repeat(np.maximum.reduceat(values, starts), np.diff(starts, append=len(values)))
    marked = np.flatnonzero((values == peaks) | np.isnan(values))
    return marked[np.searchsorted(marked, starts)]


def objective_gradient(
    model: ScoringModel,
    bags: list[Bag],
    lam: float,
    train: bool = False,
    rng: np.random.Generator | None = None,
    *,
    work: Workspace | None = None,
    out: np.ndarray | None = None,
) -> tuple[float, list[BagLoss], Gradients]:
    """Mean bag hinge plus ``lam * 0.5 * ||W||^2``, per-bag detail, and the exact (sub)gradient.

    One backward pass runs over the argmax rows of the bags with a violated
    margin, each with upstream ``-Y / z``; the L2 term adds ``lam * W`` to
    each weight gradient, walking the flat weights in blocks of ``_BLOCK``
    entries through one block of scratch, so the sum stays in cache and each
    entry gets the same bits as the whole-matrix ``gw + lam * w``. The
    value's ``||W||^2`` is one scratch-free pass (``weight_sq_norm``). The
    gradient fills ``out`` and the scratch goes to ``work`` when given (see
    ``backward``); a trainer that passes the same two on every step
    allocates nothing large after the first, and nothing of W0's size.
    """
    if lam < 0:
        raise ConfigError(f"regularization strength must be >= 0, got {lam}")
    work = Workspace() if work is None else work
    x, starts = stack_rows(bags, work)
    scores, trace = forward_batch(model, x, train=train, rng=rng, work=work)
    rows = segment_argmax(scores, starts)
    scores = scores[rows]
    labels = np.array([bag.label for bag in bags], dtype=np.float64)
    margins = labels * scores
    hinges = np.where(1.0 - margins > 0.0, 1.0 - margins, 0.0)  # a NaN margin gives 0
    details = zip(scores.tolist(), (rows - starts).tolist(), margins.tolist(), hinges.tolist())
    losses = [BagLoss(bag.bag_id, *d) for bag, d in zip(bags, details)]
    value = sum(hinges.tolist()) / len(bags) + lam * 0.5 * model.weight_sq_norm()
    # each bag's upstream on its argmax row: -Y/z when its hinge is active, else 0
    upstream = np.where(hinges > 0.0, -labels / len(bags), 0.0)
    active = np.flatnonzero(upstream)
    grads = backward(model, trace.select(rows[active], work), upstream[active], out=out, work=work)
    # gw += lam * w, one cache-sized block of the flat views at a time
    scratch = work.get("l2", (min(_BLOCK, max(w.size for w in model.weights)),))
    for gw, w in zip(grads.weights, model.weights):
        gw, w = gw.reshape(-1), w.reshape(-1)
        for lo in range(0, w.size, _BLOCK):
            block = w[lo : lo + _BLOCK]
            gw[lo : lo + block.size] += np.multiply(lam, block, out=scratch[: block.size])
    return value, losses, grads
