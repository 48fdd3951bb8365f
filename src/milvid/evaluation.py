"""Confusion counts, rate metrics, ROC curves and AUC.

The decision rule is strict: predict positive iff score > threshold. The
ROC sweep visits every distinct score once, so tied scores move both class
counts simultaneously and the trapezoidal AUC equals the pairwise statistic
P(pos score > neg score) + 0.5 * P(equal).

Bag scores come from ``score_bags``, an eval-only pass: it keeps no trace
of the forward pass, only one buffer per layer, and takes each bag's
maximum without an argmax.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bag_model import Bag, stack_rows
from .errors import ValidationError
from .scorer import ScoringModel, Workspace, score_rows

ScoredLabel = tuple[float, int]
_SCORE_SLICE = 16  # bags per score_rows call in score_bags; keeps the stacked copy small


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def pos(self) -> int:
        return self.tp + self.fn

    @property
    def neg(self) -> int:
        return self.fp + self.tn


@dataclass(frozen=True)
class RatesReport:
    """Rates are None (never NaN) when their denominator class is empty."""

    tpr: float | None
    fpr: float | None
    tnr: float | None
    fnr: float | None
    accuracy: float | None


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float, float], ...]  # (fpr, tpr, threshold)
    auc: float


def _scored_arrays(scored: list[ScoredLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels as float64 arrays; every score finite, every label +1 or -1."""
    pairs = np.asarray(scored, dtype=np.float64).reshape(len(scored), 2)
    scores, labels = pairs[:, 0], pairs[:, 1]
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    if not np.all(np.abs(labels) == 1):
        raise ValidationError("labels must be +1 or -1")
    return scores, labels


def confusion(scored: list[ScoredLabel], threshold: float) -> ConfusionCounts:
    """Tally predictions (score > threshold means positive) against labels."""
    if len(scored) == 0:
        raise ValidationError("cannot build a confusion matrix from no scores")
    scores, labels = _scored_arrays(scored)
    predicted, actual = scores > threshold, labels == 1
    return ConfusionCounts(
        tp=int(np.count_nonzero(predicted & actual)),
        fp=int(np.count_nonzero(predicted & ~actual)),
        tn=int(np.count_nonzero(~predicted & ~actual)),
        fn=int(np.count_nonzero(~predicted & actual)),
    )


def rates(c: ConfusionCounts) -> RatesReport:
    """TPR, FPR, TNR, FNR and accuracy from integer counts.

    Each rate is a single integer division, so the complement identities
    TPR + FNR = 1 and FPR + TNR = 1 hold exactly whenever defined.
    """
    tpr = c.tp / c.pos if c.pos > 0 else None
    fnr = c.fn / c.pos if c.pos > 0 else None
    fpr = c.fp / c.neg if c.neg > 0 else None
    tnr = c.tn / c.neg if c.neg > 0 else None
    total = c.pos + c.neg
    accuracy = (c.tp + c.tn) / total if total > 0 else None
    return RatesReport(tpr=tpr, fpr=fpr, tnr=tnr, fnr=fnr, accuracy=accuracy)


def roc_auc(scored: list[ScoredLabel]) -> RocCurve:
    """ROC curve over all distinct-score thresholds, AUC by trapezoid.

    Cumulative counts stay integers until the final divisions, keeping the
    equivalence with the pairwise statistic exact up to one rounding.
    """
    scores, labels = _scored_arrays(scored)
    num_pos = int(np.count_nonzero(labels == 1))
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValidationError("ROC needs at least one positive and one negative label")

    order = np.argsort(-scores, kind="stable")
    scores, is_pos = scores[order], labels[order] == 1
    starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])  # one per distinct score
    ends = np.r_[starts[1:], scores.size]
    cum_tp = np.cumsum(is_pos)[ends - 1]
    cum_fp = ends - cum_tp
    # integer: 2 * area in count space, one trapezoid per distinct score
    twice_area = int(np.sum(np.diff(cum_fp, prepend=0) * (cum_tp + np.r_[0, cum_tp[:-1]])))
    points = zip((cum_fp / num_neg).tolist(), (cum_tp / num_pos).tolist(), scores[starts].tolist())
    auc = twice_area / (2 * num_pos * num_neg)
    return RocCurve(points=((0.0, 0.0, float("inf")), *points), auc=auc)


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    rates: RatesReport
    roc: RocCurve
    threshold: float
    num_bags: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "num_bags": self.num_bags,
            "threshold": self.threshold,
            "counts": asdict(self.counts),
            "rates": asdict(self.rates),
            "auc": self.roc.auc,
            "roc_points": [[f, t, th] for f, t, th in self.roc.points],
        }


def score_bags(
    model: ScoringModel, bags: list[Bag], work: Workspace | None = None
) -> list[ScoredLabel]:
    """Eval-mode bag scores (max over instances) with their true labels.

    Each slice of 16 bags is stacked into one float64 batch (``stack_rows``)
    and scored by ``score_rows``, which keeps no trace: one buffer per layer.
    The slice's bag maxima are one ``np.maximum.reduceat`` at the bag starts:
    the bits ``objective.bag_maxima`` takes at its argmax, and a NaN still
    wins. (Of a tie between 0.0 and -0.0 ``np.maximum`` may keep either, but
    no score is -0.0: the BLAS matmul sums from 0.0.) Every slice runs on one
    workspace, ``work`` or a new one, so slices after the first reuse its
    buffers.
    """
    work = Workspace() if work is None else work
    scored = []
    for i in range(0, len(bags), _SCORE_SLICE):
        chunk = bags[i : i + _SCORE_SLICE]
        x, starts = stack_rows(chunk, work)
        maxima = np.maximum.reduceat(score_rows(model, x, work=work), starts)
        scored += zip(maxima.tolist(), (bag.label for bag in chunk))
    return scored


def evaluate_bags(model: ScoringModel, bags: list[Bag], threshold: float | None = None) -> EvalReport:
    """Bag-level confusion, rates, and ROC at the given threshold.

    The default threshold is the midpoint of the model's output range
    (0.5 for sigmoid, 0.0 for tanh).
    """
    if not bags:
        raise ValidationError("cannot evaluate an empty bag list")
    if threshold is None:
        threshold = model.default_threshold
    scored = score_bags(model, bags)
    c = confusion(scored, threshold)
    return EvalReport(
        counts=c,
        rates=rates(c),
        roc=roc_auc(scored),
        threshold=threshold,
        num_bags=len(bags),
    )
