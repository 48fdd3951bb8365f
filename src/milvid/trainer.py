"""Training loop: balanced bag batches, optimizer steps, checkpoints.

One epoch is one pass over all positive training bags; negatives are
resampled each epoch so every batch carries both hinge signs. Every source
of randomness (shuffling, dropout masks) is derived from (seed, stream,
epoch, batch), never from a running generator, so a run resumed from a
checkpoint consumes exactly the randomness of the uninterrupted run and
reproduces it bitwise.
"""

from __future__ import annotations

import csv
import math
import re
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bag_model import Dataset, pool_bags
from .checkpoint import load_train_checkpoint, save_train_checkpoint
from .errors import ConfigError, TrainingAbort
from .evaluation import roc_auc, score_bags
from .objective import objective_gradient
from .optimizers import Optimizer, OptimizerConfig, make_optimizer
from .scorer import ScorerConfig, ScoringModel, Workspace, init_glorot_normal

_STREAM_SHUFFLE = 1
_STREAM_DROPOUT = 2

# the TrainConfig fields a checkpoint's meta records; with the model and
# optimizer headers they define the run that a resume must continue
_META_SETTINGS = ("seed", "lam", "bags_per_batch", "segments")

# the names of the checkpoints train writes under out_dir
CHECKPOINT_NAME = re.compile(r"(final|best|ckpt-[0-9]{4,})\.mvck")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    bags_per_batch: int = 16
    lam: float = 0.001
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    segments: int | None = None
    checkpoint_interval: int = 0  # epochs between checkpoints; 0 = final only
    eval_every: int = 1
    hidden_dims: tuple[int, ...] = (512, 32)
    output_activation: str = "sigmoid"
    dropout_rate: float = 0.6
    out_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.bags_per_batch < 1:
            raise ConfigError("bags_per_batch must be >= 1")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be a finite number >= 0, got {self.lam}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.segments is not None and self.segments < 1:
            raise ConfigError("segments must be >= 1")
        if self.checkpoint_interval < 0 or self.eval_every < 1:
            raise ConfigError("bad checkpoint_interval or eval_every")


@dataclass
class LogRow:
    iteration: int
    epoch: int
    objective: float
    val_auc: float | None
    seconds: float


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "epoch", "objective", "val_auc", "seconds"])
            for r in self.rows:
                writer.writerow(
                    [
                        r.iteration,
                        r.epoch,
                        f"{r.objective:.12g}",
                        "" if r.val_auc is None else f"{r.val_auc:.12g}",
                        f"{r.seconds:.3f}",
                    ]
                )


def plan_batches(
    n_pos: int, n_neg: int, bags_per_batch: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index batches for one epoch: every positive once, negatives resampled.

    Each batch holds about half positives and half negatives and always at
    least one of each (a batch size of 1 is widened to one of each class).
    """
    pos_per = max(1, bags_per_batch // 2)
    neg_per = max(1, bags_per_batch - pos_per)
    pos_order = rng.permutation(n_pos)
    n_batches = math.ceil(n_pos / pos_per)
    neg_chunks = []
    have = 0
    while have < n_batches * neg_per:
        chunk = rng.permutation(n_neg)
        neg_chunks.append(chunk)
        have += n_neg
    neg_order = np.concatenate(neg_chunks)
    batches = []
    for i in range(n_batches):
        batches.append(
            (
                pos_order[i * pos_per : (i + 1) * pos_per],
                neg_order[i * neg_per : (i + 1) * neg_per],
            )
        )
    return batches


def _scorer_config(input_dim: int, cfg: TrainConfig) -> ScorerConfig:
    return ScorerConfig(
        layer_dims=(input_dim, *cfg.hidden_dims, 1),
        output_activation=cfg.output_activation,
        dropout_rate=cfg.dropout_rate,
    )


def build_model(input_dim: int, cfg: TrainConfig) -> ScoringModel:
    return init_glorot_normal(seed=cfg.seed, **asdict(_scorer_config(input_dim, cfg)))


def _run_settings(scorer: ScorerConfig, optimizer_cfg: OptimizerConfig, settings: dict) -> dict:
    """Everything that defines a run: ``settings`` plus the scorer and optimizer fields."""
    optimizer = {"optimizer": optimizer_cfg.kind, "lr": optimizer_cfg.effective_lr}
    return {**settings, **asdict(scorer), **optimizer}


def _check_resume(
    cfg: TrainConfig, input_dim: int, model: ScoringModel, optimizer: Optimizer, meta: dict
) -> None:
    """Raise ConfigError unless the checkpoint comes from a run with ``cfg``'s settings.

    Only epochs, checkpoint_interval, eval_every and out_dir may differ.
    """
    saved = _run_settings(
        model.config, optimizer.cfg, {k: meta.get(k, "<not recorded>") for k in _META_SETTINGS}
    )
    configured = _run_settings(
        _scorer_config(input_dim, cfg), cfg.optimizer, {k: getattr(cfg, k) for k in _META_SETTINGS}
    )
    diffs = [
        f"{k}: checkpoint {saved[k]!r}, configured {configured[k]!r}"
        for k in configured
        if saved[k] != configured[k]
    ]
    if diffs:
        raise ConfigError("checkpoint does not match the configuration: " + "; ".join(diffs))
    if meta["epoch"] > cfg.epochs:
        raise ConfigError(
            f"checkpoint is at epoch {meta['epoch']}, past the configured {cfg.epochs} epochs"
        )


def train(
    train_set: Dataset,
    cfg: TrainConfig,
    val_set: Dataset | None = None,
    resume_from: str | Path | None = None,
) -> tuple[ScoringModel, TrainLog]:
    """Train a scorer on the given bags; deterministic for fixed inputs.

    Checkpoints (model + optimizer state + loop counters) are written under
    ``cfg.out_dir`` when set: ``ckpt-NNNN.mvck`` at the configured interval,
    ``best.mvck`` whenever the validation AUC improves, and ``final.mvck``
    at the end (``load_model`` reads it). ``resume_from`` continues a run
    from a checkpoint and reproduces the uninterrupted run bitwise. A set
    without both classes is a ``ConfigError``, raised before any step.
    """
    # the last epoch always validates, and its ROC needs both classes too
    for what, split in (("training", train_set), ("validation split", val_set)):
        if split is not None and not (split.positives() and split.negatives()):
            raise ConfigError(f"{what} needs both classes: {len(split.positives())} positive, "
                              f"{len(split.negatives())} negative bags")
    pos_bags = pool_bags(train_set.positives(), cfg.segments)
    neg_bags = pool_bags(train_set.negatives(), cfg.segments)
    val_bags = pool_bags(val_set.bags, cfg.segments) if val_set is not None else None

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    start_epoch = 1
    iteration = 0
    best_val_auc = None
    best_epoch = None
    if resume_from is not None:
        model, optimizer, meta = load_train_checkpoint(resume_from)
        _check_resume(cfg, train_set.dim, model, optimizer, meta)
        start_epoch = meta["epoch"] + 1
        iteration = meta["iteration"]
        best_val_auc = meta.get("best_val_auc")
        best_epoch = meta.get("best_epoch")
    else:
        model = build_model(train_set.dim, cfg)
        optimizer = make_optimizer(cfg.optimizer)

    use_dropout = cfg.dropout_rate > 0.0
    log = TrainLog()
    started = time.perf_counter()
    last_checkpoint = None

    def save_checkpoint(name: str, epoch: int) -> None:
        nonlocal last_checkpoint
        meta = {
            "epoch": epoch,
            "iteration": iteration,
            **{k: getattr(cfg, k) for k in _META_SETTINGS},
            "best_val_auc": best_val_auc,
            "best_epoch": best_epoch,
        }
        save_train_checkpoint(out_dir / name, model, optimizer, meta)
        last_checkpoint = out_dir / name

    # one workspace and one gradient vector for every step and validation
    work = Workspace()
    grad = np.empty_like(model.theta)
    # a diverging run overflows in matmuls and squares: TrainingAbort reports
    # it, so numpy's warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(start_epoch, cfg.epochs + 1):
            shuffle_rng = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE, epoch])
            batches = plan_batches(len(pos_bags), len(neg_bags), cfg.bags_per_batch, shuffle_rng)
            for batch_idx, (pos_idx, neg_idx) in enumerate(batches):
                batch = [pos_bags[i] for i in pos_idx] + [neg_bags[i] for i in neg_idx]
                rng = (
                    np.random.default_rng([cfg.seed, _STREAM_DROPOUT, epoch, batch_idx])
                    if use_dropout
                    else None
                )
                value, _, _ = objective_gradient(
                    model, batch, cfg.lam, train=use_dropout, rng=rng, work=work, out=grad
                )
                if not np.isfinite(value):
                    raise TrainingAbort(
                        f"objective became non-finite at iteration {iteration + 1}; "
                        f"last good checkpoint: {last_checkpoint or 'none'}"
                    )
                optimizer.step(model.theta, grad)
                iteration += 1
                log.rows.append(
                    LogRow(iteration, epoch, value, None, time.perf_counter() - started)
                )

            if val_bags and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
                scored = score_bags(model, val_bags, work)
                if not all(math.isfinite(s) for s, _ in scored):
                    raise TrainingAbort(
                        f"validation scores became non-finite at epoch {epoch}; "
                        f"last good checkpoint: {last_checkpoint or 'none'}"
                    )
                val_auc = roc_auc(scored).auc
                log.rows[-1].val_auc = val_auc
                if best_val_auc is None or val_auc > best_val_auc:
                    best_val_auc = val_auc
                    best_epoch = epoch
                    if out_dir is not None:
                        save_checkpoint("best.mvck", epoch)

            if (
                out_dir is not None
                and cfg.checkpoint_interval
                and epoch % cfg.checkpoint_interval == 0
            ):
                save_checkpoint(f"ckpt-{epoch:04d}.mvck", epoch)

    if out_dir is not None:
        save_checkpoint("final.mvck", cfg.epochs)
    return model, log


def compare_optimizers(
    train_set: Dataset,
    base_cfg: TrainConfig,
    kinds: list[str],
    val_set: Dataset,
) -> list[tuple[str, float]]:
    """Train one model per optimizer kind from one shared initialization.

    Every run reuses the same seed, hence the same initial parameters and
    batch schedule, so rows differ only by the update rule. Returns
    (kind, val AUC) rows in the given order.
    """
    if not kinds:
        raise ConfigError("kinds must be non-empty")
    if val_set is None:
        raise ConfigError("compare_optimizers needs an evaluation split")
    rows = []
    for kind in kinds:
        opt_cfg = replace(base_cfg.optimizer, kind=kind)
        # validation runs once, on the final model
        run_cfg = replace(base_cfg, optimizer=opt_cfg, eval_every=base_cfg.epochs, out_dir=None)
        _, log = train(train_set, run_cfg, val_set=val_set)
        rows.append((kind, log.rows[-1].val_auc))
    return rows
