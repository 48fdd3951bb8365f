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
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bag_model import Dataset, pool_segments
from .checkpoint import load_train_checkpoint, save_train_checkpoint
from .errors import ConfigError, TrainingAbort
from .evaluation import roc_auc, score_bags
from .objective import objective_gradient
from .optimizers import OptimizerConfig, make_optimizer
from .scorer import ScoringModel, init_glorot_normal

_STREAM_SHUFFLE = 1
_STREAM_DROPOUT = 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    bags_per_batch: int = 16
    lam: float = 0.001
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    dropout: bool = True
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
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
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


def build_model(input_dim: int, cfg: TrainConfig) -> ScoringModel:
    dims = (input_dim, *cfg.hidden_dims, 1)
    return init_glorot_normal(
        dims,
        cfg.seed,
        output_activation=cfg.output_activation,
        dropout_rate=cfg.dropout_rate,
    )


def train(
    train_set: Dataset,
    cfg: TrainConfig,
    val_set: Dataset | None = None,
    init_model: ScoringModel | None = None,
    resume_from: str | Path | None = None,
) -> tuple[ScoringModel, TrainLog]:
    """Train a scorer on the given bags; deterministic for fixed inputs.

    Checkpoints (model + optimizer state + loop counters) are written under
    ``cfg.out_dir`` when set: ``ckpt-NNNN.mvck`` at the configured interval,
    ``best.mvck`` whenever the validation AUC improves, and ``final.mvck``
    at the end (``load_model`` reads it). ``resume_from`` continues a run
    from a checkpoint and reproduces the uninterrupted run bitwise.
    """
    pos_bags = train_set.positives()
    neg_bags = train_set.negatives()
    if not pos_bags or not neg_bags:
        raise ConfigError(
            f"training needs both classes: {len(pos_bags)} positive, {len(neg_bags)} negative bags"
        )
    if cfg.segments is not None:
        pos_bags = [pool_segments(b, cfg.segments) for b in pos_bags]
        neg_bags = [pool_segments(b, cfg.segments) for b in neg_bags]
    val_bags = None
    if val_set is not None:
        val_bags = list(val_set.bags)
        if cfg.segments is not None:
            val_bags = [pool_segments(b, cfg.segments) for b in val_bags]

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    start_epoch = 1
    iteration = 0
    best_val_auc = None
    best_epoch = None
    if resume_from is not None:
        model, optimizer, meta = load_train_checkpoint(resume_from)
        if meta["seed"] != cfg.seed:
            raise ConfigError(f"checkpoint seed {meta['seed']} != configured seed {cfg.seed}")
        if optimizer.cfg.kind != cfg.optimizer.kind:
            raise ConfigError(
                f"checkpoint optimizer {optimizer.cfg.kind!r} != configured {cfg.optimizer.kind!r}"
            )
        start_epoch = int(meta["epoch"]) + 1
        iteration = int(meta["iteration"])
        best_val_auc = meta.get("best_val_auc")
        best_epoch = meta.get("best_epoch")
    else:
        model = init_model.copy() if init_model is not None else build_model(train_set.dim, cfg)
        if model.config.input_dim != train_set.dim:
            raise ConfigError(
                f"model expects dim {model.config.input_dim}, dataset has {train_set.dim}"
            )
        optimizer = make_optimizer(cfg.optimizer)

    use_dropout = cfg.dropout and model.config.dropout_rate > 0.0
    log = TrainLog()
    started = time.perf_counter()
    last_checkpoint = None

    def meta_dict(epoch: int) -> dict:
        return {
            "epoch": epoch,
            "iteration": iteration,
            "seed": cfg.seed,
            "best_val_auc": best_val_auc,
            "best_epoch": best_epoch,
        }

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
            value, _, grads = objective_gradient(
                model, batch, cfg.lam, train=use_dropout, rng=rng
            )
            if not np.isfinite(value):
                raise TrainingAbort(
                    f"objective became non-finite at iteration {iteration + 1}; "
                    f"last good checkpoint: {last_checkpoint or 'none'}"
                )
            optimizer.step(model.param_list(), grads.param_list())
            iteration += 1
            log.rows.append(
                LogRow(iteration, epoch, value, None, time.perf_counter() - started)
            )

        if val_bags and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            val_auc = roc_auc(score_bags(model, val_bags)).auc
            log.rows[-1].val_auc = val_auc
            if best_val_auc is None or val_auc > best_val_auc:
                best_val_auc = val_auc
                best_epoch = epoch
                if out_dir is not None:
                    save_train_checkpoint(out_dir / "best.mvck", model, optimizer, meta_dict(epoch))

        if (
            out_dir is not None
            and cfg.checkpoint_interval
            and epoch % cfg.checkpoint_interval == 0
        ):
            last_checkpoint = out_dir / f"ckpt-{epoch:04d}.mvck"
            save_train_checkpoint(last_checkpoint, model, optimizer, meta_dict(epoch))

    if out_dir is not None:
        save_train_checkpoint(out_dir / "final.mvck", model, optimizer, meta_dict(cfg.epochs))
    return model, log


def compare_optimizers(
    train_set: Dataset,
    base_cfg: TrainConfig,
    kinds: list[str],
    val_set: Dataset,
) -> list[tuple[str, float]]:
    """Train one model per optimizer kind from one shared initialization.

    Every run reuses the same seed, initial parameters and batch schedule,
    so rows differ only by the update rule. Returns (kind, val AUC) rows in
    the given order.
    """
    if not kinds:
        raise ConfigError("kinds must be non-empty")
    if val_set is None:
        raise ConfigError("compare_optimizers needs an evaluation split")
    val_bags = list(val_set.bags)
    if base_cfg.segments is not None:
        val_bags = [pool_segments(b, base_cfg.segments) for b in val_bags]
    init = build_model(train_set.dim, base_cfg)
    rows = []
    for kind in kinds:
        opt_cfg = replace(base_cfg.optimizer, kind=kind)
        run_cfg = replace(base_cfg, optimizer=opt_cfg, out_dir=None)
        model, _ = train(train_set, run_cfg, val_set=None, init_model=init)
        rows.append((kind, roc_auc(score_bags(model, val_bags)).auc))
    return rows
