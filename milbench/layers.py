"""What the traced run wraps in milvid, and the per-layer metrics it reports.

Each ``src/milvid`` module except ``cli`` is a layer. Counts are exact;
``rows``-based flops and optimizer/checkpoint bytes are computed from array
shapes and file sizes, not measured.
"""

from __future__ import annotations

import os
from collections import defaultdict

from stats import percentile, ratio
from tracer import Target, ancestors, self_times, step_seconds


def _path_bytes(args, kwargs, result):
    """Size of the file named by the first argument (computed, from the file)."""
    return {"bytes": os.path.getsize(args[0])}


def _dense_flops(layer_dims, rows: int) -> int:
    """Multiply-adds of one dense pass over ``rows`` inputs, counted as 2 flops."""
    return 2 * rows * sum(a * b for a, b in zip(layer_dims, layer_dims[1:]))


def _forward_attrs(args, kwargs, result):
    rows = int(args[1].shape[0])
    return {"rows": rows, "flops": _dense_flops(args[0].config.layer_dims, rows)}


def _backward_attrs(args, kwargs, result):
    # weight gradients and input gradients: two matmuls per dense layer
    rows = int(result.wrt_input.shape[0])
    return {"rows": rows, "flops": 2 * _dense_flops(args[0].config.layer_dims, rows)}


def _hinge_attrs(args, kwargs, result):
    losses = result[1]
    return {"bags": len(losses), "active": sum(1 for l in losses if l.hinge > 0.0)}


def _optimizer_bytes(args, kwargs, result):
    optimizer, params, grads = args[0], args[1], args[2]
    slots = [a for arrs in optimizer.slots.values() for a in arrs]
    return {"bytes": sum(a.nbytes for a in (*params, *grads, *slots))}


def _bag_count(args, kwargs, result):
    return {"bags": len(args[1])}


TARGETS = [
    Target("feature_store.read_features", "milvid.feature_store", "read_features", _path_bytes),
    Target("feature_store.read_manifest", "milvid.feature_store", "read_manifest"),
    Target("feature_store.write_features", "milvid.feature_store", "write_features"),
    Target("feature_store.synthesize_dataset", "milvid.feature_store", "synthesize_dataset"),
    Target("bag_model.assemble_bag", "milvid.bag_model", "assemble_bag"),
    Target("bag_model.Bag.feature_matrix", "milvid.bag_model", "Bag.feature_matrix"),
    Target("bag_model.pool_segments", "milvid.bag_model", "pool_segments"),
    Target("scorer.forward_batch", "milvid.scorer", "forward_batch", _forward_attrs),
    Target("scorer.backward", "milvid.scorer", "backward", _backward_attrs),
    Target("scorer.Gradients.zeros_like", "milvid.scorer", "Gradients.zeros_like"),
    Target("scorer.Gradients.add", "milvid.scorer", "Gradients.add"),
    Target("objective.objective_gradient", "milvid.objective", "objective_gradient",
           _hinge_attrs, opens_step=True),
    Target("objective.bag_score", "milvid.objective", "bag_score"),
    Target("optimizers.step", "milvid.optimizers", "Optimizer.step", _optimizer_bytes,
           closes_step=True),
    Target("trainer.train", "milvid.trainer", "train"),
    Target("trainer.plan_batches", "milvid.trainer", "plan_batches"),
    Target("evaluation.score_bags", "milvid.evaluation", "score_bags", _bag_count),
    Target("evaluation.roc_auc", "milvid.evaluation", "roc_auc"),
    Target("evaluation.evaluate_bags", "milvid.evaluation", "evaluate_bags"),
    Target("checkpoint.save_train_checkpoint", "milvid.checkpoint", "save_train_checkpoint",
           _path_bytes),
    Target("checkpoint.save_model", "milvid.checkpoint", "save_model"),
    Target("checkpoint.pack_container", "milvid.checkpoint", "pack_container"),
    Target("checkpoint.load_model", "milvid.checkpoint", "load_model"),
    Target("checkpoint.unpack_container", "milvid.checkpoint", "unpack_container"),
]


_STEP = ("objective.objective_gradient", "optimizers.step")
# metrics derived from more than the one target their name starts with
DEPENDS = {
    "scorer.forward_batch.calls_per_step": ("scorer.forward_batch", *_STEP),
    "scorer.backward.calls_per_step": ("scorer.backward", *_STEP),
    "objective.active_hinge_ratio": ("objective.objective_gradient",),
    "objective.backprop_row_ratio": (
        "objective.objective_gradient", "scorer.forward_batch", "scorer.backward"),
    "trainer.steps": _STEP,
    "trainer.step_ms_p50": _STEP,
    "trainer.step_ms_p99": _STEP,
    "trace.overhead_ratio": (),
}


class _Agg:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.sums: dict[str, int] = defaultdict(int)
        self.counted = True  # False once any call's counts were unavailable


def aggregate(spans) -> dict[str, _Agg]:
    selfs = self_times(spans)
    out: dict[str, _Agg] = defaultdict(_Agg)
    for span, own in zip(spans, selfs):
        a = out[span.name]
        a.calls += 1
        a.s += span.seconds
        a.self_s += own
        if span.attrs is None:
            a.counted = False
        else:
            for k, v in span.attrs.items():
                a.sums[k] += v
    return out


def layer_metrics(spans, absent: set[str], overhead_ratio: float,
                  names) -> dict[str, float | None]:
    """Each metric in ``names`` from one traced pass; ``None`` when absent."""
    agg = aggregate(spans)
    steps = agg["objective.objective_gradient"].calls

    # forward/backward work done inside objective_gradient (the training step)
    in_step = defaultdict(int)
    for i, span in enumerate(spans):
        if span.name in ("scorer.forward_batch", "scorer.backward") and any(
            a.name == "objective.objective_gradient" for a in ancestors(spans, i)
        ):
            in_step[span.name + ".calls"] += 1
            in_step[span.name + ".rows"] += (span.attrs or {}).get("rows", 0)

    step_ms = [1000.0 * s for s in step_seconds(spans)]
    values: dict[str, float | None] = {}
    for metric in names:
        target, _, field = metric.rpartition(".")
        a = agg[target]
        if metric in _SPECIAL:
            v = _SPECIAL[metric](agg, in_step, step_ms, overhead_ratio)
        elif field == "calls":
            v = a.calls
        elif field == "s":
            v = a.s
        elif field == "self_s":
            v = a.self_s
        elif field in ("rows", "bags", "bytes"):
            v = a.sums[field] if a.counted else None
        elif field == "mb_per_s":
            v = ratio(a.sums["bytes"] / 1e6, a.s) if a.counted else None
        elif field == "gflop_per_s":
            v = ratio(a.sums["flops"] / 1e9, a.self_s) if a.counted else None
        elif field == "calls_per_step":
            v = ratio(in_step[target + ".calls"], steps)
        else:
            raise KeyError(metric)
        deps = DEPENDS.get(metric, (target,))
        values[metric] = None if absent.intersection(deps) else v
    return values


def _counted_ratio(agg, target, num, den):
    a = agg[target]
    return ratio(a.sums[num], a.calls if den == "calls" else a.sums[den]) if a.counted else None


_SPECIAL = {
    "optimizers.step.bytes": lambda agg, st, ms, oh: _counted_ratio(
        agg, "optimizers.step", "bytes", "calls"),
    "objective.active_hinge_ratio": lambda agg, st, ms, oh: _counted_ratio(
        agg, "objective.objective_gradient", "active", "bags"),
    "objective.backprop_row_ratio": lambda agg, st, ms, oh: ratio(
        st["scorer.backward.rows"], st["scorer.forward_batch.rows"]),
    "trainer.steps": lambda agg, st, ms, oh: len(ms),
    "trainer.step_ms_p50": lambda agg, st, ms, oh: percentile(ms, 50) if ms else 0.0,
    "trainer.step_ms_p99": lambda agg, st, ms, oh: percentile(ms, 99) if ms else 0.0,
    "trace.overhead_ratio": lambda agg, st, ms, oh: oh,
}
