"""Tests for the benchmark's own helpers: spans, percentiles, wrapping, memory."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import Span, Target, Tracer, self_times, step_seconds  # noqa: E402


def _span(name, start, end, parent=None, step=None):
    return Span(name, start, end, parent, step)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 100),
        _span("b", 10, 50, parent=0),
        _span("c", 20, 30, parent=1),
        _span("d", 60, 70, parent=0),
    ]
    assert [round(s * 1e9) for s in self_times(spans)] == [50, 30, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0, 100), _span("b", 10, 40, parent=0), _span("c", 30, 60, parent=0)]
    assert round(self_times(spans)[0] * 1e9) == 50


def test_step_seconds_spans_first_start_to_last_end():
    spans = [_span("og", 0, 40, step=0), _span("opt", 45, 60, step=0),
             _span("val", 70, 90), _span("og", 100, 130, step=1)]
    assert [round(s * 1e9) for s in step_seconds(spans)] == [60, 30]


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    p, value, count = stats.tail_percentile(list(range(n)))
    assert p == expected and count == n
    if expected is not None:
        assert value == pytest.approx(np.percentile(np.arange(n), expected))


def test_held_bytes_counts_what_the_result_keeps():
    held = stats.held_bytes(lambda: np.ones(100_000))
    assert 800_000 <= held < 801_000
    assert stats.held_bytes(lambda: np.ones(100_000).sum()) < 1_000


def test_load_mem_ratio_on_a_tiny_dataset(tmp_path):
    from milvid import SynthConfig, evaluation, init_glorot_normal, load_dataset, synthesize_dataset

    manifest = synthesize_dataset(
        SynthConfig(dim=16, n_pos_bags=2, n_neg_bags=2, instances_per_bag=4, seed=1), tmp_path)
    file_bytes = sum(p.stat().st_size for p in tmp_path.glob("*.mil1"))
    assert file_bytes == 4 * (12 + 4 * 16 * 4)
    model = init_glorot_normal((16, 8, 1), 0)

    def load_and_score():
        ds = load_dataset(manifest, "train")
        evaluation.score_bags(model, list(ds.bags))
        return ds

    ratio = stats.held_bytes(load_and_score) / file_bytes
    # two float64 copies of float32 payload: at least 4x the payload bytes
    payload = 4 * 4 * 16 * 4
    assert ratio >= 4 * payload / file_bytes


def test_wrappers_record_nested_spans_and_restore_originals():
    import importlib

    scorer = importlib.import_module("milvid.scorer")
    obj = importlib.import_module("milvid.objective")
    from milvid.bag_model import assemble_bag
    from milvid.feature_store import FeatureMatrix

    originals = (obj.forward_batch, scorer.forward_batch, scorer.Gradients.__dict__["zeros_like"])
    model = scorer.init_glorot_normal((4, 3, 1), 0)
    bag = assemble_bag(FeatureMatrix(np.ones((2, 4))), 1, "b")
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        obj.objective_gradient(model, [bag], 0.0)
        assert scorer.Gradients.zeros_like(model).weights[0].shape == (3, 4)
    finally:
        tracer.uninstall()
    assert (obj.forward_batch, scorer.forward_batch,
            scorer.Gradients.__dict__["zeros_like"]) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "objective.objective_gradient"
    og = 0
    fwd = names.index("scorer.forward_batch")
    bwd = names.index("scorer.backward")
    assert tracer.spans[fwd].parent == og and tracer.spans[bwd].parent == og
    assert tracer.spans[fwd].attrs["rows"] == 2 and tracer.spans[bwd].attrs["rows"] == 1
    assert {s.step for s in tracer.spans[:-1]} == {0}
    assert tracer.spans[-1].name == "scorer.Gradients.zeros_like" and tracer.spans[-1].parent is None


def test_absent_target_reads_null(monkeypatch):
    import importlib

    scorer = importlib.import_module("milvid.scorer")
    monkeypatch.delattr(scorer.Gradients, "add")
    tracer = Tracer()
    tracer.install([*layers.TARGETS, Target("gone.module", "milvid.no_such_module", "f")])
    tracer.uninstall()
    assert tracer.absent == {"scorer.Gradients.add", "gone.module"}
    names = [m["name"] for m in run.SPEC["per_layer"]]
    values = layers.layer_metrics(tracer.spans, tracer.absent, 1.0, names)
    assert values["scorer.Gradients.add.calls"] is None
    assert values["scorer.Gradients.add.self_s"] is None
    assert values["scorer.backward.calls"] == 0
    assert values["trace.overhead_ratio"] == 1.0
    assert list(values) == names


def test_video_lengths_are_a_fixed_spread():
    import workloads

    lengths = workloads.video_lengths(256)
    assert min(lengths) == 8 and max(lengths) == 64 and len(lengths) == 256
    assert lengths == sorted(lengths)
