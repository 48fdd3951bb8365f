import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.bag_model import (
    assemble_bag,
    infer_bag_label,
    load_dataset,
    pool_bags,
    pool_segments,
)
from milvid.errors import ValidationError
from milvid.feature_store import (
    FeatureMatrix,
    ManifestEntry,
    SynthConfig,
    synthesize_dataset,
    write_features,
    write_manifest,
)

from conftest import make_bag


def test_assemble_thirty_clip_video(rng):
    # a 16-second video at 30 fps is 480 frames = 30 sixteen-frame clips
    m = FeatureMatrix(rng.normal(size=(30, 4)).astype(np.float32))
    bag = assemble_bag(m, 1, "vid")
    assert len(bag) == 30
    assert np.array_equal(bag.feature_matrix(), m.values.astype(np.float64))


def test_assemble_singleton(rng):
    m = FeatureMatrix(rng.normal(size=(1, 4)).astype(np.float32))
    assert len(assemble_bag(m, -1, "one")) == 1


def test_assemble_empty_matrix_rejected():
    m = FeatureMatrix(np.empty((0, 4), dtype=np.float32))
    with pytest.raises(ValidationError):
        assemble_bag(m, 1, "none")


def test_pool_even_split():
    bag = make_bag(np.array([[0.0], [2.0], [4.0], [10.0]]), 1)
    pooled = pool_segments(bag, 2)
    assert pooled.feature_matrix()[:, 0].tolist() == [1.0, 7.0]
    assert pooled.bag_id == bag.bag_id and pooled.label == bag.label


def test_pool_replicates_single_instance():
    bag = make_bag(np.array([[3.0, 4.0]]), -1)
    pooled = pool_segments(bag, 3)
    assert len(pooled) == 3
    assert np.array_equal(pooled.feature_matrix(), np.tile([3.0, 4.0], (3, 1)))


def loop_pool(rows, s):
    """The per-segment loop ``pool_segments`` replaced: one ``.mean`` per segment."""
    n = rows.shape[0]
    pooled = np.empty((s, rows.shape[1]))
    for j in range(s):
        lo = math.floor(j * n / s)
        hi = math.floor((j + 1) * n / s)
        pooled[j] = rows[lo:hi].mean(axis=0) if hi > lo else rows[min(lo, n - 1)]
    return pooled


def scaled_rows(n, d, seed):
    """Normal rows, each scaled by its own factor between 1e-8 and 1e8."""
    r = np.random.default_rng(seed)
    return r.normal(size=(n, d)) * 10.0 ** r.uniform(-8, 8, size=(n, 1))


def test_pool_30_into_32_matches_index_enumeration(rng):
    rows = rng.normal(size=(30, 5))
    pooled = pool_segments(make_bag(rows, 1), 32).feature_matrix()
    assert np.array_equal(pooled, loop_pool(rows, 32))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 130), s=st.integers(1, 70), d=st.sampled_from([2, 3, 17, 64]),
       seed=st.integers(0, 2**31))
def test_pool_equals_the_loop_reference_bitwise(n, s, d, seed):
    rows = scaled_rows(n, d, seed)
    pooled = pool_segments(make_bag(rows, 1), s).feature_matrix()
    assert pooled.tobytes() == loop_pool(rows, s).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 130), s=st.integers(1, 70), seed=st.integers(0, 2**31))
def test_pool_one_dim_equals_the_loop_reference_within_rounding(n, s, seed):
    # at D = 1 numpy's .mean sums a segment of 8 or more rows pairwise, so
    # the row-order sum may round differently
    rows = scaled_rows(n, 1, seed)
    pooled = pool_segments(make_bag(rows, 1), s).feature_matrix()
    assert np.all(np.abs(pooled - loop_pool(rows, s)) <= 1e-12 * np.abs(rows).max())


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), s=st.integers(1, 40), seed=st.integers(0, 2**31))
def test_pool_always_yields_exactly_s_instances(n, s, seed):
    rows = np.random.default_rng(seed).normal(size=(n, 3))
    assert len(pool_segments(make_bag(rows, 1), s)) == s


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**31))
def test_pool_with_s_equal_n_is_identity(n, seed):
    rows = np.random.default_rng(seed).normal(size=(n, 3))
    bag = make_bag(rows, 1)
    pooled = pool_segments(bag, n)
    assert np.array_equal(pooled.feature_matrix(), rows)
    assert pooled is bag  # no copy


def test_pool_preserves_global_mean_when_divisible(rng):
    rows = rng.normal(size=(12, 4))
    pooled = pool_segments(make_bag(rows, 1), 3).feature_matrix()
    assert np.allclose(pooled.mean(axis=0), rows.mean(axis=0), rtol=1e-12)


def test_pool_bags_pools_each_bag_or_none(rng):
    bags = (make_bag(rng.normal(size=(6, 3)), 1, "a"), make_bag(rng.normal(size=(4, 3)), -1, "b"))
    unpooled = pool_bags(bags, None)
    assert isinstance(unpooled, list) and all(u is b for u, b in zip(unpooled, bags, strict=True))
    pooled = pool_bags(iter(bags), 2)
    expected = [pool_segments(b, 2) for b in bags]
    assert [b.bag_id for b in pooled] == ["a", "b"]
    for got, want in zip(pooled, expected):
        assert np.array_equal(got.feature_matrix(), want.feature_matrix())


def test_bag_label_existential_rule():
    assert infer_bag_label([-1, -1, 1]) == 1
    assert infer_bag_label([-1, -1, -1]) == -1
    assert infer_bag_label([1]) == 1


def test_bag_label_rejects_empty_and_bad_values():
    with pytest.raises(ValidationError):
        infer_bag_label([])
    with pytest.raises(ValidationError):
        infer_bag_label([1, 0])


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=30))
def test_bag_label_negative_iff_all_negative(labels):
    assert (infer_bag_label(labels) == -1) == all(y == -1 for y in labels)


def test_load_dataset_filters_split(tmp_path):
    cfg = SynthConfig(dim=4, n_pos_bags=3, n_neg_bags=2, instances_per_bag=2, seed=0,
                      n_pos_test=1, n_neg_test=1)
    manifest = synthesize_dataset(cfg, tmp_path)
    train = load_dataset(manifest, "train")
    test = load_dataset(manifest, "test")
    everything = load_dataset(manifest)
    assert (len(train), len(test), len(everything)) == (5, 2, 7)
    assert len(train.positives()) == 3 and len(train.negatives()) == 2


def test_load_dataset_rejects_mixed_dims(tmp_path, rng):
    write_features(FeatureMatrix(rng.normal(size=(2, 3)).astype(np.float32)), tmp_path / "a.mil1")
    write_features(FeatureMatrix(rng.normal(size=(2, 4)).astype(np.float32)), tmp_path / "b.mil1")
    write_manifest(
        [ManifestEntry("a", 1, "a.mil1", "train"), ManifestEntry("b", -1, "b.mil1", "train")],
        tmp_path / "m.jsonl",
    )
    with pytest.raises(ValidationError, match="dim"):
        load_dataset(tmp_path / "m.jsonl")
