import gc
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid import cli
from milvid.bag_model import (
    Bag,
    assemble_bag,
    infer_bag_label,
    load_dataset,
    pool_bags,
    pool_segments,
)
from milvid.checkpoint import save_model
from milvid.errors import ValidationError
from milvid.evaluation import evaluate_bags, score_bags
from milvid.feature_store import (
    FeatureMatrix,
    ManifestEntry,
    SynthConfig,
    read_features,
    synthesize_dataset,
    write_features,
    write_manifest,
)
from milvid.objective import bag_maxima
from milvid.scorer import init_glorot_normal

from conftest import make_bag, same_bits


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
    # at D = 1 numpy's .mean sums a segment of 8 or more rows pairwise, and so
    # does pool_segments' per-segment np.add.reduce: no rounding differs
    rows = scaled_rows(n, 1, seed)
    pooled = pool_segments(make_bag(rows, 1), s).feature_matrix()
    assert pooled.tobytes() == loop_pool(rows, s).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 130), s=st.integers(1, 70), d=st.sampled_from([1, 2, 3, 64]),
       seed=st.integers(0, 2**31))
def test_pool_of_float32_rows_equals_the_reference_on_their_float64_cast(n, s, d, seed):
    rows = scaled_rows(n, d, seed).astype(np.float32)
    bag = Bag("bag", 1, rows)
    pooled = pool_segments(bag, s)
    # repeats keep the stored float32 rows; only a mean needs float64
    assert pooled.matrix.dtype == (np.float64 if n > s else np.float32)
    assert (pooled is bag) == (n == s)
    assert not pooled.matrix.flags.writeable
    assert pooled.feature_matrix().tobytes() == loop_pool(rows.astype(np.float64), s).tobytes()


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


def test_repeated_segments_hold_no_float64_copy(tmp_path, rng):
    manifest, _ = write_split(tmp_path, rng, [3], dim=64)
    pooled = pool_segments(load_dataset(manifest).bags[0], 32)
    assert pooled.matrix.dtype == np.float32 and pooled.matrix.nbytes == 32 * 64 * 4
    bags = [Bag(f"b{i}", 1, rng.normal(size=(8, 64)).astype(np.float32)) for i in range(100)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pooled = pool_bags(bags, 32)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(pooled) == 100
    assert held < 100 * 32 * 64 * 8  # the float64 copies alone would take this


def reference_pool_bags(bags, segments):
    """``pool_bags`` through the float64 ``loop_pool`` reference."""
    return [make_bag(loop_pool(b.feature_matrix(), segments), b.label, b.bag_id) for b in bags]


def test_scores_do_not_depend_on_the_pooled_storage(tmp_path, rng, capsys, monkeypatch):
    # clip counts below, at and above S = 5: repeats, the bag itself, means
    manifest, _ = write_split(tmp_path, rng, [2, 5, 9, 3, 5, 13, 1, 7], dim=6)
    bags = load_dataset(manifest).bags
    model = init_glorot_normal((6, 4, 1), seed=2)
    assert (evaluate_bags(model, pool_bags(bags, 5)).to_json_dict()
            == evaluate_bags(model, reference_pool_bags(bags, 5)).to_json_dict())
    save_model(model, tmp_path / "model.mvck")
    outputs = []
    for pool in (pool_bags, reference_pool_bags):
        monkeypatch.setattr(cli, "pool_bags", pool)
        for command in ("eval", "roc"):
            code = cli.main([command, "--model", str(tmp_path / "model.mvck"),
                             "--manifest", str(manifest), "--split", "train", "--segments", "5"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


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


@pytest.mark.parametrize("manifest", ["absolute", "m.jsonl", "./m.jsonl", "nested/../m.jsonl"])
def test_a_bad_file_is_named_as_the_manifest_directory_joined_with_its_path(
    tmp_path, monkeypatch, manifest
):
    (tmp_path / "nested" / "dir").mkdir(parents=True)
    (tmp_path / "nested" / "dir" / "f.mil1").write_bytes(
        struct.pack("<4sII", b"MIL1", 2, 1) + np.array([1, np.nan], "<f4").tobytes())
    write_manifest([ManifestEntry("f", 1, "nested/dir/f.mil1", "train")], tmp_path / "m.jsonl")
    monkeypatch.chdir(tmp_path)
    manifest = str(tmp_path / "m.jsonl") if manifest == "absolute" else manifest
    named = Path(manifest).parent / "nested/dir/f.mil1"
    with pytest.raises(ValidationError) as failure:
        load_dataset(manifest)
    assert str(failure.value) == f"{named}: feature file contains non-finite values"


def write_split(tmp_path, rng, counts, dim=4, csv=()):
    """One train split of feature files with the given clip counts; the
    files at the indices in ``csv`` are text. Returns the manifest and paths."""
    paths, entries = [], []
    for i, count in enumerate(counts):
        values = rng.normal(size=(count, dim)).astype(np.float32)
        path = tmp_path / (f"v{i}.csv" if i in csv else f"v{i}.mil1")
        if i in csv:
            path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in values))
        else:
            write_features(FeatureMatrix(values), path)
        paths.append(path)
        entries.append(ManifestEntry(f"v{i}", 1 if i % 2 == 0 else -1, path.name, "train"))
    write_manifest(entries, tmp_path / "m.jsonl")
    return tmp_path / "m.jsonl", paths


def test_a_loaded_split_is_one_read_only_float32_buffer(tmp_path, rng):
    manifest, paths = write_split(tmp_path, rng, [3, 5, 2])
    bags = load_dataset(manifest).bags
    buffer = bags[0].matrix.base
    assert buffer.shape == (10, 4) and buffer.dtype == np.float32
    assert not buffer.flags.writeable
    start = 0
    for bag, path in zip(bags, paths, strict=True):
        assert bag.matrix.base is buffer and bag.matrix.dtype == np.float32
        assert bag.matrix.ctypes.data == buffer[start].ctypes.data  # rows back to back
        assert len(bag.instances) == len(bag) and all(
            row.base is buffer and same_bits(row, bag.matrix[i]) for i, row in enumerate(bag.instances))
        start += len(bag)
        matrix = bag.feature_matrix()
        assert matrix.dtype == np.float64 and matrix.flags.writeable
        assert same_bits(matrix, read_features(path).values.astype(np.float64))
        assert bag.feature_matrix() is not matrix  # a fresh cast, never cached
    with pytest.raises(ValueError, match="read-only"):
        bags[1].instances[0][0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        bags[1].matrix[0, 0] = 1.0


def test_a_bag_of_a_caller_array_is_a_read_only_view_of_it():
    values = np.ones((2, 3), dtype=np.float32)
    bag = assemble_bag(FeatureMatrix(values), 1, "b")
    assert bag.matrix.base is values and values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bag.instances[0][0] = 2.0


def test_float32_bags_score_as_their_float64_cast(tmp_path, rng):
    manifest, _ = write_split(tmp_path, rng, [3, 5, 2, 4], dim=6)
    bags = list(load_dataset(manifest).bags)
    cast = [make_bag(b.feature_matrix(), b.label, b.bag_id) for b in bags]
    model = init_glorot_normal((6, 5, 1), seed=1)
    for got, want in zip(bag_maxima(model, bags)[:2], bag_maxima(model, cast)[:2]):
        assert same_bits(got, want)
    assert same_bits(bag_maxima(model, bags[1:2])[0], bag_maxima(model, cast[1:2])[0])


def test_a_csv_file_among_mil1_files_loads_its_values(tmp_path, rng):
    manifest, paths = write_split(tmp_path, rng, [3, 4, 2], csv=(1,))
    bags = load_dataset(manifest).bags
    assert bags[1].matrix.base is bags[0].matrix.base
    for bag, path in zip(bags, paths, strict=True):
        assert same_bits(bag.feature_matrix(), read_features(path).values.astype(np.float64))


def test_a_loaded_and_scored_split_holds_about_its_float32_payload(tmp_path):
    manifest = synthesize_dataset(
        SynthConfig(dim=1024, n_pos_bags=8, n_neg_bags=8, instances_per_bag=16, seed=0), tmp_path)
    payload = 16 * 16 * 1024 * 4
    model = init_glorot_normal((1024, 8, 1), seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dataset = load_dataset(manifest, "train")
        load_peak = tracemalloc.get_traced_memory()[1] - base
        score_bags(model, list(dataset.bags))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * payload  # two float64 copies held 4.04x
    assert load_peak <= 1.3 * payload  # one buffer, sized before any payload is read
