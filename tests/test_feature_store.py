import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.errors import ConfigError, CorruptionError, FormatError, MilvidError, ValidationError
from milvid.feature_store import (
    FeatureMatrix,
    ManifestEntry,
    SynthConfig,
    read_features,
    read_manifest,
    synthesize_dataset,
    write_features,
    write_manifest,
)

from conftest import json_values


def _random_matrix(rng, count, dim):
    return FeatureMatrix(rng.normal(size=(count, dim)).astype(np.float32))


def test_file_size_matches_header_arithmetic(tmp_path, rng):
    m = _random_matrix(rng, 30, 4096)
    path = tmp_path / "f.mil1"
    write_features(m, path)
    # independent size computation: magic + two uint32 + count*dim float32
    expected = len(b"MIL1") + 2 * struct.calcsize("<I") + 30 * 4096 * struct.calcsize("<f")
    assert expected == 491_532
    assert path.stat().st_size == expected


def test_empty_matrix_writes_header_only(tmp_path):
    m = FeatureMatrix(np.empty((0, 2), dtype=np.float32))
    path = tmp_path / "empty.mil1"
    write_features(m, path)
    assert path.stat().st_size == 12


def test_round_trip_is_bitwise_identity(tmp_path, rng):
    m = _random_matrix(rng, 7, 5)
    path = tmp_path / "f.mil1"
    write_features(m, path)
    back = read_features(path)
    assert back.values.dtype == np.float32
    assert np.array_equal(back.values, m.values)


@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(0, 8),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property(tmp_path_factory, count, dim, seed):
    rng = np.random.default_rng(seed)
    m = FeatureMatrix(rng.normal(size=(count, dim)).astype(np.float32))
    path = tmp_path_factory.mktemp("rt") / "f.mil1"
    write_features(m, path)
    assert np.array_equal(read_features(path).values, m.values)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_features(path)


def test_truncated_payload_reports_byte_counts(tmp_path, rng):
    path = tmp_path / "f.mil1"
    write_features(_random_matrix(rng, 4, 3), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(CorruptionError, match="expected 48 bytes .* got 43"):
        read_features(path)


def test_nonfinite_payload_rejected_on_read(tmp_path):
    path = tmp_path / "f.mil1"
    payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
    path.write_bytes(struct.pack("<4sII", b"MIL1", 2, 1) + payload)
    with pytest.raises(ValidationError):
        read_features(path)


def test_nonfinite_matrix_rejected_on_construction():
    with pytest.raises(ValidationError):
        FeatureMatrix(np.array([[1.0, np.inf]], dtype=np.float32))


def test_csv_fallback(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    m = read_features(path)
    assert (m.count, m.dim) == (2, 2)
    assert np.array_equal(m.values, np.array([[1, 2], [3, 4]], dtype=np.float32))


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        read_features(path)


def test_csv_garbage_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("not,numbers,at all\n")
    with pytest.raises(FormatError):
        read_features(path)


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a", 1, "a.mil1", "train"),
        ManifestEntry("b", -1, "b.mil1", "test"),
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(entries, path)
    assert read_manifest(path) == entries


def test_manifest_duplicate_bag_id_rejected(tmp_path):
    entries = [ManifestEntry("a", 1, "a.mil1", "train")] * 2
    with pytest.raises(ValidationError):
        write_manifest(entries, tmp_path / "m.jsonl")


def test_manifest_label_domain():
    with pytest.raises(ValidationError):
        ManifestEntry("a", 0, "a.mil1", "train")
    with pytest.raises(ValidationError):
        ManifestEntry("a", 1, "a.mil1", "validation")


def test_witness_count_is_ceiling():
    cfg = SynthConfig(dim=4, n_pos_bags=1, n_neg_bags=1, instances_per_bag=8, witness_rate=1.0)
    assert cfg.witnesses_per_bag == 8
    cfg = SynthConfig(dim=4, n_pos_bags=1, n_neg_bags=1, instances_per_bag=32, witness_rate=0.3)
    assert cfg.witnesses_per_bag == math.ceil(0.3 * 32) == 10


def test_full_witness_rate_shifts_every_instance(tmp_path):
    cfg = SynthConfig(
        dim=16,
        n_pos_bags=3,
        n_neg_bags=1,
        instances_per_bag=8,
        witness_rate=1.0,
        shift_magnitude=5.0,
        noise_std=1e-3,
        seed=0,
    )
    manifest = synthesize_dataset(cfg, tmp_path)
    for e in read_manifest(manifest):
        m = read_features(tmp_path / e.path)
        norms = np.linalg.norm(m.values, axis=1)
        if e.label == 1:
            assert np.all(norms > 2.5)  # every row carries the planted shift
        else:
            assert np.all(norms < 2.5)


def test_synthesis_is_bitwise_reproducible(tmp_path):
    cfg = SynthConfig(dim=6, n_pos_bags=3, n_neg_bags=2, instances_per_bag=4, seed=9,
                      n_pos_test=1, n_neg_test=1)
    a = tmp_path / "a"
    b = tmp_path / "b"
    synthesize_dataset(cfg, a)
    synthesize_dataset(cfg, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_split_counts_match_config(tmp_path):
    cfg = SynthConfig(dim=4, n_pos_bags=5, n_neg_bags=3, instances_per_bag=2, seed=1,
                      n_pos_test=2, n_neg_test=4)
    entries = read_manifest(synthesize_dataset(cfg, tmp_path))
    tally = {}
    for e in entries:
        tally[(e.split, e.label)] = tally.get((e.split, e.label), 0) + 1
    assert tally == {("train", 1): 5, ("train", -1): 3, ("test", 1): 2, ("test", -1): 4}


@pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
def test_bad_witness_rate_rejected(rate):
    with pytest.raises(ConfigError):
        SynthConfig(dim=4, n_pos_bags=1, n_neg_bags=1, instances_per_bag=4, witness_rate=rate)


def test_manifest_non_integer_label_is_format_error(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"bag_id": "a", "label": "x", "path": "a.mil1", "split": "train"}\n')
    with pytest.raises(FormatError, match="line 1"):
        read_manifest(path)


def test_manifest_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b'{"bag_id": "\xff", "label": 1, "path": "a.mil1", "split": "train"}\n')
    with pytest.raises(FormatError, match="UTF-8"):
        read_manifest(path)


def test_manifest_non_string_bag_id_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"bag_id": ["a"], "label": 1, "path": "a.mil1", "split": "train"}\n')
    with pytest.raises(ValidationError, match="bag_id"):
        read_manifest(path)


_manifest_records = st.dictionaries(
    st.sampled_from(["bag_id", "label", "path", "split"]), json_values
) | st.fixed_dictionaries(
    {"bag_id": json_values, "label": json_values, "path": json_values, "split": json_values}
)


# CSV values beyond the float32 range overflow to inf (with numpy's warning) and are rejected
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"MIL1" + b),
        st.text(alphabet="0123456789.,-+eE \n\tinfa", max_size=80).map(str.encode),
    )
)
def test_read_features_arbitrary_bytes_returns_matrix_or_milvid_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    path.write_bytes(data)
    try:
        m = read_features(path)
    except MilvidError:
        return
    assert isinstance(m, FeatureMatrix) and m.values.dtype == np.float32
    assert np.all(np.isfinite(m.values))


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.lists(_manifest_records, max_size=3).map(
            lambda recs: "".join(json.dumps(r) + "\n" for r in recs).encode()
        ),
    )
)
def test_read_manifest_arbitrary_bytes_returns_entries_or_milvid_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "m.jsonl"
    path.write_bytes(data)
    try:
        entries = read_manifest(path)
    except MilvidError:
        return
    assert all(isinstance(e, ManifestEntry) for e in entries)
    assert len({e.bag_id for e in entries}) == len(entries)
