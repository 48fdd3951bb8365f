import io
import json
import math
import os
import re
import struct
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid import feature_store
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

from conftest import json_values, open_in_pieces


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


def test_read_split_puts_the_files_back_to_back_in_one_read_only_array(tmp_path, rng):
    matrices = [_random_matrix(rng, count, 3) for count in (2, 0, 4)]
    paths = [tmp_path / f"{i}.mil1" for i in range(3)]
    for m, path in zip(matrices, paths):
        write_features(m, path)
    values, spans = feature_store.read_split(paths)
    assert spans == [(0, 2), (2, 2), (2, 6)]
    assert values.dtype == np.float32 and not values.flags.writeable
    assert np.array_equal(values, np.concatenate([m.values for m in matrices]))
    with pytest.raises(ValidationError, match="at least one feature file"):
        feature_store.read_split([])


def test_read_split_checks_every_header_before_reading_a_payload(tmp_path, rng):
    nan, short = tmp_path / "nan.mil1", tmp_path / "short.mil1"
    nan.write_bytes(struct.pack("<4sII", b"MIL1", 3, 1) + np.full(3, np.nan, dtype="<f4").tobytes())
    write_features(_random_matrix(rng, 2, 3), short)
    short.write_bytes(short.read_bytes()[:-1])
    with pytest.raises(CorruptionError, match="short.mil1: payload size mismatch"):
        feature_store.read_split([nan, short])
    with pytest.raises(ValidationError, match="nan.mil1: feature file contains non-finite"):
        feature_store.read_split([nan])


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


def test_nonfinite_read_names_the_file(tmp_path):
    binary, text = tmp_path / "f.mil1", tmp_path / "f.csv"
    payload = np.array([[1.0, np.inf]], dtype="<f4").tobytes()
    binary.write_bytes(struct.pack("<4sII", b"MIL1", 2, 1) + payload)
    text.write_text("1.0,2.0\n3.0,nan\n")
    with pytest.raises(ValidationError, match="f.mil1: feature file contains non-finite values"):
        read_features(binary)
    with pytest.raises(ValidationError, match="f.csv: CSV feature file contains non-finite values"):
        read_features(text)


def test_values_beyond_float32_are_rejected_without_a_numpy_warning(tmp_path):
    text = tmp_path / "f.csv"
    text.write_text("1.0,2.0\n3.0,-1e39\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^feature matrix values exceed the float32"):
            FeatureMatrix(np.array([[1e39]]))
        with pytest.raises(ValidationError, match="f.csv: CSV feature file values exceed"):
            read_features(text)


def test_huge_header_is_corruption(tmp_path):
    path = tmp_path / "f.mil1"
    path.write_bytes(struct.pack("<4sII", b"MIL1", 2**32 - 1, 2**32 - 1) + b"\0" * 8)
    with pytest.raises(CorruptionError, match=f"expected {(2**32 - 1) ** 2 * 4} bytes .* got 8"):
        read_features(path)


def test_short_read_is_corruption(tmp_path, rng, monkeypatch):
    # the file shrinks between the size check and the read
    path = tmp_path / "f.mil1"
    write_features(_random_matrix(rng, 4, 3), path)
    path.write_bytes(path.read_bytes()[:-5])
    full_size = SimpleNamespace(st_size=12 + 48)
    monkeypatch.setattr(feature_store, "os", SimpleNamespace(fstat=lambda fd: full_size))
    with pytest.raises(CorruptionError, match="expected 48 bytes .* got 43"):
        read_features(path)


def test_a_payload_handed_out_in_pieces_is_read_whole(tmp_path, rng, monkeypatch):
    matrices = [_random_matrix(rng, count, 64) for count in (40, 1, 17)]  # 10240, 256, 4352 B
    paths = [tmp_path / f"{i}.mil1" for i in range(3)]
    for m, path in zip(matrices, paths):
        write_features(m, path)
    reads = open_in_pieces(monkeypatch, feature_store)
    values, _ = feature_store.read_split(paths)
    assert np.array_equal(values, np.concatenate([m.values for m in matrices]))
    assert reads == [4096, 4096, 2048, 256, 4096, 256]
    assert np.array_equal(read_features(paths[0]).values, matrices[0].values)


def test_a_payload_handed_out_in_pieces_is_read_whole_on_threads(tmp_path, rng, monkeypatch):
    matrices = [_random_matrix(rng, count, 64) for count in (40, 1, 17, 9, 30)]
    paths = [tmp_path / f"{i}.mil1" for i in range(len(matrices))]
    for m, path in zip(matrices, paths):
        write_features(m, path)
    readers = _read_on_threads(monkeypatch)
    reads = open_in_pieces(monkeypatch, feature_store)
    values, _ = feature_store.read_split(paths)
    assert np.array_equal(values, np.concatenate([m.values for m in matrices]))
    assert len(readers) > 1
    # each payload in 4096-byte pieces and its last piece, in whatever order the threads ran
    pieces = [[4096] * (m.values.nbytes // 4096) + [m.values.nbytes % 4096] for m in matrices]
    assert sorted(reads) == sorted(n for p in pieces for n in p if n)


def test_a_file_that_shrinks_between_the_passes_is_corruption(tmp_path, rng, monkeypatch):
    good, shrinking = tmp_path / "good.mil1", tmp_path / "shrinking.mil1"
    for path in (good, shrinking):
        write_features(_random_matrix(rng, 4, 3), path)
    opened = []

    def open_then_shrink(src, *args, **kwargs):
        opened.append(src)
        if opened.count(shrinking) == 2:  # the payload pass, after every header was checked
            shrinking.write_bytes(shrinking.read_bytes()[:-5])
        return io.open(src, *args, **kwargs)

    monkeypatch.setattr(feature_store, "open", open_then_shrink, raising=False)
    message = (f"{shrinking}: payload size mismatch, expected 48 bytes for 4x3 float32 "
               "values, got 43")
    with pytest.raises(CorruptionError, match=f"^{re.escape(message)}$"):
        feature_store.read_split([good, shrinking])
    assert opened == [good, shrinking, good, shrinking]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
@pytest.mark.parametrize(
    "name, features_error, split_error",  # read_split reads good.mil1, then the named file
    [
        ("good.mil1", None, None),
        ("good.csv", None, None),
        ("missing.mil1", FileNotFoundError, FileNotFoundError),
        ("truncated.mil1", CorruptionError, CorruptionError),
        ("short.mil1", CorruptionError, CorruptionError),
        ("wide.mil1", None, ValidationError),  # dim 4 after dim 3
        ("nan.mil1", ValidationError, ValidationError),
        ("bad.csv", FormatError, FormatError),
    ],
)
def test_no_file_descriptor_is_left_open(tmp_path, rng, name, features_error, split_error):
    good = tmp_path / "good.mil1"
    write_features(_random_matrix(rng, 2, 3), good)
    (tmp_path / "good.csv").write_text("1.0,2.0,3.0\n")
    (tmp_path / "truncated.mil1").write_bytes(b"MIL1\x03\x00")
    (tmp_path / "short.mil1").write_bytes(good.read_bytes()[:-1])
    write_features(_random_matrix(rng, 2, 4), tmp_path / "wide.mil1")
    (tmp_path / "nan.mil1").write_bytes(
        struct.pack("<4sII", b"MIL1", 3, 1) + np.array([1, np.nan, 2], "<f4").tobytes())
    (tmp_path / "bad.csv").write_text("not,numbers\n")
    path = tmp_path / name
    for read, error in ((lambda: read_features(path), features_error),
                        (lambda: feature_store.read_split([good, path]), split_error)):
        before = _open_fds()
        if error is None:
            read()
        else:
            with pytest.raises(error) as failure:  # holds the traceback, and so its frames
                read()
        assert _open_fds() == before
    with pytest.MonkeyPatch.context() as patch:  # each file in a run of its own, the bad one in either
        _read_on_threads(patch)
        for order in ([good, path], [path, good]):
            before, threads = _open_fds(), threading.active_count()
            if split_error is None:
                feature_store.read_split(order)
            else:
                with pytest.raises(split_error) as failure:
                    feature_store.read_split(order)
            assert (_open_fds(), threading.active_count()) == (before, threads)


def _read_on_threads(monkeypatch, runs: int = 3) -> list[tuple[int, list[int]]]:
    """Make ``read_split`` read any split in up to ``runs`` runs, one thread
    each, whatever its size and the CPU count; returns a list of (thread
    ident, file indices) for each run read."""
    monkeypatch.setattr(feature_store, "_THREAD_BYTES", 1)  # the floor divides: 0 would raise
    monkeypatch.setattr(feature_store, "_usable_cpus", lambda: runs)
    read_files, readers = feature_store._read_files, []

    def recording(paths, spans, texts, values, run):
        readers.append((threading.get_ident(), list(run)))
        read_files(paths, spans, texts, values, run)

    monkeypatch.setattr(feature_store, "_read_files", recording)
    return readers


def _open_recording(monkeypatch, shrink=()) -> list:
    """Record each path ``feature_store`` opens; a path in ``shrink`` loses
    its last 5 bytes on its second open, the payload pass's."""
    opened = []

    def open_then_shrink(src, *args, **kwargs):
        opened.append(src)
        if src in shrink and opened.count(src) == 2:
            src.write_bytes(src.read_bytes()[:-5])
        return io.open(src, *args, **kwargs)

    monkeypatch.setattr(feature_store, "open", open_then_shrink, raising=False)
    return opened


def test_runs_split_the_payload_bytes_not_the_file_count():
    spans = [(0, 64), *((64 + i, 65 + i) for i in range(64))]  # one 64-row file, 64 of 1 row
    assert feature_store._runs(spans, 2) == [range(0, 1), range(1, 65)]
    assert feature_store._runs(spans, 1) == [range(0, 65)]
    assert feature_store._runs([(0, 0), (0, 0)], 2) == [range(0, 2)]  # nothing to share


def test_a_split_read_on_several_threads_gives_the_one_thread_bits(tmp_path, rng, monkeypatch):
    paths = [tmp_path / f"{i}.mil1" for i in range(7)]
    for count, path in zip((40, 1, 0, 17, 5, 33, 2), paths):
        write_features(_random_matrix(rng, count, 8), path)
    paths.insert(3, tmp_path / "t.csv")
    paths[3].write_text("\n".join(",".join(map(str, row)) for row in rng.normal(size=(3, 8))))
    want, want_spans = feature_store.read_split(paths)
    readers = _read_on_threads(monkeypatch)
    threads = threading.active_count()
    got, spans = feature_store.read_split(paths)
    assert threading.active_count() == threads
    assert spans == want_spans and got.tobytes() == want.tobytes() and not got.flags.writeable
    assert sorted(i for _, run in readers for i in run) == list(range(len(paths)))
    assert len(readers) == 3  # the calling thread reads the first run, a new thread each other
    assert [ident == threading.get_ident() for ident, run in readers] == [0 in run for _, run in readers]


def _spoil(path, fault: str) -> None:
    """Make a 4x3 MIL1 file bad: ``short`` truncates it now, ``nan`` writes a
    NaN into its payload, and ``shrunk`` is left to ``_open_recording``."""
    if fault == "short":
        path.write_bytes(path.read_bytes()[:-5])
    elif fault == "nan":
        payload = np.ones((4, 3), dtype="<f4")
        payload[2, 1] = np.nan
        path.write_bytes(struct.pack("<4sII", b"MIL1", 3, 4) + payload.tobytes())


@pytest.mark.parametrize("fault", ["short", "nan", "shrunk"])
@pytest.mark.parametrize("bad", [[3], [1, 2], [3, 4]],  # three runs of two files: 0-1, 2-3, 4-5
                         ids=["in-run-1", "in-runs-0-and-1", "in-runs-1-and-2"])
def test_a_threaded_read_names_the_first_bad_file_as_one_thread_does(
    tmp_path, rng, monkeypatch, fault, bad
):
    paths = [tmp_path / f"{i}.mil1" for i in range(6)]
    for path in paths:
        write_features(_random_matrix(rng, 4, 3), path)
    for i in bad:
        _spoil(paths[i], fault)
    first = paths[bad[0]]
    message = (f"{first}: feature file contains non-finite values" if fault == "nan" else
               f"{first}: payload size mismatch, expected 48 bytes for 4x3 float32 values, got 43")
    readers = _read_on_threads(monkeypatch)
    opened = _open_recording(monkeypatch, shrink=[paths[i] for i in bad] if fault == "shrunk" else [])
    fds, threads = _open_fds(), threading.active_count()
    with pytest.raises(ValidationError if fault == "nan" else CorruptionError,
                       match=f"^{re.escape(message)}$") as failure:
        feature_store.read_split(paths)
    assert (_open_fds(), threading.active_count()) == (fds, threads)
    if fault != "short":  # a payload fault: every run has run, up to its first bad file
        assert sorted(run for _, run in readers) == [[0, 1], [2, 3], [4, 5]]
        read = {i for i, path in enumerate(paths) if opened.count(path) == 2}
        assert read == {i for i in range(6) if not any(j // 2 == i // 2 and j < i for j in bad)}


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


def test_failed_synthesis_removes_what_it_wrote_and_keeps_the_rest(tmp_path, monkeypatch):
    # the manifest write fails after every feature file is on disk
    def no_space(entries, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(feature_store, "write_manifest", no_space)
    cfg = SynthConfig(dim=4, n_pos_bags=2, n_neg_bags=2, instances_per_bag=3)
    (tmp_path / "notes.txt").write_text("kept")
    with pytest.raises(OSError, match="No space"):
        synthesize_dataset(cfg, tmp_path)
    with pytest.raises(OSError, match="No space"):
        synthesize_dataset(cfg, tmp_path / "new" / "data")
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


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


@pytest.mark.parametrize(
    "field, value",
    [("seed", -1), ("shift_magnitude", math.nan), ("shift_magnitude", math.inf),
     ("shift_magnitude", -math.inf), ("noise_std", math.nan), ("noise_std", math.inf),
     ("noise_std", -1.0)],
)
def test_bad_synth_setting_is_rejected_by_name(field, value):
    with pytest.raises(ConfigError, match=field):
        SynthConfig(dim=4, n_pos_bags=1, n_neg_bags=1, instances_per_bag=4, **{field: value})


# a label that is not a JSON integer is refused, not truncated or parsed to ±1
@pytest.mark.parametrize(
    "label", ['"x"', "1.9", "-1.5", "1.0", "true", '"1"'],
    ids=["string", "fraction", "negative-fraction", "float-one", "bool", "string-one"],
)
def test_manifest_non_integer_label_is_format_error(tmp_path, label):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"bag_id": "a", "label": 1, "path": "a.mil1", "split": "train"}\n'
        f'{{"bag_id": "b", "label": {label}, "path": "b.mil1", "split": "train"}}\n'
    )
    with pytest.raises(FormatError, match="line 2"):
        read_manifest(path)


def test_manifest_integer_label_other_than_one_is_validation_error(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"bag_id": "a", "label": 2, "path": "a.mil1", "split": "train"}\n')
    with pytest.raises(ValidationError, match="label"):
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


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_read_split_with_bytes_after_one_valid_file_reads_it_or_names_it(
    tmp_path_factory, counts, dim, seed, data
):
    rng = np.random.default_rng(seed)
    folder = tmp_path_factory.mktemp("split")
    paths = [folder / f"{i}.mil1" for i in range(len(counts))]
    for count, path in zip(counts, paths):
        write_features(_random_matrix(rng, count, dim), path)
    bad = paths[data.draw(st.integers(0, len(paths) - 1), label="bad file")]
    bad.write_bytes(bad.read_bytes() + data.draw(st.binary(max_size=64), label="appended"))
    try:
        values, spans = feature_store.read_split(paths)
    except MilvidError as exc:
        assert str(bad) in str(exc)
        return
    assert np.array_equal(values, np.concatenate([read_features(p).values for p in paths]))
    assert [b - a for a, b in spans] == [len(read_features(p).values) for p in paths]
