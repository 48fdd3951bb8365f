import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid import checkpoint
from milvid.checkpoint import (
    deserialize_model,
    load_train_checkpoint,
    pack_container,
    save_model,
    save_train_checkpoint,
    serialize_model,
    unpack_container,
)
from milvid.errors import FormatError, MilvidError
from milvid.optimizers import OptimizerConfig, make_optimizer
from milvid.scorer import init_glorot_normal

from conftest import json_values, mvck_frame


def repack(blob: bytes, edit) -> bytes:
    """Unpack a container, let ``edit`` change its header, pack it again."""
    header, arrays = unpack_container(blob)
    edit(header)
    return pack_container(header, list(arrays.items()))


@pytest.mark.parametrize(
    "header",
    [
        b"\xff\xfe{}",  # not UTF-8
        b"{x}",  # not JSON
        b"[]",  # not a JSON object
        b'"arrays"',
        b"{}",  # no array directory
        b'{"arrays": 3}',
        b'{"arrays": [{"shape": [1]}]}',  # entry without a name
        b'{"arrays": [{"name": "w0"}]}',  # entry without a shape
        b'{"arrays": [{"name": [], "shape": []}]}',  # unhashable name
        b'{"arrays": [{"name": "w0", "shape": [-1]}]}',
        b'{"arrays": [{"name": "w0", "shape": [1.5]}]}',
        b'{"arrays": [{"name": "w0", "shape": ["2"]}]}',
        b'{"arrays": [{"name": "w0", "shape": [true]}]}',
        b'{"arrays": [{"name": "w0", "shape": 4}]}',
        b'{"arrays": [{"name": "w0", "shape": [0, 100000000000000000000]}]}',
    ],
)
def test_malformed_header_is_format_error(header):
    with pytest.raises(FormatError):
        unpack_container(mvck_frame(header, b"\x00" * 8))


def test_huge_shape_is_truncation_not_overflow():
    with pytest.raises(FormatError, match="truncated"):
        # 2**64 elements: an int64 product wraps to 0, a Python one does not
        unpack_container(mvck_frame(b'{"arrays":[{"name":"w","shape":[4294967296,4294967296]}]}'))


def test_well_formed_frame_unpacks():
    payload = np.array([1.0, 2.0], "<f8").tobytes()
    blob = mvck_frame(b'{"arrays": [{"name": "v", "shape": [2]}]}', payload)
    header, arrays = unpack_container(blob)
    assert header["arrays"] == [{"name": "v", "shape": [2]}]
    assert np.array_equal(arrays["v"], [1.0, 2.0])


def _drop(*path):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


@pytest.mark.parametrize(
    "path",
    [("model",), ("model", "layer_dims"), ("model", "hidden_activation"),
     ("model", "output_activation"), ("model", "dropout_rate")],
)
def test_model_header_missing_key_is_format_error(path):
    blob = repack(serialize_model(init_glorot_normal((4, 3, 1), seed=0)), _drop(*path))
    with pytest.raises(FormatError, match="model header"):
        deserialize_model(blob)


def test_model_missing_weight_array_is_format_error():
    model = init_glorot_normal((4, 3, 1), seed=0)
    header, arrays = unpack_container(serialize_model(model))
    del arrays["w1"]
    with pytest.raises(FormatError, match="model header"):
        deserialize_model(pack_container(header, list(arrays.items())))


@pytest.fixture
def train_checkpoint(tmp_path):
    model = init_glorot_normal((4, 3, 1), seed=0)
    optimizer = make_optimizer(OptimizerConfig(kind="adam"))
    optimizer.step(model.param_list(), [np.ones_like(p) for p in model.param_list()])
    path = tmp_path / "ckpt.mvck"
    save_train_checkpoint(path, model, optimizer, {"epoch": 1, "iteration": 2, "seed": 3})
    return path


def test_train_checkpoint_round_trip(train_checkpoint):
    _, optimizer, meta = load_train_checkpoint(train_checkpoint)
    assert meta == {"epoch": 1, "iteration": 2, "seed": 3}
    assert optimizer.cfg.kind == "adam" and optimizer.t == 1


@pytest.mark.parametrize(
    "path",
    [("optimizer",), ("optimizer", "kind"), ("optimizer", "eps"), ("optimizer", "t"),
     ("optimizer", "slot_names"), ("meta",), ("meta", "epoch"), ("meta", "iteration"),
     ("meta", "seed")],
)
def test_train_header_missing_key_is_format_error(train_checkpoint, path):
    train_checkpoint.write_bytes(repack(train_checkpoint.read_bytes(), _drop(*path)))
    with pytest.raises(FormatError, match="header"):
        load_train_checkpoint(train_checkpoint)


def test_wrong_shape_optimizer_slot_is_format_error(train_checkpoint):
    header, arrays = unpack_container(train_checkpoint.read_bytes())
    arrays["opt.m.0"] = np.zeros((3, 3))  # parameter 0 (W0) is (3, 4)
    train_checkpoint.write_bytes(pack_container(header, list(arrays.items())))
    with pytest.raises(FormatError, match=r"opt\.m\.0 has shape \(3, 3\)"):
        load_train_checkpoint(train_checkpoint)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
@pytest.mark.parametrize("writer", ["model", "train"])
def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch, failing, writer):
    model = init_glorot_normal((4, 3, 1), seed=0)
    optimizer = make_optimizer(OptimizerConfig(kind="adam"))
    target = tmp_path / "best.mvck"
    save_train_checkpoint(target, model, optimizer, {"epoch": 1, "iteration": 2, "seed": 3})
    before = target.read_bytes()

    def fail(*args):
        raise OSError(f"{failing} failed")

    monkeypatch.setattr(checkpoint.os, failing, fail)
    model.weights[0] += 1.0
    with pytest.raises(OSError, match="failed"):
        if writer == "model":
            save_model(model, target)
        else:
            save_train_checkpoint(target, model, optimizer, {"epoch": 2, "iteration": 4, "seed": 3})
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]


headers = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.lists(
        st.fixed_dictionaries({"name": json_values, "shape": json_values}), max_size=3
    ).map(lambda entries: json.dumps({"arrays": entries}).encode()),
)
containers = st.one_of(
    st.binary(max_size=128),
    st.binary(max_size=64).map(lambda b: b"MVCK" + b),
    st.tuples(headers, st.binary(max_size=64)).map(lambda hp: mvck_frame(*hp)),
)


@settings(max_examples=300, deadline=None)
@given(data=containers)
def test_unpack_arbitrary_bytes_returns_container_or_milvid_error(data):
    try:
        header, arrays = unpack_container(data)
    except MilvidError:
        return
    assert isinstance(header, dict)
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in arrays.values())


@settings(max_examples=200, deadline=None)
@given(model=json_values, layer_dims=json_values)
def test_deserialize_arbitrary_model_header_returns_model_or_milvid_error(model, layer_dims):
    header = {"kind": "model", "model": model}
    if isinstance(model, dict):
        model["layer_dims"] = layer_dims
    try:
        deserialize_model(pack_container(header, []))
    except MilvidError:
        pass
