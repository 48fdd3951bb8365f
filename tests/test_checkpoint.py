import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milvid
from milvid import checkpoint
from milvid.checkpoint import (
    deserialize_model,
    load_model,
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

from conftest import json_values, mvck_frame, open_in_pieces, same_bits


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


def _set(*path, value):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

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


def test_model_header_with_a_key_the_scorer_does_not_have_is_format_error():
    blob = repack(serialize_model(init_glorot_normal((4, 3, 1), seed=0)),
                  _set("model", "hidden_units", value=[3]))
    with pytest.raises(FormatError, match="model header.*hidden_units"):
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
    optimizer.step(model.theta, np.ones_like(model.theta))
    path = tmp_path / "ckpt.mvck"
    save_train_checkpoint(path, model, optimizer, {"epoch": 1, "iteration": 2, "seed": 3})
    return path


@pytest.mark.parametrize("in_pieces", [False, True])
def test_loaded_parameters_are_aligned_writeable_copies(tmp_path, monkeypatch, in_pieces):
    # the payload starts at byte 12+H of the file, so views of the read buffer
    # would mostly be misaligned; what a loaded model keeps is copied out
    model = init_glorot_normal((64, 16, 1), seed=0)  # an 8.5 KB payload: three 4 KB pieces
    optimizer = make_optimizer(OptimizerConfig(kind="adam"))
    optimizer.step(model.theta, np.ones_like(model.theta))
    save_model(model, tmp_path / "model.mvck")
    save_train_checkpoint(tmp_path / "ckpt.mvck", model, optimizer,
                          {"epoch": 1, "iteration": 2, "seed": 3})
    if in_pieces:
        reads = open_in_pieces(monkeypatch, checkpoint)
    loaded, resumed, _ = load_train_checkpoint(tmp_path / "ckpt.mvck")
    kept = [(load_model(tmp_path / "model.mvck").theta, model.theta), (loaded.theta, model.theta)]
    kept += [(resumed.slots[name], optimizer.slots[name]) for name in optimizer.slot_names]
    for array, saved in kept:
        assert array.flags.aligned and array.flags.c_contiguous and array.flags.writeable
        assert array.ctypes.data % array.itemsize == 0
        assert same_bits(array, saved)
    if in_pieces:  # each file in 4 KB pieces, and no read past its end
        assert len(reads) == sum(-(-os.path.getsize(tmp_path / name) // 4096)
                                   for name in ("model.mvck", "ckpt.mvck"))


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


@pytest.mark.parametrize(
    "path, value",
    [
        (("optimizer", "t"), "1"),
        (("optimizer", "t"), -1),
        (("optimizer", "t"), 1.0),
        (("optimizer", "t"), True),
        (("meta", "epoch"), "1"),
        (("meta", "epoch"), None),
        (("meta", "iteration"), -2),
        (("meta", "seed"), 3.5),
        (("meta", "best_val_auc"), "0.9"),
        (("meta", "best_val_auc"), [0.9]),
        (("meta", "best_val_auc"), True),
        (("meta", "best_epoch"), 1.0),
        (("meta", "best_epoch"), "1"),
    ],
)
def test_train_header_badly_typed_counter_is_format_error(train_checkpoint, path, value):
    train_checkpoint.write_bytes(repack(train_checkpoint.read_bytes(), _set(*path, value=value)))
    with pytest.raises(FormatError, match=path[-1]):
        load_train_checkpoint(train_checkpoint)


def test_train_header_null_best_fields_load(train_checkpoint):
    edit = _set("meta", value={"epoch": 1, "iteration": 2, "seed": 3,
                               "best_val_auc": None, "best_epoch": None})
    train_checkpoint.write_bytes(repack(train_checkpoint.read_bytes(), edit))
    _, _, meta = load_train_checkpoint(train_checkpoint)
    assert meta["best_val_auc"] is None and meta["best_epoch"] is None


@pytest.mark.parametrize("slot_names", [["m"], ["v"], [], ["m", "v", "w"], ["v", "m"]])
def test_slot_names_other_than_the_kinds_are_format_error(train_checkpoint, slot_names):
    # an Adam checkpoint without v would otherwise resume with v recreated as zeros
    header, arrays = unpack_container(train_checkpoint.read_bytes())
    header["optimizer"]["slot_names"] = slot_names
    kept = [
        (k, a) for k, a in arrays.items()
        if not k.startswith("opt.") or k.split(".")[1] in slot_names
    ]
    train_checkpoint.write_bytes(pack_container(header, kept))
    with pytest.raises(FormatError, match="slot_names"):
        load_train_checkpoint(train_checkpoint)


@pytest.mark.parametrize("key", ["beta1", "beta2", "rho", "eps"])
def test_other_optimizer_constant_is_format_error(train_checkpoint, key):
    edit = _set("optimizer", key, value=0.5)
    train_checkpoint.write_bytes(repack(train_checkpoint.read_bytes(), edit))
    with pytest.raises(FormatError, match=key):
        load_train_checkpoint(train_checkpoint)


def test_header_naming_an_unknown_optimizer_is_format_error(train_checkpoint):
    # a valid-CRC header whose settings fail config validation is a format error
    edit = _set("optimizer", "kind", value="lbfgs")
    train_checkpoint.write_bytes(repack(train_checkpoint.read_bytes(), edit))
    with pytest.raises(FormatError, match="lbfgs"):
        load_train_checkpoint(train_checkpoint)


def test_header_naming_an_unknown_output_activation_is_format_error():
    edit = _set("model", "output_activation", value="softmax")
    blob = repack(serialize_model(init_glorot_normal((4, 3, 1), seed=0)), edit)
    with pytest.raises(FormatError, match="softmax"):
        deserialize_model(blob)


def _step_all(model, optimizer, value):
    optimizer.step(model.theta, np.full_like(model.theta, value))


def test_adam_round_trip_then_one_step_gives_equal_parameters(tmp_path):
    model = init_glorot_normal((4, 3, 1), seed=0)
    optimizer = make_optimizer(OptimizerConfig(kind="adam"))
    for value in (0.5, -0.2, 0.1):
        _step_all(model, optimizer, value)
    path = tmp_path / "ckpt.mvck"
    save_train_checkpoint(path, model, optimizer, {"epoch": 1, "iteration": 3, "seed": 0})
    loaded_model, loaded_optimizer, _ = load_train_checkpoint(path)
    assert loaded_optimizer.t == 3 and sorted(loaded_optimizer.slots) == ["m", "v"]
    _step_all(model, optimizer, 0.3)
    _step_all(loaded_model, loaded_optimizer, 0.3)
    assert serialize_model(loaded_model) == serialize_model(model)
    for name in ("m", "v"):
        assert np.array_equal(loaded_optimizer.slots[name], optimizer.slots[name])


@pytest.mark.parametrize("kind", ["sgd", "adam", "adagrad", "rmsprop"])
def test_checkpoint_before_the_first_step_holds_zero_slots(tmp_path, kind):
    model = init_glorot_normal((4, 3, 1), seed=0)
    fresh = make_optimizer(OptimizerConfig(kind=kind))
    path = tmp_path / "ckpt.mvck"
    save_train_checkpoint(path, model, fresh, {"epoch": 0, "iteration": 0, "seed": 0})
    header, arrays = unpack_container(path.read_bytes())
    assert header["optimizer"]["slot_names"] == sorted(fresh.slot_names)
    assert all(not a.any() for k, a in arrays.items() if k.startswith("opt."))
    loaded_model, loaded, _ = load_train_checkpoint(path)
    assert loaded.t == 0
    _step_all(model, fresh, 0.25)
    _step_all(loaded_model, loaded, 0.25)
    assert serialize_model(loaded_model) == serialize_model(model)


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


def test_a_save_keeps_temp_files_of_running_writers_and_other_names(tmp_path):
    target = tmp_path / "best.mvck"
    # the parent process is running; the other names are not a writer's temp file
    kept = [f".best.mvck.{os.getppid()}.tmp", ".best.mvck.x1.tmp", ".other.mvck.1.tmp",
            "best.mvck.1.tmp", f".best.mvck.{10**30}.tmp"]
    for name in kept:
        (tmp_path / name).write_bytes(b"partial")
    save_model(init_glorot_normal((4, 3, 1), seed=0), target)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*kept, "best.mvck"])


# Writes a 3.6 MB Adam checkpoint to argv[2] and prints "ready". Then, with
# argv[3] = N >= 0, saves once to argv[1] and SIGKILLs itself after the first N
# bytes reach the file; with N < 0, rewrites argv[1] in a loop until killed.
_KILLED_SAVE = """
import os, signal, sys
import numpy as np
from milvid import checkpoint
from milvid.optimizers import OptimizerConfig, make_optimizer
from milvid.scorer import init_glorot_normal

target, expected, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
model = init_glorot_normal((256, 512, 32, 1), seed=0)
optimizer = make_optimizer(OptimizerConfig(kind="adam"))
optimizer.step(model.theta, np.ones_like(model.theta))
state = (model, optimizer, {"epoch": 1, "iteration": 1, "seed": 0})
checkpoint.save_train_checkpoint(expected, *state)
print("ready", flush=True)

class DiesMidWrite:
    def __init__(self, path, mode):
        self.fh = open(path, mode)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.fh.close()
    def write(self, data):
        self.fh.write(data[:kill_at])
        self.fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

if kill_at >= 0:
    checkpoint.open = DiesMidWrite
while True:
    checkpoint.save_train_checkpoint(target, *state)
"""


def test_kill_during_a_checkpoint_write_leaves_the_old_or_the_new_file(tmp_path):
    target, expected = tmp_path / "ckpt.mvck", tmp_path / "new.mvck"
    state = (init_glorot_normal((256, 512, 32, 1), seed=1),
             make_optimizer(OptimizerConfig(kind="adam")), {"epoch": 0, "iteration": 0, "seed": 0})
    save_train_checkpoint(target, *state)
    old = target.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(milvid.__file__).parents[1])}
    # kills at byte offsets into the write (the last one past its end), then
    # kills of a writer in a loop after a delay
    kills = [(offset, 0.0) for offset in (0, 4096, 1 << 20, 1 << 30)]
    kills += [(-1, delay) for delay in (0.01, 0.1, 0.5)]
    outcomes = []
    for kill_at, delay in kills:
        target.write_bytes(old)
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SAVE, str(target), str(expected), str(kill_at)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert child.stdout.readline() == "ready\n"
            time.sleep(delay)
            if kill_at < 0:
                os.kill(child.pid, signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        data = target.read_bytes()
        assert data in (old, expected.read_bytes()), f"kill {kill_at, delay} left a mixed file"
        outcomes.append(data != old)
        load_train_checkpoint(target)
        # only the killed writer's temp file may be left beside the target
        leftovers = set(tmp_path.iterdir()) - {target, expected}
        assert {p.name for p in leftovers} <= {f".{target.name}.{child.pid}.tmp"}
        assert leftovers or kill_at < 0, "a kill inside the write left no temp file"
        # and the next save of the target removes it
        save_train_checkpoint(target, *state)
        assert set(tmp_path.iterdir()) == {target, expected}
    assert outcomes[:4] == [False] * 4, "a kill before the replace changed the target"
    assert any(outcomes[4:]), "no kill came after a complete write"


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
