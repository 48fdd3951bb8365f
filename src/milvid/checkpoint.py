"""Versioned binary container for model and training checkpoints.

Layout:

    bytes 0..3   magic, ASCII "MVCK"
    bytes 4..7   format version, uint32 little-endian (currently 1)
    bytes 8..11  header length H, uint32 little-endian
     12..12+H    header, UTF-8 JSON (canonical key order): scorer config,
                 an ordered array directory [{name, shape}], and metadata
    ..           payload: the directory's arrays as float64 little-endian,
                 row-major, concatenated in directory order
    last 4       CRC-32 of every preceding byte, uint32 little-endian

Round-trips are bitwise: the same model (or training state) always packs to
the same bytes. Any flipped byte fails the checksum.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError
from .optimizers import Optimizer, OptimizerConfig, make_optimizer
from .scorer import ScorerConfig, ScoringModel

MAGIC = b"MVCK"
VERSION = 1
_PREFIX = struct.Struct("<4sII")
_CRC = struct.Struct("<I")


@contextlib.contextmanager
def _malformed(what: str):
    # a header that passed the checksum but holds the wrong keys or types
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"malformed {what}: {exc!r}") from None


def pack_container(header: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    directory = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    full_header = dict(header)
    full_header["arrays"] = directory
    header_bytes = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [_PREFIX.pack(MAGIC, VERSION, len(header_bytes)), header_bytes]
    for _, arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body))


def unpack_container(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(data) < _PREFIX.size + _CRC.size:
        raise CorruptionError(f"container too short: {len(data)} bytes")
    magic, version, header_len = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad container magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}, expected {VERSION}")
    body, stored = data[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])[0]
    actual = zlib.crc32(body)
    if actual != stored:
        raise CorruptionError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    header_end = _PREFIX.size + header_len
    if header_end > len(body):
        raise CorruptionError("header length exceeds container size")
    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    with _malformed("container header"):
        header = json.loads(body[_PREFIX.size:header_end].decode("utf-8"))
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise FormatError(f"array {name!r} has a bad shape {list(shape)}")
            nbytes = math.prod(shape) * 8
            if offset + nbytes > len(body):
                raise CorruptionError(f"payload truncated at array {name!r}")
            arrays[name] = (
                np.frombuffer(body, dtype="<f8", count=nbytes // 8, offset=offset)
                .reshape(shape)
                .astype(np.float64)
            )
            offset += nbytes
    if offset != len(body):
        raise CorruptionError(f"{len(body) - offset} unexpected trailing payload bytes")
    return header, arrays


def _model_header(model: ScoringModel) -> dict:
    cfg = model.config
    return {
        "layer_dims": list(cfg.layer_dims),
        "hidden_activation": cfg.hidden_activation,
        "output_activation": cfg.output_activation,
        "dropout_rate": cfg.dropout_rate,
    }


def _model_arrays(model: ScoringModel) -> list[tuple[str, np.ndarray]]:
    arrays = []
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays.append((f"w{l}", w))
        arrays.append((f"b{l}", b))
    return arrays


def _model_from(header: dict, arrays: dict[str, np.ndarray]) -> ScoringModel:
    with _malformed("model header"):
        m = header["model"]
        cfg = ScorerConfig(
            layer_dims=tuple(m["layer_dims"]),
            hidden_activation=m["hidden_activation"],
            output_activation=m["output_activation"],
            dropout_rate=m["dropout_rate"],
        )
        weights = [arrays[f"w{l}"] for l in range(cfg.num_layers)]
        biases = [arrays[f"b{l}"] for l in range(cfg.num_layers)]
        return ScoringModel(cfg, weights, biases)


def serialize_model(model: ScoringModel) -> bytes:
    header = {"kind": "model", "schema_version": 1, "model": _model_header(model)}
    return pack_container(header, _model_arrays(model))


def deserialize_model(data: bytes) -> ScoringModel:
    header, arrays = unpack_container(data)
    if header.get("kind") not in ("model", "train"):
        raise FormatError(f"container holds {header.get('kind')!r}, not a model")
    return _model_from(header, arrays)


def _write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a temp file in the same directory, are fsynced, and then
    replace ``path``; a kill or error at any point leaves the old file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(model: ScoringModel, path: str | Path) -> None:
    _write_atomic(path, serialize_model(model))


def load_model(path: str | Path) -> ScoringModel:
    return deserialize_model(Path(path).read_bytes())


def save_train_checkpoint(
    path: str | Path, model: ScoringModel, optimizer: Optimizer, meta: dict
) -> None:
    """Model plus optimizer accumulators plus loop metadata, one container."""
    state = optimizer.state_dict()
    header = {
        "kind": "train",
        "schema_version": 1,
        "model": _model_header(model),
        "optimizer": {
            "kind": optimizer.cfg.kind,
            "lr": optimizer.cfg.effective_lr,
            "beta1": optimizer.cfg.beta1,
            "beta2": optimizer.cfg.beta2,
            "rho": optimizer.cfg.rho,
            "eps": optimizer.cfg.eps,
            "t": state["t"],
            "slot_names": sorted(state["slots"]),
        },
        "meta": meta,
    }
    arrays = _model_arrays(model)
    for name in sorted(state["slots"]):
        for i, arr in enumerate(state["slots"][name]):
            arrays.append((f"opt.{name}.{i}", arr))
    _write_atomic(path, pack_container(header, arrays))


def load_train_checkpoint(path: str | Path) -> tuple[ScoringModel, Optimizer, dict]:
    header, arrays = unpack_container(Path(path).read_bytes())
    if header.get("kind") != "train":
        raise FormatError(f"container holds {header.get('kind')!r}, not a training checkpoint")
    model = _model_from(header, arrays)
    with _malformed("training checkpoint header"):
        opt_h = header["optimizer"]
        cfg = OptimizerConfig(
            kind=opt_h["kind"],
            lr=opt_h["lr"],
            beta1=opt_h["beta1"],
            beta2=opt_h["beta2"],
            rho=opt_h["rho"],
            eps=opt_h["eps"],
        )
        optimizer = make_optimizer(cfg)
        params = model.param_list()
        slots = {}
        for name in opt_h["slot_names"]:
            slots[name] = [arrays[f"opt.{name}.{i}"] for i in range(len(params))]
            for i, (slot, p) in enumerate(zip(slots[name], params)):
                if slot.shape != p.shape:
                    raise FormatError(
                        f"optimizer slot opt.{name}.{i} has shape {slot.shape}, "
                        f"parameter {i} has {p.shape}"
                    )
        optimizer.load_state_dict({"kind": opt_h["kind"], "t": opt_h["t"], "slots": slots})
        meta = header["meta"]
        meta = {**meta, **{k: int(meta[k]) for k in ("epoch", "iteration", "seed")}}
    return model, optimizer, meta
