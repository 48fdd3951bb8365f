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
import dataclasses
import json
import math
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptionError, FormatError
from .feature_store import readinto_all
from .optimizers import BETA1, BETA2, EPS, RHO, Optimizer, OptimizerConfig, make_optimizer
from .scorer import FlatParams, ScorerConfig, ScoringModel

MAGIC = b"MVCK"
VERSION = 1
_PREFIX = struct.Struct("<4sII")
_CRC = struct.Struct("<I")


@contextlib.contextmanager
def _malformed(what: str):
    # a header that passed the checksum but holds the wrong keys, types or settings
    try:
        yield
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
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
    body, stored = memoryview(data)[:-_CRC.size], _CRC.unpack(data[-_CRC.size:])[0]
    actual = zlib.crc32(body)
    if actual != stored:
        raise CorruptionError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    header_end = _PREFIX.size + header_len
    if header_end > len(body):
        raise CorruptionError("header length exceeds container size")
    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    with _malformed("container header"):
        header = json.loads(str(body[_PREFIX.size:header_end], "utf-8"))
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise FormatError(f"array {name!r} has a bad shape {list(shape)}")
            nbytes = math.prod(shape) * 8
            if offset + nbytes > len(body):
                raise CorruptionError(f"payload truncated at array {name!r}")
            # read-only views of ``data``: the readers below copy what they keep
            arrays[name] = np.frombuffer(body, "<f8", nbytes // 8, offset).reshape(shape)
            offset += nbytes
    if offset != len(body):
        raise CorruptionError(f"{len(body) - offset} unexpected trailing payload bytes")
    return header, arrays


def _model_header(model: ScoringModel) -> dict:
    return dataclasses.asdict(model.config)


def _model_arrays(model: ScoringModel) -> list[tuple[str, np.ndarray]]:
    arrays = []
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays.append((f"w{l}", w))
        arrays.append((f"b{l}", b))
    return arrays


def _model_from(header: dict, arrays: dict[str, np.ndarray]) -> ScoringModel:
    with _malformed("model header"):
        m = header["model"]
        missing = [f.name for f in dataclasses.fields(ScorerConfig) if f.name not in m]
        if missing:  # a default would silently stand in for the field
            raise KeyError(", ".join(missing))
        cfg = ScorerConfig(**m)  # an unknown key is a TypeError
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
    A killed writer's temp file is removed by the next successful write.
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
    _remove_dead_writers_temps(path)


def _remove_dead_writers_temps(path: Path) -> None:
    """Unlink ``path``'s ``.NAME.PID.tmp`` siblings whose writer PID is not running."""
    if os.name != "posix":  # os.kill(pid, 0) probes a process only on POSIX
        return
    stale = re.compile(rf"\.{re.escape(path.name)}\.([0-9]+)\.tmp")
    for sibling in path.parent.iterdir():
        match = stale.fullmatch(sibling.name)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:  # the writer is gone
            with contextlib.suppress(OSError):
                sibling.unlink()
        except (OSError, OverflowError):  # PermissionError: alive, another user's
            pass


def save_model(model: ScoringModel, path: str | Path) -> None:
    _write_atomic(path, serialize_model(model))


def _read_container(path: str | Path) -> memoryview:
    """The file's bytes, read unbuffered into one numpy byte buffer.

    ``unpack_container`` returns views of it at offset 12+H, mostly
    misaligned; ``ScoringModel`` and the optimizer slots copy what they keep
    into aligned arrays.
    """
    with open(path, "rb", buffering=0) as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        got = readinto_all(fh, buf)
    return memoryview(buf)[:got]


def load_model(path: str | Path) -> ScoringModel:
    return deserialize_model(_read_container(path))


# update-rule constants a checkpoint records; a different value is another run
_OPTIMIZER_CONSTANTS = {"beta1": BETA1, "beta2": BETA2, "rho": RHO, "eps": EPS}


def save_train_checkpoint(
    path: str | Path, model: ScoringModel, optimizer: Optimizer, meta: dict
) -> None:
    """Model plus optimizer accumulators plus loop metadata, one container.

    Every accumulator of the optimizer's kind is written. Before the first
    step, when none exists yet, they are written as zeros: the state that
    the first step creates.
    """
    slots = optimizer.slots or {name: np.zeros_like(model.theta) for name in optimizer.slot_names}
    header = {
        "kind": "train",
        "schema_version": 1,
        "model": _model_header(model),
        "optimizer": {
            "kind": optimizer.cfg.kind,
            "lr": optimizer.cfg.effective_lr,
            **_OPTIMIZER_CONSTANTS,
            "t": optimizer.t,
            "slot_names": sorted(slots),
        },
        "meta": meta,
    }
    arrays = _model_arrays(model)
    for name in sorted(slots):
        for i, view in enumerate(FlatParams(model.config.layer_dims, slots[name]).param_list()):
            arrays.append((f"opt.{name}.{i}", view))
    _write_atomic(path, pack_container(header, arrays))


def load_train_checkpoint(path: str | Path) -> tuple[ScoringModel, Optimizer, dict]:
    """Read what ``save_train_checkpoint`` wrote; any other header is a FormatError."""
    header, arrays = unpack_container(_read_container(path))
    if header.get("kind") != "train":
        raise FormatError(f"container holds {header.get('kind')!r}, not a training checkpoint")
    model = _model_from(header, arrays)
    with _malformed("training checkpoint header"):
        opt_h = header["optimizer"]
        optimizer = make_optimizer(OptimizerConfig(kind=opt_h["kind"], lr=opt_h["lr"]))
        for key, value in _OPTIMIZER_CONSTANTS.items():
            if opt_h[key] != value:
                raise FormatError(f"optimizer {key} is {opt_h[key]!r}, this version uses {value!r}")
        if opt_h["slot_names"] != sorted(optimizer.slot_names):
            raise FormatError(
                f"optimizer slot_names {opt_h['slot_names']!r} != "
                f"{sorted(optimizer.slot_names)!r} for {optimizer.cfg.kind!r}"
            )
        params = model.param_list()
        for name in optimizer.slot_names:
            parts = [arrays[f"opt.{name}.{i}"] for i in range(len(params))]
            for i, (part, p) in enumerate(zip(parts, params)):
                if part.shape != p.shape:
                    raise FormatError(
                        f"optimizer slot opt.{name}.{i} has shape {part.shape}, "
                        f"parameter {i} has {p.shape}"
                    )
            optimizer.slots[name] = np.concatenate([part.ravel() for part in parts])
        meta = header["meta"]
        counters = {k: meta[k] for k in ("epoch", "iteration", "seed")}
        for name, value in {"optimizer t": opt_h["t"], **counters}.items():
            if type(value) is not int or value < 0:
                raise FormatError(f"{name} must be a non-negative integer, got {value!r}")
        optimizer.t = opt_h["t"]
        best_val_auc, best_epoch = meta.get("best_val_auc"), meta.get("best_epoch")
        if best_val_auc is not None and type(best_val_auc) not in (int, float):
            raise FormatError(f"best_val_auc must be a number or null, got {best_val_auc!r}")
        if best_epoch is not None and type(best_epoch) is not int:
            raise FormatError(f"best_epoch must be an integer or null, got {best_epoch!r}")
    return model, optimizer, meta
