"""On-disk formats for per-clip feature vectors, plus a synthetic generator.

Feature files use the MIL1 binary layout:

    bytes 0..3    magic, ASCII "MIL1"
    bytes 4..7    feature dimensionality ``dim``, uint32 little-endian
    bytes 8..11   clip count ``count``, uint32 little-endian
    bytes 12..    count*dim IEEE-754 float32 values, little-endian,
                  row-major (one row per clip, temporal order)

so a valid file is exactly ``12 + count*dim*4`` bytes long. A text fallback
is accepted on read: one clip per line, ``dim`` comma-separated decimal
numbers.

A dataset manifest is a JSON-records file (one object per line) with fields
``bag_id`` (unique string), ``label`` (+1 or -1), ``path`` (feature file,
relative to the manifest's directory) and ``split`` ("train" or "test").
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptionError, FormatError, ValidationError

MAGIC = b"MIL1"
_HEADER = struct.Struct("<4sII")

SPLITS = ("train", "test")


@dataclass(frozen=True)
class FeatureMatrix:
    """One video's per-clip feature vectors: a (count, dim) float32 array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValidationError("feature dimensionality must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def write_features(m: FeatureMatrix, dest: str | Path) -> None:
    """Write a feature matrix to ``dest`` in the MIL1 binary layout."""
    payload = np.ascontiguousarray(m.values, dtype="<f4").tobytes()
    with open(dest, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, m.dim, m.count))
        fh.write(payload)


def read_features(src: str | Path) -> FeatureMatrix:
    """Read a MIL1 feature file, falling back to CSV for text files."""
    with open(src, "rb") as fh:
        data = fh.read()
    if data[:4] == MAGIC:
        return _parse_binary(data, src)
    return _parse_csv(data, src)


def _parse_binary(data: bytes, src: str | Path) -> FeatureMatrix:
    if len(data) < _HEADER.size:
        raise CorruptionError(
            f"{src}: truncated header, expected at least {_HEADER.size} bytes, got {len(data)}"
        )
    _, dim, count = _HEADER.unpack_from(data)
    if dim < 1:
        raise FormatError(f"{src}: header declares dim={dim}, must be >= 1")
    expected = count * dim * 4
    actual = len(data) - _HEADER.size
    if actual != expected:
        raise CorruptionError(
            f"{src}: payload size mismatch, expected {expected} bytes for "
            f"{count}x{dim} float32 values, got {actual}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(count, dim)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{src}: feature file contains non-finite values")
    return FeatureMatrix(values.copy())


def _parse_csv(data: bytes, src: str | Path) -> FeatureMatrix:
    magic = data[:4]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{src}: bad magic {magic!r}, expected {MAGIC!r}") from None
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise FormatError(
                f"{src}: bad magic {magic!r} and line {lineno} is not comma-separated numbers"
            ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(
                f"{src}: CSV rows have inconsistent widths ({width} vs {len(row)} at line {lineno})"
            )
        rows.append(row)
    if not rows:
        raise FormatError(f"{src}: bad magic {magic!r} and no CSV rows found")
    values = np.asarray(rows, dtype=np.float32)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{src}: CSV feature file contains non-finite values")
    return FeatureMatrix(values)


@dataclass(frozen=True)
class ManifestEntry:
    bag_id: str
    label: int
    path: str
    split: str

    def __post_init__(self) -> None:
        if not isinstance(self.bag_id, str) or not isinstance(self.path, str):
            raise ValidationError(f"bag_id and path must be str: {self.bag_id!r}, {self.path!r}")
        if self.label not in (1, -1):
            raise ValidationError(f"label must be +1 or -1, got {self.label!r}")
        if self.split not in SPLITS:
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> None:
    """Write manifest entries as one JSON record per line."""
    _check_unique_ids(entries)
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            record = {"bag_id": e.bag_id, "label": e.label, "path": e.path, "split": e.split}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                record = json.loads(line)
                label = int(record["label"])
                entries.append(ManifestEntry(record["bag_id"], label, record["path"], record["split"]))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text: {exc}") from None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: bad manifest record at line {lineno}: {exc}") from None
    _check_unique_ids(entries)
    return entries


def _check_unique_ids(entries: list[ManifestEntry]) -> None:
    seen = set()
    for e in entries:
        if e.bag_id in seen:
            raise ValidationError(f"duplicate bag_id {e.bag_id!r} in manifest")
        seen.add(e.bag_id)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the planted-signal synthetic dataset.

    Negative bags are pure zero-mean Gaussian noise. Positive bags plant
    ``ceil(witness_rate * instances_per_bag)`` witness instances whose mean
    is shifted by ``shift_magnitude`` along one fixed random unit direction;
    the remaining instances are drawn like negatives. ``n_pos_bags`` and
    ``n_neg_bags`` go to the train split, the ``*_test`` counts to the test
    split. Output is a pure function of the config, including the seed.
    """

    dim: int
    n_pos_bags: int
    n_neg_bags: int
    instances_per_bag: int
    witness_rate: float = 1.0
    shift_magnitude: float = 3.0
    noise_std: float = 1.0
    seed: int = 0
    n_pos_test: int = 0
    n_neg_test: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.n_pos_bags < 1 or self.n_neg_bags < 1 or self.instances_per_bag < 1:
            raise ConfigError("bag and instance counts must be positive")
        if self.n_pos_test < 0 or self.n_neg_test < 0:
            raise ConfigError("test bag counts must be non-negative")
        if not 0.0 < self.witness_rate <= 1.0:
            raise ConfigError(f"witness_rate must be in (0, 1], got {self.witness_rate}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")

    @property
    def witnesses_per_bag(self) -> int:
        return math.ceil(self.witness_rate * self.instances_per_bag)


def synthesize_dataset(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Generate feature files plus a manifest under ``out_dir``.

    Returns the manifest path. Bitwise reproducible for a fixed config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    direction = rng.standard_normal(cfg.dim)
    direction /= np.linalg.norm(direction)

    entries: list[ManifestEntry] = []
    plan = (
        ("train", 1, cfg.n_pos_bags),
        ("train", -1, cfg.n_neg_bags),
        ("test", 1, cfg.n_pos_test),
        ("test", -1, cfg.n_neg_test),
    )
    for split, label, n_bags in plan:
        tag = "pos" if label > 0 else "neg"
        for i in range(n_bags):
            values = rng.normal(0.0, cfg.noise_std, size=(cfg.instances_per_bag, cfg.dim))
            if label > 0:
                where = rng.choice(cfg.instances_per_bag, size=cfg.witnesses_per_bag, replace=False)
                values[where] += cfg.shift_magnitude * direction
            name = f"{split}-{tag}-{i:04d}.mil1"
            write_features(FeatureMatrix(values), out / name)
            entries.append(ManifestEntry(f"{split}-{tag}-{i:04d}", label, name, split))

    manifest = out / "manifest.jsonl"
    write_manifest(entries, manifest)
    return manifest
