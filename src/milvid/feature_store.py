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

``read_split`` reads a split's payloads on up to one thread per CPU;
``read_features``, which reads one file (``milvid score``'s path), stays
on the calling thread.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptionError, FormatError, ValidationError

MAGIC = b"MIL1"
_HEADER = struct.Struct("<4sII")

SPLITS = ("train", "test")

# read_split starts one reading thread per this many payload bytes, up to one per usable CPU
_THREAD_BYTES = 8 << 20


@dataclass(frozen=True)
class FeatureMatrix:
    """One video's per-clip feature vectors: a (count, dim) float32 array."""

    values: np.ndarray

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # a finite value beyond float32's range casts to inf
            arr = np.ascontiguousarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValidationError("feature dimensionality must be positive")
        if not np.all(np.isfinite(arr)):
            if np.all(np.isfinite(np.asarray(self.values, dtype=np.float64))):
                raise ValidationError("feature matrix values exceed the float32 range")
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
    """Read a MIL1 feature file, falling back to CSV for text files.

    The file is opened once, unbuffered: a 12-byte header read and an
    ``fstat`` check its shape, and the payload is read straight into the
    returned array.
    """
    with open(src, "rb", buffering=0) as fh:
        shape = _read_head(fh, src)
        if isinstance(shape, FeatureMatrix):
            return shape
        values = np.empty(shape, dtype="<f4")
        _read_payload(fh, values, src)
    return _checked(values, src, "feature file")


def read_split(paths: list[str | Path]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Read feature files into one read-only float32 ``(R, D)`` array.

    Every header is read first, and text files are parsed then, so the array
    is allocated once at its final size before any MIL1 payload is read into
    it. A MIL1 file costs two unbuffered opens and no wrapper object: a
    12-byte header read and an ``fstat`` in the first pass, one read straight
    into its rows of the array and a finiteness check of those rows in the
    second. Returns the array and each file's ``(start, stop)`` rows in it.
    All files must share one dim; errors name the file, as
    ``read_features``'s do.

    The second pass runs on one thread per CPU this process may use, but on
    no more threads than the split holds 8 MiB of payload, so a split below
    16 MiB is read on the calling thread alone. Each thread reads a
    contiguous run of files, about an equal share of the payload bytes,
    into its rows and checks them; the calling thread reads the first run.
    The threads are joined before this returns or raises. The bits are
    those of a file-after-file read, and so are the errors: a payload error
    names the first bad file of the first run that has one, which is the
    first bad file in ``paths``.
    """
    if not paths:
        raise ValidationError("read_split needs at least one feature file")
    shapes, texts = [], {}  # texts: index -> values of a parsed text file
    for i, src in enumerate(paths):
        with open(src, "rb", buffering=0) as fh:
            shape = _read_head(fh, src)
        if isinstance(shape, FeatureMatrix):
            texts[i] = shape.values
            shape = texts[i].shape
        if shapes and shape[1] != shapes[0][1]:
            raise ValidationError(f"{src}: dim {shape[1]} differs from dim {shapes[0][1]} "
                                  f"of {paths[0]}")
        shapes.append(shape)
    stops = list(itertools.accumulate(count for count, _ in shapes))
    spans = list(zip([0, *stops], stops))
    values = np.empty((stops[-1], shapes[0][1]), dtype="<f4")
    threads = max(1, min(_usable_cpus(), values.nbytes // _THREAD_BYTES))
    runs = _runs(spans, threads)
    errors = [None] * len(runs)  # errors[k]: what stopped run k, for k >= 1

    def read_run(k: int) -> None:
        try:
            _read_files(paths, spans, texts, values, runs[k])
        except BaseException as exc:  # raised below, once every run has finished
            errors[k] = exc

    started = []
    try:
        for k in range(1, len(runs)):
            thread = threading.Thread(target=read_run, args=(k,))
            thread.start()
            started.append(thread)
        _read_files(paths, spans, texts, values, runs[0])
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    values.flags.writeable = False
    return values, spans


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runs(spans: list[tuple[int, int]], parts: int) -> list[range]:
    """The files, as up to ``parts`` non-empty runs of consecutive indices
    with about equal rows each: a file goes to the run its middle row falls
    in. The files share one dim, so rows weigh as payload bytes do."""
    total = spans[-1][1]
    middles = [a + b for a, b in spans]  # twice each file's middle row
    cuts = [0, *(bisect.bisect_left(middles, 2 * total * k / parts) for k in range(1, parts)),
            len(spans)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _read_files(paths, spans, texts, values: np.ndarray, run: range) -> None:
    """Fill the rows of the files in ``run`` from their payloads (or parsed
    text) and check them, file after file; the first bad file raises."""
    for i in run:
        src, (a, b) = paths[i], spans[i]
        if i in texts:
            values[a:b] = texts[i]
            continue
        rows = values[a:b]
        with open(src, "rb", buffering=0) as fh:
            fh.seek(_HEADER.size)
            _read_payload(fh, rows, src)
        if not np.isfinite(rows).all():  # the message ``read_features`` gives
            raise ValidationError(f"{src}: feature file contains non-finite values")


def _read_head(fh, src: str | Path) -> tuple[int, int] | FeatureMatrix:
    """The ``(count, dim)`` a MIL1 file's header declares, checked against
    the file's size, with ``fh``, an unbuffered file, left at the payload. A
    file that does not start with the magic is parsed whole as text."""
    head = fh.read(_HEADER.size)
    if head[: len(MAGIC)] != MAGIC:
        return _parse_csv(head + fh.read(), src)
    if len(head) < _HEADER.size:
        raise CorruptionError(f"{src}: truncated header, expected at least "
                              f"{_HEADER.size} bytes, got {len(head)}")
    _, dim, count = _HEADER.unpack(head)
    if dim < 1:
        raise FormatError(f"{src}: header declares dim={dim}, must be >= 1")
    actual = os.fstat(fh.fileno()).st_size - _HEADER.size
    if actual != count * dim * 4:  # a huge header fails here, before any allocation
        raise _size_mismatch(src, count, dim, actual)
    return count, dim


def readinto_all(fh, buf: np.ndarray) -> int:
    """Read from ``fh`` into the C-contiguous ``buf`` until it is full or the
    file ends; returns the bytes read. An unbuffered read may return short
    (Linux reads at most about 2 GiB a call), so this loops."""
    got = fh.readinto(buf)
    while 0 < got < buf.nbytes:
        more = fh.readinto(memoryview(buf).cast("B")[got:])
        if not more:
            break
        got += more
    return got


def _read_payload(fh, out: np.ndarray, src: str | Path) -> None:
    """Fill ``out``, a C-contiguous float32 array, from ``fh``'s current position."""
    got = readinto_all(fh, out)
    if got != out.nbytes:  # the file shrank after its size was checked
        raise _size_mismatch(src, *out.shape, got)


def _size_mismatch(src: str | Path, count: int, dim: int, actual: int) -> CorruptionError:
    return CorruptionError(
        f"{src}: payload size mismatch, expected {count * dim * 4} bytes for "
        f"{count}x{dim} float32 values, got {actual}"
    )


def _checked(values: np.ndarray, src: str | Path, kind: str) -> FeatureMatrix:
    try:
        return FeatureMatrix(values)
    except ValidationError as exc:  # a parsed 2-d, dim >= 1 array fails only on its values
        reason = str(exc).removeprefix("feature matrix ")
        raise ValidationError(f"{src}: {kind} {reason}") from None


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
    return _checked(np.asarray(rows), src, "CSV feature file")


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
                label = record["label"]
                if type(label) is not int:  # not a float, bool or string read as ±1
                    raise ValueError(f"label must be a JSON integer, got {label!r}")
                entries.append(ManifestEntry(record["bag_id"], label, record["path"], record["split"]))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text: {exc}") from None
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
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
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be a finite number >= 0, got {self.noise_std}")
        if not math.isfinite(self.shift_magnitude):
            raise ConfigError(f"shift_magnitude must be finite, got {self.shift_magnitude}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def witnesses_per_bag(self) -> int:
        return math.ceil(self.witness_rate * self.instances_per_bag)


def synthesize_dataset(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Generate feature files plus a manifest under ``out_dir``.

    Returns the manifest path. Bitwise reproducible for a fixed config. On
    any error, the files written so far are removed, and so are the
    directories this call created.
    """
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        return _write_dataset(cfg, out, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):  # not empty: files this call did not write
                d.rmdir()
        raise


def _write_dataset(cfg: SynthConfig, out: Path, written: list[Path]) -> Path:
    # appends each path to ``written`` before writing it, so a failed write is listed too
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
            matrix = FeatureMatrix(values)
            written.append(out / name)
            write_features(matrix, out / name)
            entries.append(ManifestEntry(f"{split}-{tag}-{i:04d}", label, name, split))

    manifest = out / "manifest.jsonl"
    written.append(manifest)
    write_manifest(entries, manifest)
    return manifest
