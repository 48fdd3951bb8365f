"""Bags of labeled instances and temporal segment pooling.

An instance is one clip's feature vector. A bag is one video's instances in
temporal order, so an instance's position in the bag is its temporal index,
plus a single bag-level label. A bag is negative exactly when all of its
instances are negative, so bag labels follow the existential rule
implemented by :func:`infer_bag_label`.

A bag's instances are the rows of its read-only 2-d ``matrix``. A loaded
split reads every feature file into one float32 array, and each of its bags
holds a view of its own rows. A pooled bag holds float64 only where a
segment averages rows; repeated segments keep the stored rows and their
dtype. The math runs in float64: ``feature_matrix`` casts one bag's rows,
which is exact, and ``stack_rows`` casts a list of bags into one stacked
batch for ``objective`` and ``evaluation.score_bags``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .feature_store import FeatureMatrix, ManifestEntry, read_manifest, read_split
from .scorer import Workspace


@dataclass(frozen=True, eq=False)
class Bag:
    bag_id: str
    label: int
    matrix: np.ndarray  # (n, dim), one row per instance in temporal order, read-only
    instances: tuple[np.ndarray, ...] = field(init=False, repr=False)  # the matrix's rows

    def __post_init__(self) -> None:
        if self.label not in (1, -1):
            raise ValidationError(f"bag label must be +1 or -1, got {self.label!r}")
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise ValidationError(f"bag {self.bag_id!r} matrix must be 2-d, got shape {matrix.shape}")
        if len(matrix) < 1:
            raise ValidationError(f"bag {self.bag_id!r} has no instances")
        if matrix.flags.writeable:  # a read-only view; the caller's array stays as it was
            matrix = matrix.view()
            matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "instances", tuple(matrix))

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def feature_matrix(self) -> np.ndarray:
        """The instances as a fresh float64 array, one row each, temporal order."""
        return self.matrix.astype(np.float64)


@dataclass(frozen=True)
class Dataset:
    bags: tuple[Bag, ...]
    dim: int

    def __post_init__(self) -> None:
        for bag in self.bags:
            if bag.dim != self.dim:
                raise ValidationError(
                    f"bag {bag.bag_id!r} has dim {bag.dim}, dataset expects {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.bags)

    def positives(self) -> list[Bag]:
        return [b for b in self.bags if b.label > 0]

    def negatives(self) -> list[Bag]:
        return [b for b in self.bags if b.label < 0]


def stack_rows(bags: list[Bag], work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The bags' rows cast (exactly) and stacked in order into the workspace's
    float64 ``x``, valid until the next call on ``work``, and each bag's start row."""
    if not bags:
        raise ValidationError("stacking rows needs at least one bag")
    sizes = [len(bag) for bag in bags]
    x = np.concatenate([bag.matrix for bag in bags], out=work.get("x", (sum(sizes), bags[0].dim)))
    return x, np.cumsum([0, *sizes[:-1]])


def assemble_bag(m: FeatureMatrix, label: int, bag_id: str) -> Bag:
    """Turn a feature matrix into a bag, one instance per row, sharing its array."""
    return Bag(bag_id=bag_id, label=label, matrix=m.values)


def pool_segments(bag: Bag, num_segments: int) -> Bag:
    """Pool a bag's instances into exactly ``num_segments`` segments.

    Segment ``j`` averages the source rows with indices in
    ``[floor(j*n/S), floor((j+1)*n/S))``. When S is below n, the rows are
    cast to float64 once (no copy for float64 rows), and each segment is one
    ``np.add.reduce`` on that array and a divide by its row count: the same
    bits as ``.mean(axis=0)`` on the float64 cast. When S equals n, each
    segment is one row, so the bag itself is returned, uncopied. When S
    exceeds n, that range holds at most one row, so segment ``j`` repeats
    row ``floor(j*n/S)``: the stored rows are gathered in their own dtype
    (float32 for a loaded split) and nothing is averaged. Label and bag id
    carry over.
    """
    if num_segments < 1:
        raise ValidationError("segment count must be >= 1")
    n = len(bag)
    if n == num_segments:
        return bag
    j = np.arange(num_segments)
    lo = j * n // num_segments
    if n < num_segments:  # plain repeats: the stored rows, as they are
        return Bag(bag_id=bag.bag_id, label=bag.label, matrix=bag.matrix[lo])
    hi = (j + 1) * n // num_segments  # n / S > 1, so every range holds a row
    rows = bag.matrix.astype(np.float64, copy=False)
    pooled = np.empty((num_segments, bag.dim))
    for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        np.add.reduce(rows[a:b], axis=0, out=pooled[k])
    pooled /= (hi - lo)[:, None]
    return Bag(bag_id=bag.bag_id, label=bag.label, matrix=pooled)


def pool_bags(bags: Iterable[Bag], segments: int | None) -> list[Bag]:
    """``bags`` as a list, each pooled to ``segments`` segments unless that is None."""
    if segments is None:
        return list(bags)
    return [pool_segments(b, segments) for b in bags]


def infer_bag_label(instance_labels: list[int]) -> int:
    """+1 if any instance label is +1, -1 only when all are -1."""
    if not instance_labels:
        raise ValidationError("cannot infer a bag label from an empty list")
    for y in instance_labels:
        if y not in (1, -1):
            raise ValidationError(f"instance labels must be +1 or -1, got {y!r}")
    return 1 if any(y == 1 for y in instance_labels) else -1


def load_dataset(manifest_path: str | Path, split: str | None = None) -> Dataset:
    """Load the bags a manifest references, optionally filtered by split.

    Feature paths resolve relative to the manifest's directory. All files
    must share one feature dimensionality. The files are read into one
    read-only float32 array (``feature_store.read_split``); each bag's
    matrix is a view of its file's rows in it.
    """
    return dataset_of(manifest_path, read_manifest(manifest_path), split)


def dataset_of(manifest_path: str | Path, entries: list[ManifestEntry],
               split: str | None = None) -> Dataset:
    """``load_dataset`` of the manifest whose entries are already read, so a
    caller that loads several splits parses it once."""
    manifest_path = Path(manifest_path)
    if split is not None:
        entries = [e for e in entries if e.split == split]
    if not entries:
        raise ValidationError(
            f"{manifest_path}: no bags found" + (f" for split {split!r}" if split else "")
        )
    # "" for a bare name, so a file is named as ``manifest_path.parent / e.path`` names it
    base = os.path.dirname(manifest_path)
    values, spans = read_split([os.path.join(base, e.path) for e in entries])
    bags = tuple(Bag(bag_id=e.bag_id, label=e.label, matrix=values[a:b])
                 for e, (a, b) in zip(entries, spans))
    return Dataset(bags=bags, dim=values.shape[1])
