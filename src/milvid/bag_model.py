"""Bags of labeled instances and temporal segment pooling.

An instance is one clip's feature vector: a 1-d float64 array. A bag is one
video's instances in temporal order, so an instance's position in the bag
is its temporal index, plus a single bag-level label. A bag is negative
exactly when all of its instances are negative, so bag labels follow the
existential rule implemented by :func:`infer_bag_label`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .feature_store import FeatureMatrix, read_features, read_manifest


@dataclass(frozen=True)
class Bag:
    bag_id: str
    label: int
    instances: tuple[np.ndarray, ...]  # 1-d float64 rows, temporal order
    _matrix_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.label not in (1, -1):
            raise ValidationError(f"bag label must be +1 or -1, got {self.label!r}")
        if len(self.instances) < 1:
            raise ValidationError(f"bag {self.bag_id!r} has no instances")

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def dim(self) -> int:
        return self.instances[0].shape[0]

    def feature_matrix(self) -> np.ndarray:
        """All instances stacked row-wise, float64, temporal order."""
        if not self._matrix_cache:
            self._matrix_cache.append(np.stack(self.instances, dtype=np.float64))
        return self._matrix_cache[0]


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


def assemble_bag(m: FeatureMatrix, label: int, bag_id: str) -> Bag:
    """Turn a feature matrix into a bag, one instance per row."""
    instances = tuple(m.values[i].astype(np.float64) for i in range(m.count))
    return Bag(bag_id=bag_id, label=label, instances=instances)


def pool_segments(bag: Bag, num_segments: int) -> Bag:
    """Pool a bag's instances into exactly ``num_segments`` mean segments.

    Segment ``j`` averages the source rows with indices in
    ``[floor(j*n/S), floor((j+1)*n/S))``. When S equals n, each segment is
    one row, so the bag itself is returned, uncopied. When S exceeds n, that
    range holds at most one row, so segment ``j`` repeats row
    ``floor(j*n/S)`` and nothing is averaged. Label and bag id carry over.
    """
    if num_segments < 1:
        raise ValidationError("segment count must be >= 1")
    n = len(bag)
    if n == num_segments:
        return bag
    rows = bag.feature_matrix()
    j = np.arange(num_segments)
    lo = j * n // num_segments
    pooled = rows[lo]
    if n > num_segments:
        hi = (j + 1) * n // num_segments  # n / S > 1, so every range holds a row
        # row by row, in row order, as ``.mean(axis=0)`` adds them
        for t in range(1, int((hi - lo).max())):
            more = lo + t < hi
            pooled[more] += rows[lo[more] + t]
        pooled /= (hi - lo)[:, None]
    # the pooled array is the new bag's matrix: its instances are views of it
    return Bag(bag_id=bag.bag_id, label=bag.label, instances=tuple(pooled),
               _matrix_cache=[pooled])


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
    must share one feature dimensionality.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    entries = read_manifest(manifest_path)
    if split is not None:
        entries = [e for e in entries if e.split == split]
    bags = []
    dim = None
    for e in entries:
        m = read_features(base / e.path)
        if dim is None:
            dim = m.dim
        elif m.dim != dim:
            raise ValidationError(
                f"{e.path}: dim {m.dim} differs from manifest-wide dim {dim}"
            )
        bags.append(assemble_bag(m, e.label, e.bag_id))
    if dim is None:
        raise ValidationError(
            f"{manifest_path}: no bags found" + (f" for split {split!r}" if split else "")
        )
    return Dataset(bags=tuple(bags), dim=dim)
