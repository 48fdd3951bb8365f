"""Bags of labeled instances and temporal segment pooling.

An instance is one clip's feature vector; a bag is one video's ordered
instances plus a single bag-level label. A bag is negative exactly when all
of its instances are negative, so bag labels follow the existential rule
implemented by :func:`infer_bag_label`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .feature_store import FeatureMatrix, read_features, read_manifest


@dataclass(frozen=True)
class Instance:
    features: np.ndarray  # 1-d float64
    temporal_index: int


@dataclass(frozen=True)
class Bag:
    bag_id: str
    label: int
    instances: tuple[Instance, ...]
    _matrix_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.label not in (1, -1):
            raise ValidationError(f"bag label must be +1 or -1, got {self.label!r}")
        if len(self.instances) < 1:
            raise ValidationError(f"bag {self.bag_id!r} has no instances")
        order = [inst.temporal_index for inst in self.instances]
        if order != sorted(order) or len(set(order)) != len(order):
            raise ValidationError(f"bag {self.bag_id!r}: temporal indices must be unique ascending")

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def dim(self) -> int:
        return self.instances[0].features.shape[0]

    def feature_matrix(self) -> np.ndarray:
        """All instance features stacked row-wise, float64, temporal order."""
        if not self._matrix_cache:
            self._matrix_cache.append(
                np.stack([inst.features for inst in self.instances], dtype=np.float64)
            )
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
    if m.count < 1:
        raise ValidationError(f"cannot assemble bag {bag_id!r} from an empty feature matrix")
    instances = tuple(
        Instance(features=m.values[i].astype(np.float64), temporal_index=i)
        for i in range(m.count)
    )
    return Bag(bag_id=bag_id, label=label, instances=instances)


def pool_segments(bag: Bag, num_segments: int) -> Bag:
    """Pool a bag's instances into exactly ``num_segments`` mean segments.

    Segment ``j`` averages the source rows with indices in
    ``[floor(j*n/S), floor((j+1)*n/S))``; when that range is empty (n < S)
    it copies row ``min(floor(j*n/S), n-1)``. Label and bag id carry over.
    """
    if num_segments < 1:
        raise ValidationError("segment count must be >= 1")
    n = len(bag)
    rows = bag.feature_matrix()
    pooled = np.empty((num_segments, rows.shape[1]), dtype=np.float64)
    for j in range(num_segments):
        lo = (j * n) // num_segments
        hi = ((j + 1) * n) // num_segments
        if hi > lo:
            pooled[j] = rows[lo:hi].mean(axis=0)
        else:
            pooled[j] = rows[min(lo, n - 1)]
    instances = tuple(Instance(features=pooled[j], temporal_index=j) for j in range(num_segments))
    return Bag(bag_id=bag.bag_id, label=bag.label, instances=instances)


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
