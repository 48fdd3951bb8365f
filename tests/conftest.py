"""Shared test helpers: finite-difference oracles and tiny model builders."""

from __future__ import annotations

import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from milvid.bag_model import Bag
from milvid.scorer import ScorerConfig, ScoringModel


def numerical_gradient(f, arrays, eps=1e-5):
    """Central finite differences of f() w.r.t. every entry of the arrays.

    Mutates each array in place and restores it, so f can close over them.
    """
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            fp = f()
            arr[idx] = orig - eps
            fm = f()
            arr[idx] = orig
            g[idx] = (fp - fm) / (2.0 * eps)
        out.append(g)
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# numpy >= 2.3 allocates one iterator buffer of np.getbufsize() entries for a
# ufunc call that broadcasts (the bias add ``z += b``), however small the arrays
UFUNC_BUFFER_BYTES = 8 * np.getbufsize()


def open_in_pieces(monkeypatch, module) -> list[int]:
    """Make ``module``'s ``open`` return unbuffered files whose reads into a
    buffer hand out at most 4096 bytes each, as a raw read may; returns the
    list of what each such read gave."""
    reads = []

    class Pieces(io.FileIO):
        def readinto(self, buf):
            reads.append(super().readinto(memoryview(buf).cast("B")[:4096]))
            return reads[-1]

    monkeypatch.setattr(module, "open", lambda src, mode, buffering: Pieces(src, mode),
                        raising=False)
    return reads


def traced_peak(f):
    """Peak bytes that f() holds at once in allocations it makes, by tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def max_rel_err(analytic, numeric):
    """Worst |analytic - numeric| / max(1, |numeric|) over matching arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(1.0, np.abs(n))
        worst = max(worst, float(rel.max()))
    return worst


def chain_model(weights, output_activation="identity"):
    """Bias-free dense chain with identity hidden activations, no dropout."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    dims = (weights[0].shape[1], *[w.shape[0] for w in weights])
    cfg = ScorerConfig(
        layer_dims=dims,
        hidden_activation="identity",
        output_activation=output_activation,
        dropout_rate=0.0,
    )
    return ScoringModel(cfg, weights, [np.zeros(w.shape[0]) for w in weights])


def value_scorer():
    """1-d identity scorer: score(x) = x[0]. Handy for exact hinge tests."""
    return chain_model([np.array([[1.0]])])


def make_bag(rows, label, bag_id="bag"):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    return Bag(bag_id=bag_id, label=label, matrix=rows)


def random_bags(rng, n_bags, n_instances, dim):
    bags = []
    for b in range(n_bags):
        label = 1 if b % 2 == 0 else -1
        bags.append(make_bag(rng.normal(size=(n_instances, dim)), label, f"bag-{b}"))
    return bags


def mvck_frame(header: bytes, payload: bytes = b"") -> bytes:
    """An MVCK container with a valid prefix and checksum around arbitrary header bytes."""
    body = struct.pack("<4sII", b"MVCK", 1, len(header)) + header + payload
    return body + struct.pack("<I", zlib.crc32(body))


# any value json.dumps can write, for parser property tests
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
