"""Fully-connected scorer: forward pass, inverted dropout, exact backprop.

The scorer maps one instance's feature vector to a scalar score through a
stack of dense layers (default widths D -> 512 -> 32 -> 1), ReLU on hidden
layers and a sigmoid (or tanh) on the output. Dropout is applied after the
first hidden layer only, in inverted form: kept units are scaled by
1/(1-rate) at train time so evaluation needs no rescaling. All math runs in
float64 so the analytic gradients can be checked tightly against finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError


def _relu(z, out):
    return np.maximum(z, 0.0, out=out)


def _relu_grad(z, out):
    # subgradient at 0 fixed to 0
    return np.greater(z, 0.0, out=out)


def _sigmoid(z, out):
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(z, out):
    s = _sigmoid(z, out)
    return np.multiply(s, 1.0 - s, out=out)


def _tanh(z, out):
    return np.tanh(z, out=out)


def _tanh_grad(z, out):
    t2 = np.square(np.tanh(z, out=out), out=out)
    return np.subtract(1.0, t2, out=out)


def _identity(z, out):
    np.copyto(out, z)
    return out


def _identity_grad(z, out):
    out.fill(1.0)
    return out


# each function writes f(z) into ``out``, an array of z's shape, and returns it;
# ``out`` may be z itself
ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "tanh": (_tanh, _tanh_grad),
    "identity": (_identity, _identity_grad),
}

OUTPUT_ACTIVATIONS = ("sigmoid", "tanh", "identity")

# index of the hidden activation the dropout mask applies to
_DROPOUT_LAYER = 0


def default_layer_dims(input_dim: int) -> tuple[int, ...]:
    return (input_dim, 512, 32, 1)


def glorot_std(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(2.0 / (fan_in + fan_out)))


@dataclass(frozen=True)
class ScorerConfig:
    layer_dims: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    dropout_rate: float = 0.6

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"layer_dims must be >= 2 positive sizes, got {dims}")
        if dims[-1] != 1:
            raise ConfigError("the output layer must have exactly one unit")
        if self.hidden_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


class Workspace:
    """Owned float64 scratch arrays, keyed by name, reused from call to call.

    ``get(name, shape)`` returns the first ``prod(shape)`` entries of the
    named buffer as a C-contiguous array of that shape. A buffer that is too
    small is replaced by one of at least twice its size, so calls of rising
    shapes (slices of bags of mixed length) reallocate a logarithmic number
    of times. A caller that keeps one workspace across calls of one shape
    allocates nothing after the first; what a call wrote into it is valid
    only until the next call that uses the same workspace. The buffers are
    sized by the rows of a batch, plus one block of the L2 gradient's
    scratch; none is sized by a weight matrix, so the arrays of W0's size
    in a training run are ``theta``, the gradient and the optimizer slots.
    Eval scoring (``score_rows``) keeps no trace: it holds one buffer per
    layer, the one ``forward_batch`` keeps that layer's pre-activations in.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            grown = size if buf is None else max(size, 2 * buf.size)
            buf = self._buffers[name] = np.empty(grown)
        return buf[:size].reshape(shape)


class FlatParams:
    """One flat float64 ``vector`` and views into it: the parameter layout.

    The vector holds W0, b0, W1, b1, ... back to back, each row-major;
    ``weights[l]`` (shape (dims[l+1], dims[l])) and ``biases[l]`` are views.
    No other code knows this layout. ``vector=None`` makes a zero vector.
    """

    def __init__(self, layer_dims: tuple[int, ...], vector: np.ndarray | None = None):
        pairs = list(zip(layer_dims, layer_dims[1:]))
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs)
        self.vector = np.zeros(size) if vector is None else vector
        if self.vector.shape != (size,):
            raise ShapeError(f"parameter vector has shape {self.vector.shape}, expected ({size},)")
        self.weights, self.biases, start = [], [], 0
        for fan_in, fan_out in pairs:
            stop = start + fan_out * fan_in
            self.weights.append(self.vector[start:stop].reshape(fan_out, fan_in))
            self.biases.append(self.vector[stop : stop + fan_out])
            start = stop + fan_out

    def param_list(self) -> list[np.ndarray]:
        """The views in flat-vector order [W0, b0, W1, b1, ...]."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]


class ScoringModel(FlatParams):
    """Dense scorer parameters in one flat ``theta``; the given weights and
    biases are copied in."""

    def __init__(self, config: ScorerConfig, weights: list, biases: list):
        self.config = config
        super().__init__(config.layer_dims)
        for kind, given, views in (("weight", weights, self.weights), ("bias", biases, self.biases)):
            if len(given) != config.num_layers:
                raise ShapeError(f"{kind} list length does not match layer_dims")
            for l, (arr, view) in enumerate(zip(given, views)):
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != view.shape:
                    raise ShapeError(f"{kind} {l} has shape {arr.shape}, expected {view.shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValidationError(f"{kind} {l} contains non-finite values")
                view[...] = arr

    @property
    def theta(self) -> np.ndarray:
        """The flat parameter vector the optimizers update in place."""
        return self.vector

    def weight_sq_norm(self) -> float:
        """Sum of squared weight entries, biases excluded.

        One ``einsum`` pass per weight matrix, with no scratch array. Not
        ``np.dot``/``np.vdot``: BLAS splits that sum across threads, so its
        last bits would depend on the thread count.
        """
        return float(sum(np.einsum("ij,ij->", w, w) for w in self.weights))

    @property
    def default_threshold(self) -> float:
        return 0.0 if self.config.output_activation == "tanh" else 0.5


def init_glorot_normal(
    layer_dims: tuple[int, ...] | list[int],
    seed: int,
    *,
    hidden_activation: str = "relu",
    output_activation: str = "sigmoid",
    dropout_rate: float = 0.6,
) -> ScoringModel:
    """Zero-mean Gaussian weights with std sqrt(2/(fan_in+fan_out)), zero biases."""
    config = ScorerConfig(
        layer_dims=tuple(layer_dims),
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        dropout_rate=dropout_rate,
    )
    rng = np.random.default_rng(seed)
    pairs = list(zip(config.layer_dims, config.layer_dims[1:]))
    weights = [rng.normal(0.0, glorot_std(fan_in, fan_out), size=(fan_out, fan_in))
               for fan_in, fan_out in pairs]
    return ScoringModel(config, weights, [np.zeros(fan_out) for _, fan_out in pairs])


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, for a batch of input rows."""

    layer_inputs: list[np.ndarray]  # input to each layer, post-dropout where applied
    pre_activations: list[np.ndarray]
    dropout_mask: np.ndarray | None  # scaled mask (0 or 1/(1-rate)) or None

    def select(self, rows: np.ndarray, work: Workspace | None = None) -> "ForwardTrace":
        """The trace of the given rows (indices in ``range(n)``), for backpropagating
        through them. With ``work``, its arrays are views into the workspace, valid
        until the next call on it; ``work=None`` gives fresh arrays."""
        work = Workspace() if work is None else work
        rows = np.asarray(rows)
        n = self.layer_inputs[0].shape[0]
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"trace rows must lie in [0, {n})")

        def take(name, a):
            # mode="clip" writes straight into ``out``; "raise" would copy through a temporary
            out = work.get(name, (rows.size, *a.shape[1:]))
            return np.take(a, rows, axis=0, out=out, mode="clip")

        return ForwardTrace(
            layer_inputs=[take(f"sel.in{l}", a) for l, a in enumerate(self.layer_inputs)],
            pre_activations=[take(f"sel.pre{l}", z) for l, z in enumerate(self.pre_activations)],
            dropout_mask=None if self.dropout_mask is None
            else take("sel.mask", self.dropout_mask),
        )


def _input_rows(model: ScoringModel, x) -> np.ndarray:
    """``x`` as float64 rows of the model's input width (a float32 array casts exactly)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ShapeError(f"input has shape {x.shape}, expected (n, {model.config.input_dim})")
    return x


def score_rows(model: ScoringModel, x: np.ndarray, *, work: Workspace | None = None) -> np.ndarray:
    """Eval-mode scores of a batch of feature rows, and nothing else.

    The same products and sums, in the same order and shapes, as
    ``forward_batch(model, x)``, so the scores are its bits. But no trace is
    kept: each layer's activation overwrites its pre-activation, so a call
    holds one buffer per layer (``z0``, ``z1``, ...). With ``work``, the
    scores are a view into the workspace, valid until the next call on it;
    ``work=None`` gives fresh arrays.
    """
    cfg = model.config
    x = _input_rows(model, x)
    hidden_f, _ = ACTIVATIONS[cfg.hidden_activation]
    out_f, _ = ACTIVATIONS[cfg.output_activation]
    work = Workspace() if work is None else work
    act = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(act, w.T, out=work.get(f"z{l}", (x.shape[0], w.shape[0])))
        z += b
        act = (out_f if l == cfg.num_layers - 1 else hidden_f)(z, z)
    return act[:, 0]


def forward_batch(
    model: ScoringModel,
    x: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Score a batch of feature rows; returns (scores, trace).

    Train mode draws one dropout mask per row from ``rng``; eval mode is a
    pure function of (model, x). With ``work``, the scores and every array
    of the trace except the input ``x`` are views into the workspace: the
    next call on the same workspace overwrites them. ``work=None`` gives
    fresh arrays that no other call touches.
    """
    cfg = model.config
    x = _input_rows(model, x)
    hidden_f, _ = ACTIVATIONS[cfg.hidden_activation]
    out_f, _ = ACTIVATIONS[cfg.output_activation]

    use_dropout = train and cfg.dropout_rate > 0.0 and cfg.num_layers > 1
    if use_dropout and rng is None:
        raise ConfigError("train-mode scoring with dropout requires an rng")

    work = Workspace() if work is None else work
    layer_inputs = [x]
    pre_activations = []
    mask = None
    act = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(act, w.T, out=work.get(f"z{l}", (x.shape[0], w.shape[0])))
        z += b
        pre_activations.append(z)
        a = work.get(f"a{l}", z.shape)
        if l == cfg.num_layers - 1:
            act = out_f(z, a)
        else:
            act = hidden_f(z, a)
            if use_dropout and l == _DROPOUT_LAYER:
                # keep where the draw is >= rate; kept units scale by 1/(1-rate)
                mask = rng.random(out=work.get("mask", z.shape))
                np.greater_equal(mask, cfg.dropout_rate, out=mask)
                mask /= 1.0 - cfg.dropout_rate
                act *= mask
            layer_inputs.append(act)

    return act[:, 0], ForwardTrace(layer_inputs, pre_activations, mask)


class Gradients(FlatParams):
    """Gradients in the model's layout (``vector``, ``weights``, ``biases``),
    plus the gradient with respect to the input rows."""

    wrt_input: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, model: ScoringModel) -> "Gradients":
        return cls(model.config.layer_dims)

    def add(self, other: "Gradients") -> None:
        self.vector += other.vector


def backward(
    model: ScoringModel,
    trace: ForwardTrace,
    upstream,
    *,
    out: np.ndarray | None = None,
    work: Workspace | None = None,
) -> Gradients:
    """Exact gradients of ``sum(upstream * score)`` for every parameter.

    ``upstream`` is a scalar (or per-row vector) multiplier on each row's
    score; the returned gradients also include the gradient with respect to
    the input rows. The dropout mask recorded in the trace is reused.
    ``out`` is the flat gradient vector to fill, every entry written; the
    returned ``Gradients`` are views into it. With ``work``, ``wrt_input``
    is a view into the workspace, valid until the next call on it.
    ``out=None`` and ``work=None`` give fresh arrays.
    """
    cfg = model.config
    num_layers = cfg.num_layers
    if len(trace.pre_activations) != num_layers or len(trace.layer_inputs) != num_layers:
        raise ShapeError("trace does not match the model's layer structure")
    if trace.layer_inputs[0].shape[1] != cfg.input_dim:
        raise ShapeError("trace input width does not match the model")

    _, hidden_g = ACTIVATIONS[cfg.hidden_activation]
    _, out_g = ACTIVATIONS[cfg.output_activation]

    n = trace.layer_inputs[0].shape[0]
    up = np.asarray(upstream, dtype=np.float64)
    if up.ndim == 0:
        up = np.full(n, float(up))
    if up.shape != (n,):
        raise ShapeError(f"upstream has shape {up.shape}, expected ({n},)")

    work = Workspace() if work is None else work
    grads = Gradients.zeros_like(model) if out is None else Gradients(cfg.layer_dims, out)
    z = trace.pre_activations[-1]
    dz = np.multiply(up[:, None], out_g(z, work.get("act_grad", z.shape)),
                     out=work.get("dz", z.shape))
    da = None
    for l in range(num_layers - 1, -1, -1):
        np.matmul(dz.T, trace.layer_inputs[l], out=grads.weights[l])
        np.sum(dz, axis=0, out=grads.biases[l])
        # one buffer per layer: dz of layer l-1 overwrites da in place
        da = np.matmul(dz, model.weights[l], out=work.get(f"da{l}", (n, cfg.layer_dims[l])))
        if l - 1 == _DROPOUT_LAYER and trace.dropout_mask is not None:
            da *= trace.dropout_mask
        if l > 0:
            z = trace.pre_activations[l - 1]
            dz = np.multiply(da, hidden_g(z, work.get("act_grad", z.shape)), out=da)
    grads.wrt_input = da
    return grads
