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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z):
    # subgradient at 0 fixed to 0
    return (z > 0.0).astype(np.float64)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


def _tanh_grad(z):
    return 1.0 - np.tanh(z) ** 2


def _identity(z):
    return z


def _identity_grad(z):
    return np.ones_like(z)


ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "tanh": (np.tanh, _tanh_grad),
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


class ScoringModel:
    """Dense scorer parameters. Weight ``l`` has shape (dims[l+1], dims[l])."""

    def __init__(self, config: ScorerConfig, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.config = config
        dims = config.layer_dims
        if len(weights) != config.num_layers or len(biases) != config.num_layers:
            raise ShapeError("parameter list length does not match layer_dims")
        self.weights = []
        self.biases = []
        for l, (w, b) in enumerate(zip(weights, biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (dims[l + 1], dims[l]):
                raise ShapeError(
                    f"weight {l} has shape {w.shape}, expected {(dims[l + 1], dims[l])}"
                )
            if b.shape != (dims[l + 1],):
                raise ShapeError(f"bias {l} has shape {b.shape}, expected {(dims[l + 1],)}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {l} parameters contain non-finite values")
            self.weights.append(w)
            self.biases.append(b)

    def param_list(self) -> list[np.ndarray]:
        """Flat parameter order [W0, b0, W1, b1, ...], shared with optimizers."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def weight_sq_norm(self) -> float:
        """Sum of squared weight entries, biases excluded."""
        return float(sum(np.sum(w * w) for w in self.weights))

    def copy(self) -> "ScoringModel":
        return ScoringModel(
            self.config, [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

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
    weights = []
    biases = []
    dims = config.layer_dims
    for l in range(config.num_layers):
        fan_in, fan_out = dims[l], dims[l + 1]
        weights.append(rng.normal(0.0, glorot_std(fan_in, fan_out), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ScoringModel(config, weights, biases)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, for a batch of input rows."""

    layer_inputs: list[np.ndarray]  # input to each layer, post-dropout where applied
    pre_activations: list[np.ndarray]
    dropout_mask: np.ndarray | None  # scaled mask (0 or 1/(1-rate)) or None

    def select(self, rows: np.ndarray) -> "ForwardTrace":
        """The trace of the given rows (an index array), for backpropagating through them."""
        return ForwardTrace(
            layer_inputs=[a[rows] for a in self.layer_inputs],
            pre_activations=[z[rows] for z in self.pre_activations],
            dropout_mask=None if self.dropout_mask is None else self.dropout_mask[rows],
        )


def forward_batch(
    model: ScoringModel,
    x: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Score a batch of feature rows; returns (scores, trace).

    Train mode draws one dropout mask per row from ``rng``; eval mode is a
    pure function of (model, x).
    """
    cfg = model.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"input has shape {x.shape}, expected (n, {cfg.input_dim})")
    hidden_f, _ = ACTIVATIONS[cfg.hidden_activation]
    out_f, _ = ACTIVATIONS[cfg.output_activation]

    use_dropout = train and cfg.dropout_rate > 0.0 and cfg.num_layers > 1
    if use_dropout and rng is None:
        raise ConfigError("train-mode scoring with dropout requires an rng")

    layer_inputs = [x]
    pre_activations = []
    mask = None
    act = x
    for l in range(cfg.num_layers):
        z = act @ model.weights[l].T + model.biases[l]
        pre_activations.append(z)
        if l == cfg.num_layers - 1:
            act = out_f(z)
        else:
            act = hidden_f(z)
            if use_dropout and l == _DROPOUT_LAYER:
                keep = rng.random(z.shape) >= cfg.dropout_rate
                mask = keep.astype(np.float64) / (1.0 - cfg.dropout_rate)
                act = act * mask
            layer_inputs.append(act)

    return act[:, 0], ForwardTrace(layer_inputs, pre_activations, mask)


def score(
    model: ScoringModel,
    x: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, ForwardTrace]:
    """Score one feature vector; returns (score, trace)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d feature vector, got shape {x.shape}")
    scores, trace = forward_batch(model, x[None, :], train=train, rng=rng)
    return float(scores[0]), trace


@dataclass
class Gradients:
    """Per-parameter gradients, shaped exactly like the model parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    wrt_input: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, model: ScoringModel) -> "Gradients":
        return cls(
            weights=[np.zeros_like(w) for w in model.weights],
            biases=[np.zeros_like(b) for b in model.biases],
        )

    def param_list(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def add(self, other: "Gradients") -> None:
        for mine, theirs in zip(self.weights, other.weights):
            mine += theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine += theirs


def backward(model: ScoringModel, trace: ForwardTrace, upstream) -> Gradients:
    """Exact gradients of ``sum(upstream * score)`` for every parameter.

    ``upstream`` is a scalar (or per-row vector) multiplier on each row's
    score; the returned gradients also include the gradient with respect to
    the input rows. The dropout mask recorded in the trace is reused.
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

    grads = Gradients.zeros_like(model)
    dz = up[:, None] * out_g(trace.pre_activations[-1])
    da = None
    for l in range(num_layers - 1, -1, -1):
        grads.weights[l][...] = dz.T @ trace.layer_inputs[l]
        grads.biases[l][...] = dz.sum(axis=0)
        da = dz @ model.weights[l]
        if l - 1 == _DROPOUT_LAYER and trace.dropout_mask is not None:
            da = da * trace.dropout_mask
        if l > 0:
            dz = da * hidden_g(trace.pre_activations[l - 1])
    grads.wrt_input = da
    return grads
