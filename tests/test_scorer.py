import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.checkpoint import deserialize_model, serialize_model
from milvid.errors import ConfigError, CorruptionError, FormatError, ShapeError
from milvid.scorer import (
    ACTIVATIONS,
    OUTPUT_ACTIVATIONS,
    Gradients,
    ScorerConfig,
    ScoringModel,
    Workspace,
    backward,
    forward_batch,
    glorot_std,
    init_glorot_normal,
    score_rows,
)

from conftest import chain_model, max_rel_err, numerical_gradient, same_bits


def zero_model(output_activation, dims=(4, 3, 1), dropout_rate=0.6):
    cfg = ScorerConfig(dims, output_activation=output_activation, dropout_rate=dropout_rate)
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return ScoringModel(cfg, weights, biases)


def test_glorot_std_formula():
    assert glorot_std(4096, 512) == pytest.approx(np.sqrt(2.0 / 4608), rel=1e-15)
    assert glorot_std(4096, 512) == pytest.approx(0.020833, rel=1e-4)
    assert glorot_std(1, 1) == 1.0


def test_glorot_sample_std_within_five_percent():
    model = init_glorot_normal((4096, 512, 32, 1), seed=0)
    target = glorot_std(4096, 512)
    assert model.weights[0].std() == pytest.approx(target, rel=0.05)
    assert abs(model.weights[0].mean()) < 1e-3
    for b in model.biases:
        assert np.all(b == 0.0)


def test_init_is_deterministic():
    a = init_glorot_normal((8, 4, 1), seed=42)
    b = init_glorot_normal((8, 4, 1), seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_zero_model_outputs_activation_midpoint(rng):
    x = rng.normal(size=4)
    assert forward_batch(zero_model("sigmoid"), x[None])[0][0] == 0.5
    assert forward_batch(zero_model("tanh"), x[None])[0][0] == 0.0


def test_eval_mode_ignores_dropout(rng):
    with_drop = init_glorot_normal((6, 5, 1), seed=1, dropout_rate=0.6)
    without = ScoringModel(
        ScorerConfig((6, 5, 1), dropout_rate=0.0),
        [w.copy() for w in with_drop.weights],
        [b.copy() for b in with_drop.biases],
    )
    x = rng.normal(size=6)
    assert forward_batch(with_drop, x[None])[0][0] == forward_batch(without, x[None])[0][0]


def test_train_mode_with_dropout_requires_rng(rng):
    model = init_glorot_normal((4, 3, 1), seed=0, dropout_rate=0.5)
    with pytest.raises(ConfigError):
        forward_batch(model, rng.normal(size=(1, 4)), train=True)


def test_backward_hand_checked_linear_chain():
    model = chain_model([np.array([[2.0]]), np.array([[3.0]])])
    (s,), trace = forward_batch(model, np.array([[5.0]]))
    assert s == 30.0
    grads = backward(model, trace, 1.0)
    assert grads.weights[0][0, 0] == 15.0  # d(w2*w1*x)/dw1 = w2*x
    assert grads.weights[1][0, 0] == 10.0
    assert grads.wrt_input[0, 0] == 6.0


@pytest.mark.parametrize("output_activation", ["sigmoid", "tanh"])
def test_gradients_match_finite_differences(rng, output_activation):
    model = init_glorot_normal((8, 4, 2, 1), seed=5, output_activation=output_activation)
    x = rng.normal(size=8)
    _, trace = forward_batch(model, x[None])
    grads = backward(model, trace, 1.0)

    f = lambda: forward_batch(model, x[None])[0][0]
    numeric = numerical_gradient(f, model.param_list())
    assert max_rel_err(grads.param_list(), numeric) < 1e-4
    numeric_x = numerical_gradient(f, [x])[0]
    assert max_rel_err([grads.wrt_input[0]], [numeric_x]) < 1e-4


def test_zero_upstream_zeroes_all_gradients(rng):
    model = init_glorot_normal((6, 4, 1), seed=2)
    _, trace = forward_batch(model, rng.normal(size=(1, 6)))
    grads = backward(model, trace, 0.0)
    for g in grads.param_list():
        assert np.all(g == 0.0)
    assert np.all(grads.wrt_input == 0.0)


def test_backward_rejects_stale_trace(rng):
    small = init_glorot_normal((4, 2, 1), seed=0)
    big = init_glorot_normal((5, 2, 1), seed=0)
    _, trace = forward_batch(small, rng.normal(size=(1, 4)))
    with pytest.raises(ShapeError):
        backward(big, trace, 1.0)


def test_score_rejects_wrong_dimension(rng):
    model = init_glorot_normal((4, 2, 1), seed=0)
    with pytest.raises(ShapeError):
        forward_batch(model, rng.normal(size=(1, 5)))
    with pytest.raises(ShapeError):
        forward_batch(model, rng.normal(size=4))  # one row must be passed as (1, 4)


def test_serialize_round_trip_is_bitwise():
    model = init_glorot_normal((8, 4, 2, 1), seed=3, output_activation="tanh")
    blob = serialize_model(model)
    assert serialize_model(deserialize_model(blob)) == blob
    restored = deserialize_model(blob)
    assert restored.config == model.config
    for a, b in zip(restored.param_list(), model.param_list()):
        assert np.array_equal(a, b)


def test_corrupted_byte_fails_checksum():
    blob = bytearray(serialize_model(init_glorot_normal((6, 3, 1), seed=1)))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CorruptionError, match="checksum"):
        deserialize_model(bytes(blob))


def test_unsupported_version_rejected():
    import struct
    import zlib

    blob = serialize_model(init_glorot_normal((4, 2, 1), seed=0))
    body = bytearray(blob[:-4])
    body[4:8] = struct.pack("<I", 99)
    tampered = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
    with pytest.raises(FormatError, match="version"):
        deserialize_model(tampered)


def test_deserialized_model_scores_identically(rng):
    model = init_glorot_normal((16, 8, 1), seed=7)
    restored = deserialize_model(serialize_model(model))
    for _ in range(100):
        x = rng.normal(size=16)
        assert forward_batch(model, x[None])[0][0] == forward_batch(restored, x[None])[0][0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_output_ranges_on_standardized_inputs(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=5)
    sig = init_glorot_normal((5, 4, 1), seed=seed, output_activation="sigmoid")
    tanh = init_glorot_normal((5, 4, 1), seed=seed, output_activation="tanh")
    s = forward_batch(sig, x[None])[0][0]
    t = forward_batch(tanh, x[None])[0][0]
    assert 0.0 < s < 1.0
    assert -1.0 < t < 1.0


def test_train_mode_mean_matches_eval_on_linear_net(rng):
    # with identity activations, dropout is unbiased: E[train score] = eval score
    weights = [rng.normal(size=(6, 8)), rng.normal(size=(1, 6))]
    model = chain_model(weights)
    model = ScoringModel(
        ScorerConfig(
            model.config.layer_dims,
            hidden_activation="identity",
            output_activation="identity",
            dropout_rate=0.4,
        ),
        model.weights,
        model.biases,
    )
    x = rng.normal(size=8)
    eval_score = forward_batch(model, x[None])[0][0]
    mask_rng = np.random.default_rng(777)
    draws = np.array([forward_batch(model, x[None], train=True, rng=mask_rng)[0][0]
                      for _ in range(10_000)])
    sem = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - eval_score) < 4.0 * sem


def test_gradients_zeros_like_matches_shapes():
    model = init_glorot_normal((5, 3, 1), seed=0)
    z = Gradients.zeros_like(model)
    for g, p in zip(z.param_list(), model.param_list()):
        assert g.shape == p.shape and np.all(g == 0.0)


def test_forward_batch_matches_single_scores(rng):
    model = init_glorot_normal((4, 3, 1), seed=9)
    xs = rng.normal(size=(6, 4))
    batch_scores, _ = forward_batch(model, xs)
    for i in range(6):
        assert batch_scores[i] == forward_batch(model, xs[i][None])[0][0]


def test_weights_and_biases_are_views_into_theta_in_layout_order():
    model = init_glorot_normal((5, 3, 2, 1), seed=4)
    dims = model.config.layer_dims
    assert model.theta.shape == (sum(o * (i + 1) for i, o in zip(dims, dims[1:])),)
    params = model.param_list()
    assert [p.shape for p in params] == [(3, 5), (3,), (2, 3), (2,), (1, 2), (1,)]
    assert all(p is w for p, w in zip(params[0::2], model.weights))
    assert all(p is b for p, b in zip(params[1::2], model.biases))
    for p in params:
        assert np.shares_memory(p, model.theta)
    # W0, b0, W1, b1, ... lie back to back, each row-major
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), model.theta)
    model.theta[:] = np.arange(model.theta.size)
    assert model.weights[0][1, 0] == 5.0 and model.biases[0][0] == 15.0
    assert model.weights[1][0, 0] == 18.0 and model.biases[2][0] == 28.0
    grads = Gradients.zeros_like(model)
    assert grads.vector.shape == model.theta.shape and not grads.vector.any()
    for g, p in zip(grads.param_list(), params):
        assert g.shape == p.shape and np.shares_memory(g, grads.vector)


def trace_arrays(scores, trace):
    mask = [] if trace.dropout_mask is None else [trace.dropout_mask]
    return [scores, *trace.layer_inputs, *trace.pre_activations, *mask]


def perturbed_model(rng, hidden_activation, output_activation="sigmoid"):
    model = init_glorot_normal((5, 7, 3, 1), seed=2, hidden_activation=hidden_activation,
                               output_activation=output_activation, dropout_rate=0.5)
    model.theta[:] += rng.normal(scale=0.3, size=model.theta.size)  # nonzero biases
    return model


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("hidden", sorted(ACTIVATIONS))
def test_reused_workspace_gives_the_bits_of_a_fresh_call(rng, hidden, train):
    model = perturbed_model(rng, hidden)
    x, up = rng.normal(size=(9, 5)), rng.normal(size=9)
    work, out = Workspace(), np.full(model.theta.size, np.nan)
    # a larger call first, so every buffer below is a prefix of a bigger one
    big = rng.normal(size=(40, 5))
    _, big_trace = forward_batch(model, big, train, np.random.default_rng(0), work=work)
    backward(model, big_trace, rng.normal(size=40), out=out, work=work)

    fresh = forward_batch(model, x, train, np.random.default_rng(1))
    reused = forward_batch(model, x, train, np.random.default_rng(1), work=work)
    assert (reused[1].dropout_mask is None) == (not train)
    pairs = zip(trace_arrays(*fresh), trace_arrays(*reused), strict=True)
    assert all(same_bits(a, b) for a, b in pairs)
    g_fresh = backward(model, fresh[1], up)
    g_reused = backward(model, reused[1], up, out=out, work=work)
    assert g_reused.vector is out and same_bits(g_reused.vector, g_fresh.vector)
    assert same_bits(g_reused.wrt_input, g_fresh.wrt_input)


@pytest.mark.parametrize("rows", [1, 512])
@pytest.mark.parametrize("output", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("hidden", sorted(ACTIVATIONS))
def test_score_rows_gives_the_bits_of_an_eval_forward_batch(rng, hidden, output, rows):
    model = perturbed_model(rng, hidden, output)
    x = rng.normal(scale=3.0, size=(rows, 5))
    want = forward_batch(model, x)[0]
    assert same_bits(score_rows(model, x), want)
    # on a workspace a larger call used first, as forward_batch's is: only a
    # prefix of each buffer is written, one buffer per layer
    work = Workspace()
    forward_batch(model, rng.normal(size=(600, 5)), work=work)
    assert same_bits(score_rows(model, x, work=work), want)
    fresh = Workspace()
    score_rows(model, x, work=fresh)
    assert sorted(fresh._buffers) == ["z0", "z1", "z2"]
    # float32 rows cast exactly, as forward_batch casts them
    x32 = x.astype(np.float32)
    assert same_bits(score_rows(model, x32), forward_batch(model, x32)[0])


def test_score_rows_rejects_wrong_dimension(rng):
    model = init_glorot_normal((4, 3, 1), seed=0)
    with pytest.raises(ShapeError):
        score_rows(model, rng.normal(size=(2, 5)))
    with pytest.raises(ShapeError):
        score_rows(model, rng.normal(size=4))


def test_traces_alias_only_on_a_shared_workspace(rng):
    model = perturbed_model(rng, "relu")
    x1, x2, up = rng.normal(size=(6, 5)), rng.normal(size=(6, 5)), np.ones(6)
    first = forward_batch(model, x1, True, np.random.default_rng(0))
    kept = [a.copy() for a in trace_arrays(*first)]
    grads = backward(model, first[1], up)
    kept_grads = grads.vector.copy(), grads.wrt_input.copy()
    second = forward_batch(model, x2, True, np.random.default_rng(1))
    backward(model, second[1], up)
    assert all(same_bits(a, b) for a, b in zip(kept, trace_arrays(*first)))
    assert same_bits(kept_grads[0], grads.vector) and same_bits(kept_grads[1], grads.wrt_input)
    assert not any(np.shares_memory(a, b)
                   for a in trace_arrays(*first)[1:] for b in trace_arrays(*second)[1:])
    # on one workspace the second call overwrites the first call's trace
    work = Workspace()
    scores1, trace1 = forward_batch(model, x1, work=work)
    scores2, trace2 = forward_batch(model, x2, work=work)
    assert np.shares_memory(scores1, scores2)
    assert all(np.shares_memory(a, b)
               for a, b in zip(trace1.pre_activations, trace2.pre_activations))


def test_trace_select_rejects_rows_out_of_range(rng):
    _, trace = forward_batch(perturbed_model(rng, "relu"), rng.normal(size=(3, 5)))
    for rows in ([3], [-1]):
        with pytest.raises(IndexError, match="rows"):
            trace.select(np.array(rows))
