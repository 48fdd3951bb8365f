import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milvid.bag_model import Bag
from milvid.errors import ConfigError, ValidationError
from milvid.evaluation import score_bags
from milvid.objective import BagLoss, bag_maxima, bag_score, objective_gradient, segment_argmax
from milvid.optimizers import _BLOCK, OptimizerConfig, make_optimizer
from milvid.scorer import (
    ACTIVATIONS, Gradients, Workspace, backward, forward_batch, init_glorot_normal,
)

from conftest import (
    UFUNC_BUFFER_BYTES,
    chain_model,
    make_bag,
    max_rel_err,
    numerical_gradient,
    random_bags,
    same_bits,
    traced_peak,
    value_scorer,
)


def test_bag_score_picks_max_and_argmax():
    model = value_scorer()
    bag = make_bag([0.2, 0.9, 0.4], 1)
    assert bag_score(model, bag) == (0.9, 1)


def test_bag_score_tie_breaks_to_lowest_index():
    assert bag_score(value_scorer(), make_bag([0.7, 0.7], 1)) == (0.7, 0)


def test_bag_score_singleton():
    assert bag_score(value_scorer(), make_bag([0.3], -1)) == (0.3, 0)


def test_objective_zero_when_margin_satisfied():
    value, losses = objective_gradient(value_scorer(), [make_bag([1.5], 1)], lam=0.0)[:2]
    assert value == 0.0
    assert losses[0].hinge == 0.0 and losses[0].margin == 1.5


def test_objective_negative_bag_arithmetic():
    value, losses = objective_gradient(value_scorer(), [make_bag([0.3], -1)], lam=0.0)[:2]
    assert value == pytest.approx(1.3, abs=1e-15)
    assert losses[0].hinge == pytest.approx(1.3, abs=1e-15)


def test_objective_mixes_hinge_mean_and_l2():
    # two-layer 0.1/0.1 chain: score = 0.01 * x, sum of squared weights = 0.02
    model = chain_model([np.array([[0.1]]), np.array([[0.1]])])
    bags = [make_bag([150.0], 1), make_bag([30.0], -1)]  # hinges 0 and 1.3
    value, losses = objective_gradient(model, bags, lam=1.0)[:2]
    assert [l.hinge for l in losses] == pytest.approx([0.0, 1.3])
    assert value == pytest.approx(1.3 / 2 + 0.5 * 0.02, abs=1e-12)


def test_objective_rejects_negative_lam_and_empty_bags():
    with pytest.raises(ConfigError):
        objective_gradient(value_scorer(), [make_bag([0.0], 1)], lam=-0.1)
    with pytest.raises(ValidationError):
        objective_gradient(value_scorer(), [], lam=0.0)


def test_gradient_zero_when_all_margins_satisfied():
    bags = [make_bag([2.0], 1), make_bag([-3.0], -1)]
    value, _, grads = objective_gradient(value_scorer(), bags, lam=0.0)
    assert value == 0.0
    for g in grads.param_list():
        assert np.all(g == 0.0)


@pytest.mark.parametrize("output_activation", ["sigmoid", "tanh"])
def test_objective_gradient_matches_finite_differences(rng, output_activation):
    model = init_glorot_normal((8, 4, 2, 1), seed=11, output_activation=output_activation)
    bags = random_bags(rng, 4, 5, 8)
    lam = 0.01
    _, _, grads = objective_gradient(model, bags, lam)
    numeric = numerical_gradient(lambda: objective_gradient(model, bags, lam)[0],
                                 model.param_list())
    assert max_rel_err(grads.param_list(), numeric) < 1e-4


def test_non_argmax_instance_has_no_first_order_effect(rng):
    model = init_glorot_normal((6, 4, 1), seed=3)
    bags = random_bags(rng, 2, 5, 6)
    value, losses = objective_gradient(model, bags, lam=0.0)[:2]
    loss = losses[0]
    assert loss.hinge > 0.0  # margin violated, so the hinge is active

    bag = bags[0]
    scores = [bag_score(model, make_bag(bag.feature_matrix()[i : i + 1], bag.label))[0]
              for i in range(len(bag))]
    ranked = sorted(range(len(bag)), key=lambda i: -scores[i])
    assert scores[ranked[0]] > scores[ranked[1]] + 1e-6  # strict max
    victim = ranked[-1]
    assert victim != loss.argmax_index

    direction = rng.normal(size=6)
    eps = 1e-6
    rows = bag.feature_matrix().copy()

    def perturbed(sign):
        shifted = rows.copy()
        shifted[victim] += sign * eps * direction
        new_bags = [make_bag(shifted, bag.label, bag.bag_id), bags[1]]
        return objective_gradient(model, new_bags, lam=0.0)[0]

    derivative = (perturbed(+1) - perturbed(-1)) / (2 * eps)
    assert abs(derivative) < 1e-8


def test_duplicating_argmax_changes_nothing(rng):
    model = init_glorot_normal((5, 3, 1), seed=8)
    rows = rng.normal(size=(4, 5))
    bag = make_bag(rows, 1)
    _, [loss] = objective_gradient(model, [bag], lam=0.0)[:2]
    doubled = np.vstack([rows, rows[loss.argmax_index]])
    bag2 = make_bag(doubled, 1)

    v1, _, g1 = objective_gradient(model, [bag], lam=0.0)
    v2, _, g2 = objective_gradient(model, [bag2], lam=0.0)
    assert v1 == v2
    for a, b in zip(g1.param_list(), g2.param_list()):
        assert np.array_equal(a, b)


def test_objective_bounded_below_by_l2(rng):
    for seed in range(5):
        model = init_glorot_normal((6, 4, 1), seed=seed)
        bags = random_bags(rng, 3, 4, 6)
        lam = 0.05
        value, losses = objective_gradient(model, bags, lam)[:2]
        floor = lam * 0.5 * model.weight_sq_norm()
        assert value >= floor
        if all(l.hinge == 0.0 for l in losses):
            assert value == floor


def test_argmax_unchanged_by_monotone_output(rng):
    weights = [rng.normal(size=(4, 6)), rng.normal(size=(1, 4))]
    linear = chain_model(weights, output_activation="identity")
    squashed = chain_model(weights, output_activation="sigmoid")
    for _ in range(20):
        bag = make_bag(rng.normal(size=(7, 6)), 1)
        assert bag_score(linear, bag)[1] == bag_score(squashed, bag)[1]


def loop_objective_gradient(model, bags, lam, train=False, rng=None):
    """Reference: one forward and one backward pass per bag, gradients summed in bag order."""
    z = len(bags)
    losses, masks, total_hinge = [], [], 0.0
    grads = Gradients.zeros_like(model)
    for bag in bags:
        scores, trace = forward_batch(model, bag.feature_matrix(), train=train, rng=rng)
        masks.append(trace.dropout_mask)
        idx = int(np.argmax(scores))
        s = float(scores[idx])
        margin = bag.label * s
        hinge = max(0.0, 1.0 - margin)
        losses.append(BagLoss(bag.bag_id, s, idx, margin, hinge))
        total_hinge += hinge
        if hinge > 0.0:
            grads.add(backward(model, trace.select(np.array([idx])), -bag.label / z))
    for gw, w in zip(grads.weights, model.weights):
        gw += lam * w
    value = total_hinge / z + lam * 0.5 * model.weight_sq_norm()
    return value, losses, grads, masks


@pytest.mark.parametrize("train", [False, True])
def test_batched_objective_equals_the_per_bag_loop(rng, train):
    model = init_glorot_normal((8, 6, 4, 1), seed=4, output_activation="identity")
    lengths = [3, 1, 5, 2, 4, 1, 6, 2]
    bags = [make_bag(3.0 * rng.normal(size=(n, 8)), 1 if i % 2 else -1, f"b{i}")
            for i, n in enumerate(lengths)]
    lam = 0.01
    ref_value, ref_losses, ref_grads, ref_masks = loop_objective_gradient(
        model, bags, lam, train=train, rng=np.random.default_rng(7) if train else None)
    value, losses, grads = objective_gradient(
        model, bags, lam, train=train, rng=np.random.default_rng(7) if train else None)

    assert {l.hinge > 0.0 for l in ref_losses} == {True, False}  # active and inactive bags
    # a one-row matmul rounds differently from a stacked one, so scores agree to rounding
    assert [(l.bag_id, l.argmax_index) for l in losses] == [
        (l.bag_id, l.argmax_index) for l in ref_losses]
    for field in ("bag_score", "margin", "hinge"):
        got = np.array([getattr(l, field) for l in losses])
        assert np.max(np.abs(got - [getattr(l, field) for l in ref_losses])) <= 1e-15
    assert abs(value - ref_value) <= 1e-15
    for a, b in zip(grads.param_list(), ref_grads.param_list()):
        assert np.max(np.abs(a - b)) <= 1e-15
    _, _, trace = bag_maxima(model, bags, train=train, rng=np.random.default_rng(7))
    if train:
        assert np.array_equal(trace.dropout_mask, np.vstack(ref_masks))
    else:
        assert trace.dropout_mask is None and ref_masks == [None] * len(bags)


def test_bag_maxima_breaks_ties_within_each_bag():
    bags = [make_bag([0.7, 0.7], 1), make_bag([0.7], -1), make_bag([0.2, 0.9], 1)]
    scores, rows, trace = bag_maxima(value_scorer(), bags)
    assert scores.tolist() == [0.7, 0.7, 0.9]
    assert (rows - [0, 2, 3]).tolist() == [0, 0, 1]
    assert trace.layer_inputs[0].shape == (5, 1)
    _, losses, _ = objective_gradient(value_scorer(), bags, lam=0.0)
    assert [l.argmax_index for l in losses] == [0, 0, 1]


@settings(max_examples=200, deadline=None)
@given(segments=st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf,
                                                   np.nan]), min_size=1, max_size=6),
                         min_size=1, max_size=8))
@example(segments=[[1.0, np.nan, 2.5, np.nan]])  # one segment, as a per-video score has
@example(segments=[[-0.0, 0.0, 2.5, 2.5]])
def test_segment_argmax_is_np_argmax_per_segment(segments):
    values = np.array([v for seg in segments for v in seg])
    starts = np.cumsum([0, *(len(seg) for seg in segments[:-1])])
    want, start = [], 0
    for seg in segments:  # the reference: one np.argmax per segment
        want.append(start + int(np.argmax(values[start : start + len(seg)])))
        start += len(seg)
    assert segment_argmax(values, starts).tolist() == want


def test_segment_argmax_takes_the_first_of_a_zero_and_minus_zero_tie():
    values = np.array([-0.0, 0.0, 0.0, -0.0, -1.0, -0.0, 0.0])
    assert segment_argmax(values, np.array([0, 2, 4])).tolist() == [0, 2, 5]
    assert segment_argmax(values[:2], np.array([0])).tolist() == [0]  # one segment


def test_bag_maxima_takes_a_nan_like_argmax():
    bags = [make_bag([0.5], 1), make_bag([0.1, np.nan, 0.9], -1)]
    scores, rows, _ = bag_maxima(value_scorer(), bags)
    assert rows.tolist() == [0, 2] and np.isnan(scores[1])
    _, losses = objective_gradient(value_scorer(), bags, lam=0.0)[:2]
    assert losses[1].argmax_index == 1 and losses[1].hinge == 0.0


def test_bag_score_is_bag_maxima_and_score_bags_of_one_bag(rng):
    dense = init_glorot_normal((6, 5, 3, 1), seed=1)
    dense.theta[:] += rng.normal(scale=0.3, size=dense.theta.size)
    exact = value_scorer()
    cases = [(exact, make_bag(rows, 1)) for rows in (
        [0.5], [0.2, 0.9, 0.9, 0.1], [0.1, np.nan, 0.9, np.nan], [np.nan, 0.3], [-3.0, -3.0],
        [np.inf, 1.0, np.inf], [-np.inf])]  # one clip, ties, NaNs, infinities
    cases += [(dense, make_bag(rng.normal(size=(n, 6)), -1)) for n in (1, 4, 33)]
    cases.append((dense, make_bag(np.repeat(rng.normal(size=(1, 6)), 3, axis=0), 1)))  # tied rows
    cases.append((dense, Bag("f32", 1, rng.normal(size=(5, 6)).astype(np.float32))))  # as loaded
    for model, bag in cases:
        score, index = bag_score(model, bag)
        scores, rows, _ = bag_maxima(model, [bag])
        assert same_bits(np.float64(score), scores[0]) and index == rows[0]
        [(top, label)] = score_bags(model, [bag])
        assert same_bits(np.float64(score), np.float64(top)) and label == bag.label


def test_bag_maxima_of_no_bags_is_a_validation_error():
    with pytest.raises(ValidationError, match="needs at least one bag"):
        bag_maxima(value_scorer(), [])
    assert score_bags(value_scorer(), []) == []


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("hidden", sorted(ACTIVATIONS))
def test_objective_gradient_on_a_reused_workspace_gives_fresh_bits(rng, hidden, train):
    model = init_glorot_normal((6, 8, 4, 1), seed=3, hidden_activation=hidden, dropout_rate=0.5)
    model.theta[:] += rng.normal(scale=0.3, size=model.theta.size)
    work, out = Workspace(), np.full(model.theta.size, np.nan)
    # a larger batch first, so every buffer below is a prefix of a bigger one
    objective_gradient(model, random_bags(rng, 12, 9, 6), 0.01, train, np.random.default_rng(0),
                       work=work, out=out)
    bags = random_bags(rng, 4, 5, 6)
    value, losses, grads = objective_gradient(model, bags, 0.01, train, np.random.default_rng(1))
    v, l, g = objective_gradient(model, bags, 0.01, train, np.random.default_rng(1),
                                 work=work, out=out)
    assert same_bits(np.float64(v), np.float64(value)) and l == losses
    assert g.vector is out and same_bits(g.vector, grads.vector)


def test_a_steady_state_training_step_allocates_almost_nothing(rng):
    # 512 rows in 64 bags: with a sigmoid output every hinge is active, so
    # backward runs over 64 rows, and a hidden-layer array made afresh is 256 KB
    model = init_glorot_normal((64, 512, 32, 1), seed=0)
    bags = random_bags(rng, 64, 8, 64)
    optimizer = make_optimizer(OptimizerConfig(kind="adam"))
    work, grad = Workspace(), np.empty_like(model.theta)

    def step(seed):
        objective_gradient(model, bags, 0.001, train=True, rng=np.random.default_rng(seed),
                           work=work, out=grad)
        optimizer.step(model.theta, grad)

    step(0)
    assert traced_peak(lambda: step(1)) < 64 * 1024 + UFUNC_BUFFER_BYTES


def test_blocked_l2_gradient_equals_the_whole_matrix_sum_bit_for_bit(rng):
    # W0 is 250 x 300 = 75,000 entries: two full blocks and a partial one
    model = init_glorot_normal((300, 250, 3, 1), seed=4)
    assert 2 * _BLOCK < model.weights[0].size < 3 * _BLOCK
    bags, lam = random_bags(rng, 6, 4, 300), 0.01
    scores, rows, trace = bag_maxima(model, bags)
    labels = np.array([bag.label for bag in bags], dtype=np.float64)
    upstream = np.where(1.0 - labels * scores > 0.0, -labels / len(bags), 0.0)
    active = np.flatnonzero(upstream)
    want = backward(model, trace.select(rows[active]), upstream[active])
    for gw, w in zip(want.weights, model.weights):
        gw += lam * w
    assert same_bits(objective_gradient(model, bags, lam)[2].vector, want.vector)
    work, out = Workspace(), np.full(model.theta.size, np.nan)
    # a smaller model first, so the L2 scratch grows on the second call
    small = init_glorot_normal((6, 8, 4, 1), seed=3)
    objective_gradient(small, random_bags(rng, 2, 3, 6), lam, work=work)
    for _ in range(2):
        grads = objective_gradient(model, bags, lam, work=work, out=out)[2]
        assert grads.vector is out and same_bits(out, want.vector)
    # the workspace holds batch-sized buffers and one L2 block, nothing of W0's size
    assert max(buf.size for buf in work._buffers.values()) < model.weights[0].size


def test_weight_sq_norm_is_the_sum_of_squares(rng):
    model = init_glorot_normal((300, 250, 3, 1), seed=4)
    model.theta[:] += rng.normal(size=model.theta.size)
    want = sum(float(np.sum(w * w)) for w in model.weights)
    assert abs(model.weight_sq_norm() - want) <= 1e-12 * want
