import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.errors import ConfigError, TrainingAbort
from milvid.optimizers import (
    _BLOCK, BETA1, BETA2, EPS, KINDS, RHO, OptimizerConfig, make_optimizer,
)

from conftest import same_bits, traced_peak


def single(value):
    return np.array([float(value)])


def test_sgd_hand_step():
    opt = make_optimizer(OptimizerConfig(kind="sgd", lr=0.1))
    p = single(1.0)
    opt.step(p, single(0.2))
    assert abs(p[0] - 0.98) < 1e-12


def test_adagrad_hand_step():
    opt = make_optimizer(OptimizerConfig(kind="adagrad", lr=0.1))
    p = single(0.0)
    opt.step(p, single(2.0))
    assert opt.slots["sq_sum"][0] == 4.0
    expected = -0.1 * 2.0 / (np.sqrt(4.0) + 1e-8)
    assert abs(p[0] - expected) < 1e-12
    assert p[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_first_step():
    opt = make_optimizer(OptimizerConfig(kind="adam", lr=0.001))
    p = single(0.0)
    opt.step(p, single(0.5))
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    assert m_hat == pytest.approx(0.5) and v_hat == pytest.approx(0.25)
    expected = -0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(p[0] - expected) < 1e-12
    assert p[0] == pytest.approx(-0.001, rel=1e-6)


def test_rmsprop_first_step():
    opt = make_optimizer(OptimizerConfig(kind="rmsprop", lr=0.01))
    p = single(0.0)
    opt.step(p, single(1.0))
    assert opt.slots["sq_avg"][0] == pytest.approx(0.1, abs=1e-15)
    expected = -0.01 * 1.0 / (np.sqrt(0.1) + 1e-8)
    assert abs(p[0] - expected) < 1e-12
    assert p[0] == pytest.approx(-0.031623, abs=1e-6)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_zero_gradient_is_a_fixpoint(kind, seed):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=10)
    before = theta.copy()
    opt = make_optimizer(OptimizerConfig(kind=kind))
    for _ in range(3):
        opt.step(theta, np.zeros_like(theta))
    assert np.array_equal(theta, before)


def test_adam_first_step_bounded_by_lr(rng):
    lr = 0.002
    for _ in range(20):
        g = rng.normal(size=12) * 10.0 ** rng.integers(-3, 4)
        opt = make_optimizer(OptimizerConfig(kind="adam", lr=lr))
        p = np.zeros(12)
        opt.step(p, g.copy())
        assert np.all(np.abs(p) <= lr * (1 + 1e-6))


def test_adagrad_steps_shrink_under_constant_gradient():
    opt = make_optimizer(OptimizerConfig(kind="adagrad", lr=0.5))
    p = single(10.0)
    g = single(0.7)
    sizes = []
    for _ in range(10):
        before = p[0]
        opt.step(p, g.copy())
        sizes.append(abs(p[0] - before))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_adagrad_effective_rate_never_increases(rng):
    # lr / (sqrt(G) + eps) is monotone for any gradient sequence
    cfg = OptimizerConfig(kind="adagrad", lr=0.1)
    opt = make_optimizer(cfg)
    p = rng.normal(size=5)
    prev = None
    for _ in range(15):
        opt.step(p, np.abs(rng.normal(size=5)) + 0.01)
        rate = cfg.effective_lr / (np.sqrt(opt.slots["sq_sum"]) + EPS)
        if prev is not None:
            assert np.all(rate <= prev)
        prev = rate


def test_sgd_contracts_quadratic_exactly():
    # on f(t) = t^2/2 the gradient is t, so each step multiplies |t| by |1-lr|
    for lr in (0.1, 0.5, 1.5):
        opt = make_optimizer(OptimizerConfig(kind="sgd", lr=lr))
        p = single(0.3)
        for _ in range(8):
            before = abs(p[0])
            opt.step(p, p.copy())
            assert abs(p[0]) == pytest.approx(abs(1 - lr) * before, rel=1e-12)


def test_nonfinite_gradient_aborts():
    opt = make_optimizer(OptimizerConfig(kind="sgd"))
    with pytest.raises(TrainingAbort, match="non-finite"):
        opt.step(single(1.0), single(np.nan))


def test_default_learning_rates():
    assert OptimizerConfig(kind="sgd").effective_lr == 0.01
    assert OptimizerConfig(kind="adagrad").effective_lr == 0.01
    assert OptimizerConfig(kind="adam").effective_lr == 0.001
    assert OptimizerConfig(kind="rmsprop").effective_lr == 0.001
    assert OptimizerConfig(kind="sgd", lr=0.3).effective_lr == 0.3


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="lbfgs")
    for lr in (-1.0, 0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="lr"):
            OptimizerConfig(kind="sgd", lr=lr)


def whole_vector_step(kind, lr, t, p, g, slots):
    """The update rules as plain whole-vector expressions: the reference for the blocked step."""
    if kind == "sgd":
        p -= lr * g
    elif kind == "adagrad":
        slots["sq_sum"] += g * g
        p -= lr * g / (np.sqrt(slots["sq_sum"]) + EPS)
    elif kind == "rmsprop":
        v = slots["sq_avg"]
        v *= RHO
        v += (1.0 - RHO) * g * g
        p -= lr * g / (np.sqrt(v) + EPS)
    else:
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        m, v = slots["m"], slots["v"]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@pytest.mark.parametrize("size", [1, 1000, 2 * _BLOCK + 123])
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_step_gives_the_bits_of_the_whole_vector_rules(kind, size):
    rng = np.random.default_rng([size, KINDS.index(kind)])
    opt = make_optimizer(OptimizerConfig(kind=kind))
    theta = rng.normal(size=size)
    ref_theta = theta.copy()
    ref_slots = {name: np.zeros(size) for name in opt.slot_names}
    for t in range(1, 26):
        # magnitudes from 1e-6 to 1e3, with exact zeros, so rounding differences would show
        g = rng.normal(size=size) * 10.0 ** rng.integers(-6, 4, size=size)
        g[rng.random(size) < 0.1] = 0.0
        opt.step(theta, g)
        whole_vector_step(kind, opt.lr, t, ref_theta, g, ref_slots)
        assert opt.t == t
        assert same_bits(theta, ref_theta)
        assert all(same_bits(opt.slots[name], ref_slots[name]) for name in opt.slot_names)


@pytest.mark.parametrize("kind", KINDS)
def test_nonfinite_gradient_in_the_last_block_writes_nothing(kind, rng):
    size = 2 * _BLOCK + 7
    opt = make_optimizer(OptimizerConfig(kind=kind))
    theta = rng.normal(size=size)
    for _ in range(3):
        opt.step(theta, rng.normal(size=size))
    before = theta.copy(), {name: s.copy() for name, s in opt.slots.items()}, opt.t
    g = rng.normal(size=size)
    g[-1] = np.nan
    with pytest.raises(TrainingAbort, match="non-finite"):
        opt.step(theta, g)
    assert same_bits(theta, before[0])
    assert opt.slots.keys() == before[1].keys()
    assert all(same_bits(opt.slots[name], s) for name, s in before[1].items())
    assert opt.t == before[2]


def test_step_rejects_vectors_unlike_the_first():
    # a longer slot would otherwise be updated only over its first len(theta) entries
    opt = make_optimizer(OptimizerConfig(kind="adam"))
    opt.step(np.zeros(10), np.ones(10))
    with pytest.raises(ConfigError, match="slot 'm'"):
        opt.step(np.zeros(5), np.ones(5))
    with pytest.raises(ConfigError, match="flat"):
        opt.step(np.zeros((2, 5)), np.ones((2, 5)))
    assert opt.t == 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_step_after_the_first_allocates_no_parameter_sized_array(kind, rng):
    size = 8 * _BLOCK  # a 256 KB boolean vector, were the finiteness check whole-vector
    opt = make_optimizer(OptimizerConfig(kind=kind))
    theta, g = rng.normal(size=size), rng.normal(size=size)
    opt.step(theta, g)
    assert traced_peak(lambda: opt.step(theta, g)) < 64 * 1024
