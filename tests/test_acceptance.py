"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] <name>: PASS` line when it passes (run
with ``pytest -s`` to see them; a failing criterion fails its test).
"""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from milvid import cli
from milvid.bag_model import infer_bag_label, load_dataset
from milvid.checkpoint import deserialize_model, serialize_model
from milvid.evaluation import ConfusionCounts, evaluate_bags, rates, roc_auc
from milvid.feature_store import (
    FeatureMatrix,
    SynthConfig,
    read_features,
    synthesize_dataset,
    write_features,
)
from milvid.objective import bag_score, objective_gradient
from milvid.optimizers import OptimizerConfig, make_optimizer
from milvid.scorer import init_glorot_normal
from milvid.trainer import TrainConfig, compare_optimizers, train

from conftest import make_bag, max_rel_err, numerical_gradient, random_bags
from test_evaluation import pairwise_auc


def _passed(name):
    print(f"[acceptance] {name}: PASS")


def test_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for output_activation in ("sigmoid", "tanh"):
        model = init_glorot_normal((8, 4, 2, 1), seed=11, output_activation=output_activation)
        bags = random_bags(rng, 4, 5, 8)
        lam = 0.01
        _, _, grads = objective_gradient(model, bags, lam)
        numeric = numerical_gradient(
            lambda: objective_gradient(model, bags, lam)[0], model.param_list(), eps=1e-5
        )
        worst = max_rel_err(grads.param_list(), numeric)
        assert worst < 1e-4, f"{output_activation}: worst relative error {worst}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    _passed("gradient correctness (sigmoid+tanh, rel err < 1e-4, < 10 s)")


def test_argmax_routing():
    rng = np.random.default_rng(21)
    model = init_glorot_normal((6, 4, 1), seed=3)
    bags = random_bags(rng, 2, 5, 6)
    bag = bags[0]
    _, losses = objective_gradient(model, bags, lam=0.0)[:2]
    loss = losses[0]
    assert loss.hinge > 0.0  # violated margin

    rows = bag.feature_matrix().copy()
    per_instance = [
        bag_score(model, make_bag(rows[i : i + 1], bag.label))[0] for i in range(len(bag))
    ]
    ranked = sorted(range(len(bag)), key=lambda i: -per_instance[i])
    assert per_instance[ranked[0]] > per_instance[ranked[1]] + 1e-6  # strict max
    victim = ranked[-1]
    assert victim != loss.argmax_index

    direction = rng.normal(size=6)
    eps = 1e-6

    def value(sign):
        shifted = rows.copy()
        shifted[victim] += sign * eps * direction
        return objective_gradient(model, [make_bag(shifted, bag.label), bags[1]], lam=0.0)[0]

    derivative = (value(+1) - value(-1)) / (2 * eps)
    assert abs(derivative) <= 1e-8, f"directional derivative {derivative}"
    _passed("argmax routing (non-argmax directional derivative = 0 within 1e-8)")


def test_auc_oracle_equivalence():
    started = time.perf_counter()
    gen = np.random.default_rng(99)
    for trial in range(1000):
        n = int(gen.integers(2, 201))
        labels = gen.choice([1, -1], size=n)
        labels[0] = 1
        labels[-1] = -1
        if gen.random() < 0.5:
            scores = gen.integers(0, max(2, n // 4), size=n).astype(float)  # heavy ties
        else:
            scores = np.round(gen.normal(size=n), int(gen.integers(0, 3)))
        scored = [(float(s), int(y)) for s, y in zip(scores, labels)]
        trapezoid = roc_auc(scored).auc
        oracle = pairwise_auc(scored)
        assert abs(trapezoid - oracle) < 1e-12, f"trial {trial}: {trapezoid} vs {oracle}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"AUC oracle sweep took {elapsed:.1f}s"
    _passed("AUC oracle equivalence (1000 tied sets, |trapezoid - pairwise| < 1e-12, < 30 s)")


def test_metric_identities():
    gen = np.random.default_rng(42)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in gen.integers(0, 100_000, size=4))
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        r = rates(c)
        if c.pos > 0:
            assert r.tpr + r.fnr == 1.0
        if c.neg > 0:
            assert r.fpr + r.tnr == 1.0
        if c.pos + c.neg > 0:
            assert r.accuracy == (tp + tn) / (tp + tn + fp + fn)
    worked = rates(ConfusionCounts(tp=3, fn=1, fp=2, tn=4))
    assert worked.tpr == 0.75
    assert worked.accuracy == 0.7
    _passed("metric identities (1000 random counts exact; worked example)")


def test_optimizer_unit_checks():
    # hand-computed first steps
    opt = make_optimizer(OptimizerConfig(kind="sgd", lr=0.1))
    p = np.array([1.0])
    opt.step(p, np.array([0.2]))
    assert abs(p[0] - 0.98) < 1e-12

    opt = make_optimizer(OptimizerConfig(kind="adagrad", lr=0.1))
    p = np.array([0.0])
    opt.step(p, np.array([2.0]))
    assert opt.slots["sq_sum"][0] == 4.0
    assert abs(p[0] - (-0.1 * 2.0 / (np.sqrt(4.0) + 1e-8))) < 1e-12

    opt = make_optimizer(OptimizerConfig(kind="adam", lr=0.001))
    p = np.array([0.0])
    opt.step(p, np.array([0.5]))
    m_hat, v_hat = 0.5, 0.25  # first-step bias correction recovers g and g^2
    assert abs(p[0] - (-0.001 * m_hat / (np.sqrt(v_hat) + 1e-8))) < 1e-12

    opt = make_optimizer(OptimizerConfig(kind="rmsprop", lr=0.01))
    p = np.array([0.0])
    opt.step(p, np.array([1.0]))
    assert abs(p[0] - (-0.01 / (np.sqrt(0.1) + 1e-8))) < 1e-12

    # zero gradient leaves parameters unchanged
    rng = np.random.default_rng(5)
    for kind in ("sgd", "adam", "adagrad", "rmsprop"):
        theta = rng.normal(size=10)
        before = theta.copy()
        opt = make_optimizer(OptimizerConfig(kind=kind))
        opt.step(theta, np.zeros_like(theta))
        assert np.array_equal(theta, before)

    # SGD on the unit quadratic contracts by exactly |1 - lr|
    for lr in (0.1, 0.5, 1.9):
        opt = make_optimizer(OptimizerConfig(kind="sgd", lr=lr))
        p = np.array([0.7])
        for _ in range(6):
            before = abs(p[0])
            opt.step(p, p.copy())
            assert abs(p[0]) == pytest.approx(abs(1.0 - lr) * before, rel=1e-12)
    _passed("optimizer unit checks (hand steps at 1e-12; zero-grad fixpoint; SGD contraction)")


def test_end_to_end_synthetic_training(tmp_path, capsys):
    started = time.perf_counter()
    cfg = SynthConfig(
        dim=64,
        n_pos_bags=100,
        n_neg_bags=100,
        instances_per_bag=32,
        witness_rate=0.3,
        shift_magnitude=3.0,
        noise_std=1.0,
        seed=2024,
        n_pos_test=50,
        n_neg_test=50,
    )
    manifest = synthesize_dataset(cfg, tmp_path / "data")
    train_set = load_dataset(manifest, "train")
    test_set = load_dataset(manifest, "test")
    train_cfg = TrainConfig(
        epochs=50,
        bags_per_batch=16,
        lam=0.001,
        optimizer=OptimizerConfig(kind="sgd", lr=0.01),
        seed=7,
    )
    model, log = train(train_set, train_cfg, val_set=test_set)
    report = evaluate_bags(model, list(test_set.bags))
    elapsed = time.perf_counter() - started
    assert report.roc.auc >= 0.95, f"held-out AUC {report.roc.auc}"
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
    assert log.rows[-1].objective < log.rows[0].objective

    # the CLI evaluation report on the same run also carries auc >= 0.95
    import json

    from milvid.checkpoint import save_model

    model_path = tmp_path / "model.mvck"
    save_model(model, model_path)
    code = cli.main(
        ["eval", "--model", str(model_path), "--manifest", str(manifest),
         "--split", "test", "--threshold", "0.5"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["auc"] >= 0.95

    # the optimizer comparison harness emits a four-row table-shaped report
    small_manifest = synthesize_dataset(
        SynthConfig(dim=8, n_pos_bags=8, n_neg_bags=8, instances_per_bag=6, seed=3,
                    n_pos_test=6, n_neg_test=6),
        tmp_path / "small",
    )
    rows = compare_optimizers(
        load_dataset(small_manifest, "train"),
        TrainConfig(epochs=2, bags_per_batch=4, seed=5, hidden_dims=(16, 4)),
        ["rmsprop", "adagrad", "adam", "sgd"],
        load_dataset(small_manifest, "test"),
    )
    assert [kind for kind, _ in rows] == ["rmsprop", "adagrad", "adam", "sgd"]
    print("optimizer,auc_percent")
    for kind, auc in rows:
        assert 0.0 <= auc <= 1.0
        print(f"{kind},{100 * auc:.2f}")
    _passed(
        f"end-to-end training (held-out AUC {report.roc.auc:.4f} >= 0.95 "
        f"in {elapsed:.1f}s < 60 s; comparison table emitted)"
    )


def test_training_determinism_and_resume(tmp_path, capsys):
    data = tmp_path / "data"
    code = cli.main(
        ["gen", "--out", str(data), "--dim", "6", "--pos", "6", "--neg", "6",
         "--instances", "5", "--pos-test", "4", "--neg-test", "4", "--seed", "3"]
    )
    assert code == 0
    base = [
        "train", "--manifest", str(data / "manifest.jsonl"), "--optimizer", "sgd",
        "--batch-bags", "4", "--hidden", "12,4", "--seed", "1",
    ]
    run_a, run_b, run_c = (tmp_path / name for name in ("a", "b", "c"))
    for d in (run_a, run_b, run_c):
        d.mkdir()
    assert cli.main(base + ["--epochs", "6", "--out", str(run_a / "model.mvck")]) == 0
    assert cli.main(base + ["--epochs", "6", "--out", str(run_b / "model.mvck")]) == 0
    assert (run_a / "model.mvck").read_bytes() == (run_b / "model.mvck").read_bytes()

    assert cli.main(
        base + ["--epochs", "3", "--checkpoint-interval", "3", "--out", str(run_c / "model.mvck")]
    ) == 0
    assert cli.main(
        base + ["--epochs", "6", "--out", str(run_c / "model.mvck"),
                "--resume", str(run_c / "ckpt-0003.mvck")]
    ) == 0
    assert (run_a / "model.mvck").read_bytes() == (run_c / "model.mvck").read_bytes()
    capsys.readouterr()
    _passed("determinism (identical runs bitwise; checkpoint resume bitwise)")


def test_format_round_trips_and_checksum(tmp_path, capsys):
    rng = np.random.default_rng(17)
    m = FeatureMatrix(rng.normal(size=(9, 7)).astype(np.float32))
    path = tmp_path / "f.mil1"
    write_features(m, path)
    first = path.read_bytes()
    write_features(read_features(path), path)
    assert path.read_bytes() == first  # write -> read -> write is bitwise stable

    model = init_glorot_normal((7, 5, 1), seed=4)
    blob = serialize_model(model)
    assert serialize_model(deserialize_model(blob)) == blob

    corrupted = bytearray(blob)
    corrupted[len(corrupted) // 2] ^= 0x01
    bad = tmp_path / "bad.mvck"
    bad.write_bytes(bytes(corrupted))
    features = tmp_path / "x.mil1"
    write_features(FeatureMatrix(rng.normal(size=(3, 7)).astype(np.float32)), features)
    code = cli.main(["score", "--model", str(bad), "--features", str(features)])
    capsys.readouterr()
    assert code == 2
    _passed("format round-trips (MIL1 and checkpoints bitwise; corrupt checkpoint exits 2)")


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=40))
def test_bag_label_semantics(labels):
    assert (infer_bag_label(labels) == -1) == all(y == -1 for y in labels)


def test_bag_label_semantics_report():
    _passed("bag label semantics (negative iff all instances negative, property-tested)")
