import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.bag_model import load_dataset, pool_bags
from milvid.checkpoint import pack_container, serialize_model, unpack_container
from milvid.errors import ConfigError, TrainingAbort
from milvid.evaluation import evaluate_bags, roc_auc, score_bags
from milvid.feature_store import SynthConfig, synthesize_dataset
from milvid.optimizers import KINDS, OptimizerConfig
from milvid.trainer import TrainConfig, compare_optimizers, plan_batches, train

from conftest import make_bag

import milvid.bag_model as bag_model
import milvid.trainer as trainer


def tiny_dataset(tmp_path, **overrides):
    params = dict(
        dim=8,
        n_pos_bags=8,
        n_neg_bags=8,
        instances_per_bag=6,
        witness_rate=0.5,
        shift_magnitude=2.5,
        noise_std=1.0,
        seed=3,
        n_pos_test=6,
        n_neg_test=6,
    )
    params.update(overrides)
    manifest = synthesize_dataset(SynthConfig(**params), tmp_path / "data")
    return load_dataset(manifest, "train"), load_dataset(manifest, "test")


def tiny_config(**overrides):
    params = dict(epochs=2, bags_per_batch=4, seed=5, hidden_dims=(16, 4))
    params.update(overrides)
    return TrainConfig(**params)


def test_one_epoch_one_batch_is_one_step(tmp_path):
    train_set, _ = tiny_dataset(tmp_path, n_pos_bags=1, n_neg_bags=1)
    model, log = train(train_set, tiny_config(epochs=1, bags_per_batch=2))
    assert len(log.rows) == 1
    assert log.rows[0].iteration == 1 and log.rows[0].epoch == 1


def test_epochs_zero_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize(
    "field, value", [("seed", -1), ("lam", -1.0), ("lam", float("nan")), ("lam", float("inf"))]
)
def test_bad_setting_is_rejected_by_name(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(epochs=1, **{field: value})


def test_training_needs_both_classes(tmp_path):
    train_set, _ = tiny_dataset(tmp_path)
    positives_only = bag_model.Dataset(tuple(train_set.positives()), train_set.dim)
    with pytest.raises(ConfigError):
        train(positives_only, tiny_config())


@pytest.mark.parametrize("n_pos_test, n_neg_test", [(5, 0), (0, 5)])
def test_a_one_class_validation_split_is_refused_before_any_step(tmp_path, n_pos_test, n_neg_test):
    train_set, val_set = tiny_dataset(tmp_path, n_pos_test=n_pos_test, n_neg_test=n_neg_test)
    out = tmp_path / "run"
    cfg = tiny_config(epochs=4, checkpoint_interval=1, out_dir=out)
    with pytest.raises(ConfigError, match=f"{n_pos_test} positive, {n_neg_test} negative"):
        train(train_set, cfg, val_set=val_set)
    assert not out.exists()
    with pytest.raises(ConfigError, match="validation split"):
        compare_optimizers(train_set, cfg, ["sgd"], val_set)


def test_identical_runs_are_bitwise_identical(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    train(train_set, tiny_config(epochs=4, checkpoint_interval=2, out_dir=out_a), val_set=val_set)
    train(train_set, tiny_config(epochs=4, checkpoint_interval=2, out_dir=out_b), val_set=val_set)
    names = sorted(p.name for p in out_a.iterdir())
    assert "final.mvck" in names and "ckpt-0002.mvck" in names and "best.mvck" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize("kind", KINDS)
def test_resume_reproduces_uninterrupted_run(tmp_path, kind):
    train_set, val_set = tiny_dataset(tmp_path)
    full = tmp_path / "full"
    half = tmp_path / "half"
    resumed = tmp_path / "resumed"
    opt = OptimizerConfig(kind=kind)
    model_full, _ = train(
        train_set, tiny_config(epochs=6, optimizer=opt, out_dir=full), val_set=val_set
    )
    train(
        train_set,
        tiny_config(epochs=3, optimizer=opt, checkpoint_interval=3, out_dir=half),
        val_set=val_set,
    )
    model_resumed, _ = train(
        train_set,
        tiny_config(epochs=6, optimizer=opt, out_dir=resumed),
        val_set=val_set,
        resume_from=half / "ckpt-0003.mvck",
    )
    assert serialize_model(model_full) == serialize_model(model_resumed)
    assert (full / "final.mvck").read_bytes() == (resumed / "final.mvck").read_bytes()


def test_resume_rejects_seed_mismatch(tmp_path):
    train_set, _ = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=2, checkpoint_interval=2, out_dir=out))
    with pytest.raises(ConfigError, match="seed"):
        train(train_set, tiny_config(epochs=4, seed=99), resume_from=out / "ckpt-0002.mvck")


def test_objective_decreases_on_separable_data(tmp_path):
    train_set, _ = tiny_dataset(tmp_path, shift_magnitude=3.0)
    _, log = train(train_set, tiny_config(epochs=10))
    values = [r.objective for r in log.rows]
    assert all(np.isfinite(values))
    assert values[-1] < values[0]


def test_resume_names_every_changed_setting_with_both_values(tmp_path):
    train_set, _ = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=2, checkpoint_interval=2, out_dir=out))
    with pytest.raises(ConfigError) as info:
        train(
            train_set,
            tiny_config(epochs=4, lam=0.5, hidden_dims=(32,)),
            resume_from=out / "ckpt-0002.mvck",
        )
    message = str(info.value)
    assert "lam: checkpoint 0.001, configured 0.5" in message
    assert "layer_dims: checkpoint (8, 16, 4, 1), configured (8, 32, 1)" in message


def test_resume_refuses_a_checkpoint_whose_hidden_activation_differs(tmp_path):
    # a TrainConfig implies relu hidden units; a tanh scorer is another model
    train_set, _ = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=2, checkpoint_interval=2, out_dir=out))
    ckpt = out / "ckpt-0002.mvck"
    header, arrays = unpack_container(ckpt.read_bytes())
    header["model"]["hidden_activation"] = "tanh"
    ckpt.write_bytes(pack_container(header, list(arrays.items())))
    expected = "hidden_activation: checkpoint 'tanh', configured 'relu'"
    with pytest.raises(ConfigError, match=expected):
        train(train_set, tiny_config(epochs=4), resume_from=ckpt)


def test_resume_refuses_a_checkpoint_that_does_not_record_the_run_settings(tmp_path):
    # the meta of older checkpoints holds no lam, bags_per_batch or segments
    train_set, _ = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=2, checkpoint_interval=2, out_dir=out))
    ckpt = out / "ckpt-0002.mvck"
    header, arrays = unpack_container(ckpt.read_bytes())
    for key in ("lam", "bags_per_batch", "segments"):
        del header["meta"][key]
    ckpt.write_bytes(pack_container(header, list(arrays.items())))
    with pytest.raises(ConfigError, match="lam: checkpoint '<not recorded>', configured 0.001"):
        train(train_set, tiny_config(epochs=4), resume_from=ckpt)


def test_resume_may_change_epochs_interval_eval_and_out_dir(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=2, checkpoint_interval=2, out_dir=out))
    _, log = train(
        train_set,
        tiny_config(epochs=4, checkpoint_interval=1, eval_every=2, out_dir=tmp_path / "more"),
        val_set=val_set,
        resume_from=out / "ckpt-0002.mvck",
    )
    assert {r.epoch for r in log.rows} == {3, 4}


def test_resume_past_the_configured_epochs_is_rejected(tmp_path):
    train_set, _ = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    train(train_set, tiny_config(epochs=3, checkpoint_interval=3, out_dir=out))
    with pytest.raises(ConfigError, match="epoch 3, past the configured 2"):
        train(
            train_set,
            tiny_config(epochs=2, out_dir=tmp_path / "resumed"),
            resume_from=out / "ckpt-0003.mvck",
        )
    assert not (tmp_path / "resumed" / "final.mvck").exists()


def test_nan_objective_aborts(tmp_path):
    # an unbounded (identity-output) scorer with an absurd rate blows up fast
    train_set, _ = tiny_dataset(tmp_path)
    cfg = TrainConfig(
        epochs=50,
        bags_per_batch=4,
        seed=5,
        hidden_dims=(16,),
        output_activation="identity",
        dropout_rate=0.0,
        optimizer=OptimizerConfig(kind="sgd", lr=1e300),
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        TrainingAbort, match="iteration 2"
    ):
        train(train_set, cfg)


def test_abort_names_the_last_checkpoint_written_best_included(tmp_path, monkeypatch):
    # the objective turns NaN in epoch 2, after epoch 1 wrote only best.mvck
    train_set, val_set = tiny_dataset(tmp_path)
    real = trainer.objective_gradient
    calls = []

    def nan_from_epoch_two(model, batch, lam, **kwargs):
        calls.append(1)
        value, scores, grads = real(model, batch, lam, **kwargs)
        return (float("nan") if len(calls) > 4 else value), scores, grads

    monkeypatch.setattr(trainer, "objective_gradient", nan_from_epoch_two)
    out = tmp_path / "run"
    with pytest.raises(TrainingAbort, match="iteration 5; last good checkpoint: .*best.mvck"):
        train(train_set, tiny_config(epochs=3, out_dir=out), val_set=val_set)
    assert sorted(p.name for p in out.iterdir()) == ["best.mvck"]


@settings(max_examples=60, deadline=None)
@given(
    n_pos=st.integers(1, 40),
    n_neg=st.integers(1, 40),
    bags_per_batch=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_batch_plan_is_balanced_and_covers_positives(n_pos, n_neg, bags_per_batch, seed):
    rng = np.random.default_rng(seed)
    batches = plan_batches(n_pos, n_neg, bags_per_batch, rng)
    seen_pos = []
    for pos_idx, neg_idx in batches:
        assert len(pos_idx) >= 1 and len(neg_idx) >= 1
        seen_pos.extend(pos_idx.tolist())
        assert all(0 <= i < n_neg for i in neg_idx)
    assert sorted(seen_pos) == list(range(n_pos))  # each positive exactly once


def test_validation_auc_logged_and_best_checkpoint_written(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    out = tmp_path / "run"
    _, log = train(train_set, tiny_config(epochs=4, eval_every=2, out_dir=out), val_set=val_set)
    val_rows = [r for r in log.rows if r.val_auc is not None]
    assert {r.epoch for r in val_rows} == {2, 4}
    assert (out / "best.mvck").exists()


def test_log_csv_has_header_and_all_rows(tmp_path):
    train_set, _ = tiny_dataset(tmp_path)
    _, log = train(train_set, tiny_config(epochs=3))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "epoch", "objective", "val_auc", "seconds"]
    assert len(rows) == len(log.rows) + 1


def test_segment_pooling_flag(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    model, log = train(train_set, tiny_config(segments=3), val_set=val_set)
    assert model.config.input_dim == train_set.dim
    assert any(r.val_auc is not None for r in log.rows)


def test_compare_single_kind(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    rows = compare_optimizers(train_set, tiny_config(), ["sgd"], val_set)
    assert len(rows) == 1
    assert rows[0][0] == "sgd" and 0.0 <= rows[0][1] <= 1.0


def test_compare_duplicate_kinds_are_identical(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    rows = compare_optimizers(train_set, tiny_config(), ["sgd", "sgd"], val_set)
    assert rows[0][1] == rows[1][1]


def test_compare_with_segments_scores_the_pooled_test_bags(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    cfg = tiny_config(segments=4, optimizer=OptimizerConfig(kind="adam"))
    rows = compare_optimizers(train_set, cfg, ["adam"], val_set)
    model, _ = train(train_set, cfg)
    assert rows == [("adam", roc_auc(score_bags(model, pool_bags(val_set.bags, 4))).auc)]


def test_compare_rejects_empty_kinds(tmp_path):
    train_set, val_set = tiny_dataset(tmp_path)
    with pytest.raises(ConfigError):
        compare_optimizers(train_set, tiny_config(), [], val_set)


def test_no_planted_shift_means_chance_level_auc(tmp_path):
    # identical class distributions: downstream bag AUC sits near 0.5
    train_set, val_set = tiny_dataset(
        tmp_path,
        n_pos_bags=30,
        n_neg_bags=30,
        instances_per_bag=8,
        shift_magnitude=0.0,
        seed=11,
        n_pos_test=60,
        n_neg_test=60,
    )
    model, _ = train(train_set, tiny_config(epochs=3, seed=0))
    report = evaluate_bags(model, list(val_set.bags))
    assert len(val_set.bags) >= 100
    assert 0.45 <= report.roc.auc <= 0.55
