import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milvid
from milvid import cli, feature_store
from milvid.bag_model import assemble_bag
from milvid.checkpoint import load_model, pack_container, save_model, unpack_container
from milvid.feature_store import FeatureMatrix, read_features, write_features
from milvid.scorer import forward_batch, init_glorot_normal

from conftest import mvck_frame


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(out, **overrides):
    flags = dict(dim=6, pos=6, neg=6, instances=5, seed=3)
    flags.update({k.replace("_", "-"): v for k, v in overrides.items()})
    argv = ["gen", "--out", str(out)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_gen_is_deterministic(tmp_path, capsys):
    code_a, _, _ = run_cli(capsys, *gen_args(tmp_path / "a", **{"pos_test": 2, "neg_test": 2}))
    code_b, _, _ = run_cli(capsys, *gen_args(tmp_path / "b", **{"pos_test": 2, "neg_test": 2}))
    assert code_a == code_b == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture
def workspace(tmp_path, capsys):
    data = tmp_path / "data"
    code, _, _ = run_cli(
        capsys, *gen_args(data, **{"pos_test": 4, "neg_test": 4, "shift": 3.0})
    )
    assert code == 0
    model = tmp_path / "model.mvck"
    code, _, _ = run_cli(
        capsys,
        "train",
        "--manifest", str(data / "manifest.jsonl"),
        "--optimizer", "sgd",
        "--epochs", "4",
        "--batch-bags", "4",
        "--hidden", "12,4",
        "--seed", "1",
        "--out", str(model),
    )
    assert code == 0
    return tmp_path, data, model


def test_train_writes_model_and_log(workspace):
    tmp_path, _, model = workspace
    assert model.exists()
    log = tmp_path / "model.mvck.log.csv"
    assert log.exists()
    header = log.read_text().splitlines()[0]
    assert header == "iteration,epoch,objective,val_auc,seconds"


def test_eval_emits_schema_versioned_json(workspace, capsys):
    _, data, model = workspace
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--model", str(model),
        "--manifest", str(data / "manifest.jsonl"),
        "--split", "test",
        "--threshold", "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["num_bags"] == 8
    assert 0.0 <= doc["auc"] <= 1.0
    assert set(doc["rates"]) == {"tpr", "fpr", "tnr", "fnr", "accuracy"}


def test_eval_with_segments_equal_to_the_clip_count_writes_the_same_json(workspace, capsys):
    tmp_path, data, model = workspace  # the workspace's bags have 5 clips each
    common = ["eval", "--model", str(model), "--manifest", str(data / "manifest.jsonl")]
    assert run_cli(capsys, *common, "--out", str(tmp_path / "plain.json"))[0] == 0
    assert run_cli(capsys, *common, "--segments", "5", "--out", str(tmp_path / "s5.json"))[0] == 0
    assert (tmp_path / "s5.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_roc_writes_csv_and_prints_auc(workspace, capsys):
    tmp_path, data, model = workspace
    out_csv = tmp_path / "roc.csv"
    code, out, _ = run_cli(
        capsys,
        "roc",
        "--model", str(model),
        "--manifest", str(data / "manifest.jsonl"),
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) >= 3
    assert out.startswith("AUC ") and "%" in out


def test_score_emits_one_row_per_clip_plus_verdict(tmp_path, capsys, rng):
    model_path = tmp_path / "m.mvck"
    save_model(init_glorot_normal((6, 8, 1), seed=0), model_path)
    features = tmp_path / "clip30.mil1"
    write_features(FeatureMatrix(rng.normal(size=(30, 6)).astype(np.float32)), features)
    code, out, _ = run_cli(capsys, "score", "--model", str(model_path), "--features", str(features))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "clip,score"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    verdicts = [l for l in lines if l.startswith("#")]
    assert len(data_rows) == 30
    assert len(verdicts) == 1 and "verdict=" in verdicts[0]


def test_score_prints_the_bytes_of_the_float64_bag_matrix_scores(tmp_path, capsys, rng):
    model = init_glorot_normal((64, 32, 8, 1), seed=5)
    model.theta[:] += rng.normal(scale=0.1, size=model.theta.size)
    model_path, features = tmp_path / "m.mvck", tmp_path / "clip.mil1"
    save_model(model, model_path)
    write_features(FeatureMatrix(rng.normal(size=(17, 64)).astype(np.float32)), features)
    code, out, _ = run_cli(capsys, "score", "--model", str(model_path), "--features", str(features))
    assert code == 0
    # the stdout of scoring the bag's float64 feature matrix
    bag = assemble_bag(read_features(features), label=1, bag_id="clip.mil1")
    scores, _ = forward_batch(load_model(model_path), bag.feature_matrix())
    top = float(scores.max())
    want = ["clip,score", *(f"{i},{s:.10g}" for i, s in enumerate(scores)),
            f"# bag_score={top:.10g} threshold={0.5:.10g} verdict={'+1' if top > 0.5 else '-1'}"]
    assert out == "\n".join(want) + "\n"


def test_score_refuses_a_video_of_no_clips(tmp_path, capsys):
    model_path, features = tmp_path / "m.mvck", tmp_path / "empty.mil1"
    save_model(init_glorot_normal((6, 8, 1), seed=0), model_path)
    write_features(FeatureMatrix(np.zeros((0, 6), dtype=np.float32)), features)
    code, out, err = run_cli(capsys, "score", "--model", str(model_path), "--features", str(features))
    assert code == 1 and out == ""
    assert err.strip() == "milvid: error: bag 'empty.mil1' has no instances"


def test_compare_emits_table_shaped_report(workspace, capsys):
    _, data, _ = workspace
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--manifest", str(data / "manifest.jsonl"),
        "--optimizers", "sgd,adam",
        "--epochs", "2",
        "--batch-bags", "4",
        "--hidden", "12,4",
        "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "optimizer,auc_percent"
    kinds = [l.split(",")[0] for l in lines[1:]]
    assert kinds == ["sgd", "adam"]
    for line in lines[1:]:
        pct = float(line.split(",")[1])
        assert 0.0 <= pct <= 100.0


def test_unknown_flag_exits_one_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--bogus-flag", "1"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_out_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
    code, _, err = run_cli(capsys, "gen", "--dim", "4")
    assert code == 1
    assert "--out" in err


def test_bad_config_value_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, *gen_args(tmp_path / "x"), "--witness-rate", "0.0")
    assert code == 1
    assert "witness_rate" in err


def test_corrupted_model_exits_two(workspace, capsys):
    tmp_path, data, model = workspace
    blob = bytearray(model.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.mvck"
    bad.write_bytes(bytes(blob))
    code, _, err = run_cli(
        capsys, "eval", "--model", str(bad), "--manifest", str(data / "manifest.jsonl")
    )
    assert code == 2
    assert "checksum" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "score", "--model", str(tmp_path / "nope.mvck"), "--features", str(tmp_path / "x")
    )
    assert code == 2


def test_env_var_supplies_default_data_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DATA_DIR, str(tmp_path / "envdata"))
    code, _, _ = run_cli(
        capsys, "gen", "--dim", "4", "--pos", "2", "--neg", "2", "--instances", "3",
        "--pos-test", "2", "--neg-test", "2", "--seed", "0",
    )
    assert code == 0
    assert (tmp_path / "envdata" / "manifest.jsonl").exists()
    model = tmp_path / "m.mvck"
    code, _, _ = run_cli(
        capsys, "train", "--epochs", "1", "--batch-bags", "2", "--hidden", "4",
        "--seed", "0", "--out", str(model),
    )
    assert code == 0


def test_config_file_supplies_defaults(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, **{"pos_test": 2, "neg_test": 2}))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_bags": 2, "hidden": "4", "seed": 0}))
    model = tmp_path / "m.mvck"
    code, _, _ = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"),
        "--out", str(model), "--config", str(cfg),
    )
    assert code == 0
    rows = (tmp_path / "m.mvck.log.csv").read_text().splitlines()[1:]
    assert rows and all(r.split(",")[1] == "1" for r in rows)  # config's epochs=1 applied


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"dim": 4, "pos": 2, "neg": 2, "instances": 3}))
    out = tmp_path / "d"
    code, _, _ = run_cli(capsys, "gen", "--out", str(out), "--dim", "6", "--config", str(cfg))
    assert code == 0
    from milvid.feature_store import read_features, read_manifest

    entries = read_manifest(out / "manifest.jsonl")
    assert len(entries) == 4  # pos/neg counts from the config file
    assert read_features(out / entries[0].path).dim == 6  # explicit flag wins


def test_config_flag_spellings_give_the_same_files(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"dim": 5, "pos": 2, "neg": 2, "instances": 3}))
    spellings = {"abbrev": ["--conf", str(cfg)], "equals": [f"--config={cfg}"],
                 "full": ["--config", str(cfg)]}
    for name, flag in spellings.items():
        code, _, _ = run_cli(capsys, "gen", "--out", str(tmp_path / name), *flag)
        assert code == 0
    files = {name: {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
             for name in spellings}
    assert files["abbrev"] == files["equals"] == files["full"]
    assert len(files["full"]) == 5  # the config's 4 bags and the manifest
    assert all(len(data) == 12 + 3 * 5 * 4 for name, data in files["full"].items()
               if name.endswith(".mil1"))


@pytest.mark.parametrize(
    "flag, value, message",
    [("--noise", "1e39", "exceed the float32 range"), ("--dim", str(10**15), "out of memory")],
)
def test_failed_gen_leaves_no_files_and_no_numpy_warning(tmp_path, flag, value, message):
    env = {**os.environ, "PYTHONPATH": str(Path(milvid.__file__).parents[1])}
    new = tmp_path / "new" / "data"
    argv = [*gen_args(new), flag, value]
    proc = subprocess.run([sys.executable, "-m", "milvid.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("milvid: error: ") and message in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_diverging_train_exits_one_naming_the_epoch_without_numpy_warnings(tmp_path, capsys):
    data = tmp_path / "data"
    argv = gen_args(data, dim=6, pos=4, neg=4, instances=4, pos_test=4, neg_test=4)
    assert run_cli(capsys, *argv)[0] == 0
    env = {**os.environ, "PYTHONPATH": str(Path(milvid.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "milvid.cli", "train", "--manifest", str(data / "manifest.jsonl"),
         "--lr=1e308", "--out", str(tmp_path / "m.mvck")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("milvid: error: ") and "non-finite at epoch 1" in proc.stderr
    assert "last good checkpoint" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_config_bad_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{nope")
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x"), "--config", str(cfg))
    assert code == 1
    assert "JSON" in err


def test_config_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b'\xff\xfe{"epochs": 1}')
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x"), "--config", str(cfg))
    assert code == 1
    assert err.startswith("milvid: error:") and "utf16.json" in err and "UTF-8" in err
    assert "Traceback" not in err


def test_config_missing_file_exits_two(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "gen", "--out", str(tmp_path / "x"), "--config", str(tmp_path / "none.json")
    )
    assert code == 2


def test_resume_flag_continues_training(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, **{"pos_test": 2, "neg_test": 2}))
    kwargs = [
        "--manifest", str(data / "manifest.jsonl"),
        "--batch-bags", "4", "--hidden", "8,4", "--seed", "2",
    ]
    full = tmp_path / "full"
    full.mkdir()
    code, _, _ = run_cli(
        capsys, "train", *kwargs, "--epochs", "4", "--out", str(full / "model.mvck")
    )
    assert code == 0
    part = tmp_path / "part"
    part.mkdir()
    run_cli(
        capsys, "train", *kwargs, "--epochs", "2", "--checkpoint-interval", "2",
        "--out", str(part / "model.mvck"),
    )
    code, _, _ = run_cli(
        capsys, "train", *kwargs, "--epochs", "4", "--out", str(part / "model.mvck"),
        "--resume", str(part / "ckpt-0002.mvck"),
    )
    assert code == 0
    assert (full / "model.mvck").read_bytes() == (part / "model.mvck").read_bytes()


def test_resume_with_wrong_shape_optimizer_slot_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data))
    kwargs = [
        "--manifest", str(data / "manifest.jsonl"), "--optimizer", "adam",
        "--batch-bags", "4", "--hidden", "8,4", "--out", str(tmp_path / "model.mvck"),
    ]
    code, _, _ = run_cli(capsys, "train", *kwargs, "--epochs", "1")
    assert code == 0
    final = tmp_path / "final.mvck"
    header, arrays = unpack_container(final.read_bytes())
    arrays["opt.m.0"] = np.zeros((3, 3))
    final.write_bytes(pack_container(header, list(arrays.items())))
    code, _, err = run_cli(capsys, "train", *kwargs, "--epochs", "2", "--resume", str(final))
    assert code == 2
    assert err.startswith("milvid: error: optimizer slot opt.m.0 has shape (3, 3)")
    assert "Traceback" not in err


@pytest.fixture
def adam_run(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data))
    flags = [
        "--manifest", str(data / "manifest.jsonl"), "--optimizer", "adam",
        "--batch-bags", "4", "--hidden", "8,4", "--seed", "2",
        "--out", str(tmp_path / "model.mvck"),
    ]
    code, _, _ = run_cli(capsys, "train", *flags, "--epochs", "1")
    assert code == 0
    return flags, tmp_path / "final.mvck"


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--lambda", "0.5", "lam"),
        ("--batch-bags", "6", "bags_per_batch"),
        ("--segments", "3", "segments"),
        ("--hidden", "8", "layer_dims"),
        ("--activation", "tanh", "output_activation"),
        ("--dropout-rate", "0", "dropout_rate"),
        ("--lr", "0.5", "lr"),
        ("--optimizer", "rmsprop", "optimizer"),
        ("--seed", "9", "seed"),
    ],
)
def test_resume_with_a_changed_flag_exits_one(adam_run, capsys, flag, value, field):
    flags, final = adam_run
    code, _, err = run_cli(
        capsys, "train", *flags, flag, value, "--epochs", "2", "--resume", str(final)
    )
    assert code == 1
    diffs = err.strip().split("configuration: ", 1)[1].split("; ")
    assert len(diffs) == 1 and diffs[0].startswith(f"{field}: checkpoint ")
    assert "configured " in diffs[0] and "Traceback" not in err


def test_resume_of_adam_checkpoint_without_v_exits_two(adam_run, capsys):
    flags, final = adam_run
    header, arrays = unpack_container(final.read_bytes())
    header["optimizer"]["slot_names"] = ["m"]
    kept = [(k, a) for k, a in arrays.items() if not k.startswith("opt.v.")]
    final.write_bytes(pack_container(header, kept))
    code, _, err = run_cli(capsys, "train", *flags, "--epochs", "2", "--resume", str(final))
    assert code == 2
    assert "slot_names" in err and "Traceback" not in err


def test_resume_past_the_configured_epochs_exits_one(adam_run, capsys):
    flags, final = adam_run
    for epochs in ("1", "2"):  # a checkpoint at the last epoch resumes to no further step
        code, _, _ = run_cli(capsys, "train", *flags, "--epochs", epochs, "--resume", str(final))
        assert code == 0
    code, _, err = run_cli(capsys, "train", *flags, "--epochs", "1", "--resume", str(final))
    assert code == 1
    assert "epoch 2, past the configured 1" in err


@pytest.mark.parametrize("key", ["no_dropout", "epoch"])
def test_config_key_no_subcommand_accepts_exits_one(tmp_path, capsys, key):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"dim": 4, key: True}))
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x"), "--config", str(cfg))
    assert code == 1
    assert key in err
    assert not (tmp_path / "x").exists()


def test_train_out_is_the_only_model_file(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, **{"pos_test": 2, "neg_test": 2}))
    run_dir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "2",
        "--batch-bags", "4", "--hidden", "4", "--out", str(run_dir / "x.mvck"),
    )
    assert code == 0
    kinds = {
        p.name: unpack_container(p.read_bytes())[0]["kind"] for p in run_dir.glob("*.mvck")
    }
    assert [name for name, kind in kinds.items() if kind == "model"] == ["x.mvck"]
    assert "model.mvck" not in kinds and "final.mvck" in kinds


@pytest.mark.parametrize(
    "flags, clash",
    [
        (["--out", "{run}/final.mvck"], "--out"),
        (["--out", "{run}/best.mvck"], "--out"),
        (["--out", "{run}/ckpt-0005.mvck"], "--out"),
        (["--out", "{run}/m.mvck", "--log", "{run}/final.mvck"], "--log"),
        (["--out", "{run}/m.mvck", "--log", "{run}/ckpt-12345.mvck"], "--log"),
        (["--out", "{run}/m.mvck", "--log", "{run}/../run/m.mvck"], "same file"),
    ],
)
def test_train_output_that_would_replace_a_checkpoint_or_the_model_exits_one(
    tmp_path, capsys, flags, clash
):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, **{"pos_test": 2, "neg_test": 2}))
    run = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
        "--batch-bags", "4", "--hidden", "4", *[f.format(run=run) for f in flags],
    )
    assert code == 1
    assert err.startswith("milvid: error: ") and clash in err and "Traceback" not in err
    assert not run.exists()


def test_train_without_test_split_skips_validation(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data))
    code, out, _ = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
        "--batch-bags", "4", "--hidden", "4", "--out", str(tmp_path / "m.mvck"),
    )
    assert code == 0
    assert "validation AUC" not in out


@pytest.mark.parametrize("command", [["train", "--out"], ["compare", "--optimizers", "sgd", "--out"]])
def test_train_and_compare_parse_the_manifest_once(tmp_path, capsys, monkeypatch, command):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, pos_test=2, neg_test=2))
    real, calls = feature_store.read_manifest, []

    def counted(path):
        calls.append(path)
        return real(path)

    for module in [m for name, m in sys.modules.items() if name.startswith("milvid")]:
        if getattr(module, "read_manifest", None) is real:
            monkeypatch.setattr(module, "read_manifest", counted)
    code, out, _ = run_cli(
        capsys, *command, str(tmp_path / "out"), "--manifest", str(data / "manifest.jsonl"),
        "--epochs", "1", "--batch-bags", "4", "--hidden", "4",
    )
    assert code == 0 and ("validation AUC" in out or "auc_percent" in out)
    assert len(calls) == 1  # both splits come from one parse


def _short_payload(data):
    return data[:-4]


def _nan_payload(data):
    return data[:12] + np.full((5, 6), np.nan, dtype="<f4").tobytes()


def _three_dims(data):
    return struct.pack("<4sII", b"MIL1", 3, 5) + np.zeros((5, 3), dtype="<f4").tobytes()


@pytest.mark.parametrize("name, damage, code, message", [
    ("train-pos-0001.mil1", _short_payload, 2, "payload size mismatch"),
    ("train-pos-0002.mil1", _nan_payload, 1, "feature file contains non-finite values"),
    ("train-pos-0001.mil1", _three_dims, 1, "dim 3 differs"),
])
def test_a_bad_file_in_a_split_exits_naming_it(tmp_path, capsys, name, damage, code, message):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data))
    path = data / name
    path.write_bytes(damage(path.read_bytes()))
    got, _, err = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
        "--batch-bags", "4", "--hidden", "4", "--out", str(tmp_path / "m.mvck"),
    )
    assert got == code
    assert f"{path}: " in err and message in err


def test_nan_in_test_split_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data, **{"pos_test": 2, "neg_test": 2}))
    payload = np.full((5, 6), np.nan, dtype="<f4").tobytes()
    (data / "test-neg-0001.mil1").write_bytes(struct.pack("<4sII", b"MIL1", 6, 5) + payload)
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
        "--batch-bags", "4", "--hidden", "4", "--out", str(tmp_path / "m.mvck"),
    )
    assert code == 1
    assert "non-finite" in err and not (tmp_path / "m.mvck").exists()


def test_corrupt_model_header_exits_two(workspace, capsys):
    tmp_path, data, _ = workspace
    bad = tmp_path / "bad.mvck"
    bad.write_bytes(mvck_frame(b"{x}"))
    for command in ("eval", "roc"):
        code, _, err = run_cli(
            capsys, command, "--model", str(bad), "--manifest", str(data / "manifest.jsonl")
        )
        assert code == 2
        assert err.startswith("milvid: error: malformed container header")


@pytest.mark.parametrize(
    "line",
    [
        b'{"bag_id": "a", "label": "x", "path": "a.mil1", "split": "test"}\n',
        b'{"bag_id": "\xff", "label": 1, "path": "a.mil1", "split": "test"}\n',
        b'{"bag_id": "a", "label": "1", "path": "a.mil1", "split": "test"}\n',
    ],
)
def test_bad_manifest_exits_two(workspace, capsys, line):
    tmp_path, _, model = workspace
    manifest = tmp_path / "bad.jsonl"
    manifest.write_bytes(line)
    code, _, err = run_cli(capsys, "eval", "--model", str(model), "--manifest", str(manifest))
    assert code == 2
    assert err.startswith("milvid: error:") and "bad.jsonl" in err


def test_resume_from_a_header_naming_an_unknown_optimizer_exits_two(adam_run, capsys):
    flags, final = adam_run
    header, arrays = unpack_container(final.read_bytes())
    header["optimizer"]["kind"] = "lbfgs"
    final.write_bytes(pack_container(header, list(arrays.items())))
    code, _, err = run_cli(capsys, "train", *flags, "--epochs", "2", "--resume", str(final))
    assert code == 2
    assert "lbfgs" in err and "Traceback" not in err


def test_eval_of_a_model_naming_an_unknown_output_activation_exits_two(workspace, capsys):
    _, data, model = workspace
    header, arrays = unpack_container(model.read_bytes())
    header["model"]["output_activation"] = "softmax"
    model.write_bytes(pack_container(header, list(arrays.items())))
    code, _, err = run_cli(
        capsys, "eval", "--model", str(model), "--manifest", str(data / "manifest.jsonl")
    )
    assert code == 2
    assert "softmax" in err and "Traceback" not in err


def main_in_process(argv):
    """(exit code, stderr) of ``cli.main``; argparse's own exits count as exit codes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_inputs")
    data, model = base / "data", base / "model.mvck"
    assert main_in_process(gen_args(data, pos_test=2, neg_test=2))[0] == 0
    train = ["train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
             "--batch-bags", "4", "--hidden", "4", "--out", str(model)]
    assert main_in_process(train)[0] == 0
    return data, model


def valid_argv(command, cli_inputs, out: Path) -> list[str]:
    """A cheap ``command`` invocation that exits 0; a flag appended later overrides its value."""
    data, model = cli_inputs
    manifest = str(data / "manifest.jsonl")
    return {
        "gen": gen_args(out / "data"),
        "train": ["train", "--manifest", manifest, "--epochs", "1", "--batch-bags", "4",
                  "--hidden", "4", "--out", str(out / "model.mvck")],
        "eval": ["eval", "--model", str(model), "--manifest", manifest],
        "score": ["score", "--model", str(model), "--features", str(data / "test-pos-0000.mil1")],
    }[command]


@pytest.mark.parametrize("command", ["gen", "train", "eval", "score"])
def test_valid_argv_exits_zero(cli_inputs, tmp_path, command):
    assert main_in_process(valid_argv(command, cli_inputs, tmp_path)) == (0, "")


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("gen", "--seed", "-1", "seed"),
        ("gen", "--shift", "nan", "shift_magnitude"),
        ("gen", "--shift", "inf", "shift_magnitude"),
        ("gen", "--noise", "inf", "noise_std"),
        ("gen", "--noise", "nan", "noise_std"),
        ("train", "--seed", "-1", "seed"),
        ("train", "--lr", "nan", "lr"),
        ("train", "--lr", "inf", "lr"),
        ("train", "--lambda", "nan", "lam"),
        ("train", "--lambda", "inf", "lam"),
        ("eval", "--threshold", "nan", "--threshold"),
        ("eval", "--threshold", "-inf", "--threshold"),
        ("score", "--threshold", "inf", "--threshold"),
    ],
)
def test_bad_numeric_flag_exits_one_naming_the_field(
    cli_inputs, tmp_path, command, flag, value, field
):
    code, err = main_in_process([*valid_argv(command, cli_inputs, tmp_path), f"{flag}={value}"])
    assert code == 1
    assert err.startswith("milvid: error: ") and field in err and "Traceback" not in err
    assert not (tmp_path / "data").exists() and not (tmp_path / "model.mvck").exists()


def numeric_flags(command: str) -> list[tuple[str, type]]:
    _, subparsers = cli.build_parser()
    flags = [(a.option_strings[0], a.type) for a in subparsers[command]._actions
             if a.type in (int, float)]
    return flags + [("--hidden", int)] if command == "train" else flags


# Integer flags draw only negatives and 0: a huge --dim, --instances or
# --epochs would start unbounded work or memory.
FLOAT_VALUES = st.one_of(
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.sampled_from([0.0, 1e308, math.nan, math.inf, -math.inf]),
)
INT_VALUES = st.integers(min_value=-(2**70), max_value=0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_numeric_flag_value_exits_zero_one_or_two(cli_inputs, data):
    command = data.draw(st.sampled_from(["gen", "train", "eval", "score"]), label="command")
    flag, kind = data.draw(st.sampled_from(numeric_flags(command)), label="flag")
    value = data.draw(FLOAT_VALUES if kind is float else INT_VALUES, label="value")
    with tempfile.TemporaryDirectory() as out:
        argv = [*valid_argv(command, cli_inputs, Path(out)), f"{flag}={value!r}"]
        code, err = main_in_process(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


def train_argv_with_config(cli_inputs, tmp_path, values: dict) -> list[str]:
    data, _ = cli_inputs
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(values))
    return ["train", "--manifest", str(data / "manifest.jsonl"), "--batch-bags", "4",
            "--out", str(tmp_path / "model.mvck"), "--config", str(cfg)]


def test_non_integer_hidden_flag_exits_one_naming_it(cli_inputs, tmp_path):
    argv = [*valid_argv("train", cli_inputs, tmp_path), "--hidden", "abc"]
    code, err = main_in_process(argv)
    assert code == 1
    assert "--hidden" in err and "'abc'" in err and "Traceback" not in err
    assert not (tmp_path / "model.mvck").exists()


def test_config_hidden_of_the_wrong_json_type_exits_one_naming_it(cli_inputs, tmp_path):
    argv = train_argv_with_config(cli_inputs, tmp_path, {"epochs": 1, "hidden": 16})
    code, err = main_in_process(argv)
    assert code == 1
    assert err.startswith("milvid: error: ") and "--hidden" in err and "16" in err
    assert not (tmp_path / "model.mvck").exists()


def test_config_fractional_epochs_exits_one_naming_it(cli_inputs, tmp_path):
    argv = train_argv_with_config(cli_inputs, tmp_path, {"epochs": 1.5, "hidden": "4"})
    code, err = main_in_process(argv)
    assert code == 1
    assert err.startswith("milvid: error: ") and "--epochs" in err and "1.5" in err
    assert not (tmp_path / "model.mvck").exists()


# 10**15 float64 entries are 8 PB, beyond the 2**47-byte user address space,
# so the allocation is refused before any memory is touched.
@pytest.mark.parametrize("command, flag", [("gen", "--dim"), ("train", "--hidden"),
                                           ("eval", "--segments")])
def test_a_size_too_large_to_allocate_exits_one(cli_inputs, tmp_path, command, flag):
    code, err = main_in_process([*valid_argv(command, cli_inputs, tmp_path), flag, str(10**15)])
    assert code == 1
    assert err.startswith("milvid: error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err
