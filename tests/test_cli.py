import json
import struct

import numpy as np
import pytest

from milvid import cli
from milvid.checkpoint import pack_container, save_model, unpack_container
from milvid.feature_store import FeatureMatrix, write_features
from milvid.scorer import init_glorot_normal

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


def test_config_bad_json_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{nope")
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x"), "--config", str(cfg))
    assert code == 1
    assert "JSON" in err


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


def test_train_without_test_split_skips_validation(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(capsys, *gen_args(data))
    code, out, _ = run_cli(
        capsys, "train", "--manifest", str(data / "manifest.jsonl"), "--epochs", "1",
        "--batch-bags", "4", "--hidden", "4", "--out", str(tmp_path / "m.mvck"),
    )
    assert code == 0
    assert "validation AUC" not in out


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
    ],
)
def test_bad_manifest_exits_two(workspace, capsys, line):
    tmp_path, _, model = workspace
    manifest = tmp_path / "bad.jsonl"
    manifest.write_bytes(line)
    code, _, err = run_cli(capsys, "eval", "--model", str(model), "--manifest", str(manifest))
    assert code == 2
    assert err.startswith("milvid: error:") and "bad.jsonl" in err
