"""Command-line interface: gen, train, compare, score, eval, roc.

Exit codes: 0 success, 1 validation or configuration error (a size too
large to allocate among them), 2 I/O or file format error. The
MILVID_DATA_DIR environment variable supplies the default output directory
for ``gen`` and the default manifest location
(``$MILVID_DATA_DIR/manifest.jsonl``) for the other subcommands. A JSON
config file (``--config``) may supply flag defaults; explicit flags win
over the config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .bag_model import assemble_bag, dataset_of, load_dataset, pool_bags
from .checkpoint import load_model, save_model
from .errors import ConfigError, FormatError, MilvidError, TrainingAbort, ValidationError
from .evaluation import evaluate_bags, roc_auc, score_bags
from .feature_store import SynthConfig, read_features, read_manifest, synthesize_dataset
from .optimizers import KINDS, OptimizerConfig
from .scorer import score_rows
from .trainer import CHECKPOINT_NAME, TrainConfig, compare_optimizers, train

ENV_DATA_DIR = "MILVID_DATA_DIR"


class _Parser(argparse.ArgumentParser):
    # usage + message on stderr, exit 1 (validation error) instead of argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_manifest() -> str | None:
    base = os.environ.get(ENV_DATA_DIR)
    return str(Path(base) / "manifest.jsonl") if base else None


def _load_config(path: str) -> dict:
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"{path}: config file is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object of flag values")
    return values


def _check_config_value(action: argparse.Action, value) -> None:
    # argparse runs a string default through the flag's type like a command-line
    # value, but passes any other JSON value to the subcommand unconverted
    flag = action.option_strings[0]
    if value is None and action.default is None:
        return
    if action.type is int:
        fits = type(value) in (int, str)
    elif action.type is float:
        fits = type(value) in (int, float, str)
    else:
        fits = type(value) is str
    if not fits:
        raise ConfigError(f"config value for {flag} has the wrong type: {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config value for {flag} must be one of {list(action.choices)}, got {value!r}"
        )


def _apply_config(subparsers: dict, values: dict) -> None:
    # per-subcommand defaults; explicitly passed flags still take precedence
    actions = {
        sp: {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
        for sp in subparsers.values()
    }
    unknown = sorted(set(values).difference(*actions.values()))
    if unknown:
        raise ConfigError(f"config file keys accepted by no subcommand: {', '.join(unknown)}")
    for sp, known in actions.items():
        relevant = {k: v for k, v in values.items() if k in known}
        for key, value in relevant.items():
            _check_config_value(known[key], value)
        if relevant:
            sp.set_defaults(**relevant)


def _widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(h) for h in text.split(",") if h.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer widths, got {text!r}"
        ) from None


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file of default flag values")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", default=_default_manifest(), help="dataset manifest path")
    p.add_argument("--lr", type=float, default=None, help="learning rate (default per optimizer)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.001, help="L2 strength")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-bags", type=int, default=16, help="bags per optimizer step")
    p.add_argument("--segments", type=int, default=None, help="pool each bag to this many segments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=_widths, default="512,32",
                   help="hidden layer widths, comma-separated")
    p.add_argument("--activation", choices=["sigmoid", "tanh"], default="sigmoid",
                   help="output activation")
    p.add_argument("--dropout-rate", type=float, default=0.6,
                   help="dropout after the first hidden layer (0 = none)")
    p.add_argument("--checkpoint-interval", type=int, default=0,
                   help="epochs between checkpoints (0 = final only)")
    p.add_argument("--eval-every", type=int, default=1,
                   help="epochs between validation AUC evaluations")


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="milvid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    p = subparsers["gen"] = sub.add_parser("gen", help="synthesize a planted-signal dataset")
    p.add_argument("--out", default=os.environ.get(ENV_DATA_DIR), help="output directory")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--pos", type=int, default=100, help="positive train bags")
    p.add_argument("--neg", type=int, default=100, help="negative train bags")
    p.add_argument("--pos-test", type=int, default=0, help="positive test bags")
    p.add_argument("--neg-test", type=int, default=0, help="negative test bags")
    p.add_argument("--instances", type=int, default=32, help="instances per bag")
    p.add_argument("--witness-rate", type=float, default=0.3)
    p.add_argument("--shift", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = subparsers["train"] = sub.add_parser("train", help="train a scorer on a manifest")
    _add_train_flags(p)
    p.add_argument("--optimizer", choices=list(KINDS), default="sgd")
    p.add_argument("--out", required=True, help="where to write the trained model")
    p.add_argument("--log", default=None, help="training log CSV (default: <out>.log.csv)")
    p.add_argument("--resume", default=None, help="resume from a training checkpoint")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_train)

    p = subparsers["compare"] = sub.add_parser("compare", help="train once per optimizer and report AUCs")
    _add_train_flags(p)
    p.add_argument("--optimizers", default="sgd,adam,adagrad,rmsprop",
                   help="comma-separated optimizer kinds")
    p.add_argument("--out", default=None, help="also write the report CSV here")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = subparsers["score"] = sub.add_parser("score", help="score one feature file clip by clip")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="bag verdict threshold (default: midpoint of output range)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_score)

    p = subparsers["eval"] = sub.add_parser("eval", help="bag-level evaluation report as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", default=_default_manifest())
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = subparsers["roc"] = sub.add_parser("roc", help="ROC points as CSV plus the AUC")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", default=_default_manifest())
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_roc)

    return parser, subparsers


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required (or set ${ENV_DATA_DIR})")
    return value


def _cmd_gen(args) -> int:
    out = _require(args.out, "--out")
    cfg = SynthConfig(
        dim=args.dim,
        n_pos_bags=args.pos,
        n_neg_bags=args.neg,
        instances_per_bag=args.instances,
        witness_rate=args.witness_rate,
        shift_magnitude=args.shift,
        noise_std=args.noise,
        seed=args.seed,
        n_pos_test=args.pos_test,
        n_neg_test=args.neg_test,
    )
    manifest = synthesize_dataset(cfg, out)
    print(manifest)
    return 0


def _train_config(args, optimizer_kind: str) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        bags_per_batch=args.batch_bags,
        lam=args.lam,
        optimizer=OptimizerConfig(kind=optimizer_kind, lr=args.lr),
        seed=args.seed,
        segments=args.segments,
        checkpoint_interval=args.checkpoint_interval,
        eval_every=args.eval_every,
        hidden_dims=args.hidden,
        output_activation=args.activation,
        dropout_rate=args.dropout_rate,
    )


def _load_splits(manifest_path):
    # one manifest parse for both splits; a manifest without test entries means
    # no validation, and any other error propagates
    entries = read_manifest(manifest_path)
    train_set = dataset_of(manifest_path, entries, split="train")
    has_test = any(e.split == "test" for e in entries)
    return train_set, dataset_of(manifest_path, entries, split="test") if has_test else None


def _check_train_outputs(out: Path, log_path: Path) -> None:
    # train writes its checkpoints beside --out; neither output may replace one
    for flag, path in (("--out", out), ("--log", log_path)):
        if CHECKPOINT_NAME.fullmatch(path.name):
            raise ConfigError(
                f"{flag} {path}: the name {path.name!r} is reserved for the training "
                "checkpoints that train writes beside --out"
            )
    if os.path.abspath(out) == os.path.abspath(log_path):
        raise ConfigError(f"--log and --out name the same file {out}")


def _cmd_train(args) -> int:
    manifest = _require(args.manifest, "--manifest")
    out = Path(args.out)
    log_path = Path(args.log or f"{out}.log.csv")
    _check_train_outputs(out, log_path)
    cfg = dataclasses.replace(_train_config(args, args.optimizer), out_dir=out.parent)
    train_set, val_set = _load_splits(manifest)
    model, log = train(train_set, cfg, val_set=val_set, resume_from=args.resume)
    save_model(model, out)
    log.to_csv(log_path)
    last_val = next((r.val_auc for r in reversed(log.rows) if r.val_auc is not None), None)
    print(f"model written to {out}")
    print(f"log written to {log_path}")
    if last_val is not None:
        print(f"final validation AUC {last_val:.6f} ({100 * last_val:.2f}%)")
    return 0


def _cmd_compare(args) -> int:
    manifest = _require(args.manifest, "--manifest")
    kinds = [k.strip() for k in args.optimizers.split(",") if k.strip()]
    cfg = _train_config(args, kinds[0] if kinds else "sgd")
    train_set, val_set = _load_splits(manifest)
    if val_set is None:
        raise ConfigError("compare needs a test split in the manifest")
    rows = compare_optimizers(train_set, cfg, kinds, val_set)
    lines = ["optimizer,auc_percent"]
    lines += [f"{kind},{100 * auc:.2f}" for kind, auc in rows]
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return 0


def _threshold(args, model) -> float:
    threshold = model.default_threshold if args.threshold is None else args.threshold
    if not math.isfinite(threshold):
        raise ConfigError(f"--threshold must be finite, got {threshold}")
    return threshold


def _cmd_score(args) -> int:
    model = load_model(args.model)
    m = read_features(args.features)
    assemble_bag(m, label=1, bag_id=Path(args.features).name)  # refuses a video of no clips
    scores = score_rows(model, m.values)  # casts the float32 rows to float64, exactly
    threshold = _threshold(args, model)
    top = float(scores.max())
    verdict = "+1" if top > threshold else "-1"
    print("clip,score")
    for i, s in enumerate(scores):
        print(f"{i},{s:.10g}")
    print(f"# bag_score={top:.10g} threshold={threshold:.10g} verdict={verdict}")
    return 0


def _eval_bags(args):
    manifest = _require(args.manifest, "--manifest")
    return pool_bags(load_dataset(manifest, split=args.split).bags, args.segments)


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    threshold = _threshold(args, model)
    report = evaluate_bags(model, _eval_bags(args), threshold=threshold)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_roc(args) -> int:
    model = load_model(args.model)
    bags = _eval_bags(args)
    curve = roc_auc(score_bags(model, bags))
    lines = ["fpr,tpr,threshold"]
    lines += [f"{f:.10g},{t:.10g},{th:.10g}" for f, t, th in curve.points]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(f"AUC {curve.auc:.6f} ({100 * curve.auc:.2f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        # argparse resolves the flag, so an abbreviation such as --conf counts too
        args = parser.parse_args(raw)
        if args.config is not None:
            _apply_config(subparsers, _load_config(args.config))
            args = parser.parse_args(raw)
        return args.func(args)
    except (ConfigError, ValidationError, TrainingAbort) as exc:
        print(f"milvid: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size flag asked for more memory than the machine can map
        print(f"milvid: error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"milvid: error: {exc}", file=sys.stderr)
        return 2
    except MilvidError as exc:
        print(f"milvid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
