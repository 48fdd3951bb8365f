"""The benchmark's workloads and the phases each run is made of.

Every call into milvid goes through a module attribute looked up at call
time (``trainer.train``, not a name imported here), so the traced run's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import math
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from milvid import bag_model, checkpoint, evaluation, feature_store, trainer
from milvid.feature_store import FeatureMatrix, ManifestEntry, SynthConfig
from milvid.optimizers import OptimizerConfig, make_optimizer
from milvid.scorer import default_layer_dims, init_glorot_normal
from milvid.trainer import TrainConfig

import stats
from layers import TARGETS, layer_metrics
from tracer import Tracer, step_seconds

# ``milvid.objective`` is the package's re-exported function, not the module.
objective = importlib.import_module("milvid.objective")

# Bound before any wrapper is installed: counting a train's bag-gradient
# evaluations must not show up in the traced layers.
_plan_batches = trainer.plan_batches

WITNESS_RATE = 0.3
CLIPS = 32  # clips per training bag; also the pooled segment count
SETUP_REPS = 3  # at least, and until SETUP_MIN_S has passed
SETUP_MIN_S = 4.0
CHILD_TIMEOUT_S = 120.0  # a set-up or round that takes longer is killed
MIN_ROUNDS = 3  # a median over rounds ignores one round slowed by a neighbour
LOADS_PER_ROUND = 3
READS_PER_TRAIN = 2  # read rounds are short, so more of them go into each median
MIN_SCORE_SAMPLES = 1000  # per round: p99 then has 10 samples beyond it
SCORE_TOLERANCE = 1e-6  # per-video max vs evaluate_bags' bag score
AUC_FLOOR = 0.95  # test AUC every final model must reach, as in the acceptance test
AUC_TARGET = 0.95  # validation AUC that time_to_auc_s waits for


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    train_bags: int  # per class
    test_bags: int  # per class
    shift: float
    train_cfg: TrainConfig
    score_read_path: bool  # variable-length test videos, model trained in setup
    round_s: float  # a read round runs eval passes, then per-video scorings, this long each


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            dim=64,
            train_bags=100,
            test_bags=50,
            shift=3.0,
            train_cfg=TrainConfig(
                epochs=50, bags_per_batch=16, lam=0.001,
                optimizer=OptimizerConfig(kind="sgd", lr=0.01), seed=7,
            ),
            score_read_path=False,
            round_s=0.5,
        ),
        Workload(
            name="paper",
            dim=4096,
            train_bags=64,
            test_bags=32,
            shift=10.0,  # at 8, 4 epochs left some seeds' test AUC below 0.9
            train_cfg=TrainConfig(
                epochs=4, bags_per_batch=16, lam=0.001,
                optimizer=OptimizerConfig(kind="adam"), seed=7,
            ),
            score_read_path=False,
            round_s=0.5,
        ),
        Workload(
            name="score",
            dim=4096,
            train_bags=32,
            test_bags=128,
            shift=24.0,  # 12 steps of Adam in set-up must reach the AUC floor on every seed
            train_cfg=TrainConfig(
                epochs=3, bags_per_batch=16, lam=0.001,
                optimizer=OptimizerConfig(kind="adam"), seed=7,
            ),
            score_read_path=True,
            round_s=1.0,
        ),
    )
}


# -- inputs ---------------------------------------------------------------


@dataclass
class TrainRun:
    seconds: float
    bag_evals: int
    sha256: str
    first_objective: float
    last_objective: float
    time_to_auc_s: float | None
    epochs_to_auc: int | None

    @property
    def bags_per_s(self) -> float:
        return self.bag_evals / self.seconds


@dataclass
class Inputs:
    manifest: Path
    model_path: Path | None = None  # score: the model trained in setup
    setup_train: TrainRun | None = None
    setup_model: object | None = None  # hashed, then dropped, outside the timing


def setup(w: Workload, seed: int, out: Path) -> Inputs:
    """Create the workload's inputs on disk from ``seed``."""
    if not w.score_read_path:
        manifest = feature_store.synthesize_dataset(
            SynthConfig(
                dim=w.dim, n_pos_bags=w.train_bags, n_neg_bags=w.train_bags,
                instances_per_bag=CLIPS, witness_rate=WITNESS_RATE,
                shift_magnitude=w.shift, noise_std=1.0, seed=seed,
                n_pos_test=w.test_bags, n_neg_test=w.test_bags,
            ),
            out,
        )
        return Inputs(manifest)
    manifest = _write_videos(w, seed, out)
    train_set = bag_model.load_dataset(manifest, "train")
    model, run = train_once(w, train_set, None)
    model_path = out / "model.mvck"
    checkpoint.save_model(model, model_path)
    return Inputs(manifest, model_path, run, model)


def video_lengths(n: int, lo: int = 8, hi: int = 64) -> list[int]:
    """A fixed spread of clip counts from ``lo`` to ``hi``; the seed only orders it."""
    return [lo + (i * (hi - lo)) // (n - 1) for i in range(n)]


def _write_videos(w: Workload, seed: int, out: Path) -> Path:
    """Planted-witness videos as in ``synthesize_dataset``, but of varying length."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(w.dim)
    direction /= np.linalg.norm(direction)
    n_test = 2 * w.test_bags
    videos = [("train", f"train-{i:04d}", 1 if i % 2 == 0 else -1, CLIPS)
              for i in range(2 * w.train_bags)]
    labels = rng.permutation([1] * w.test_bags + [-1] * w.test_bags)
    lengths = rng.permutation(video_lengths(n_test))
    videos += [("test", f"test-{i:04d}", int(labels[i]), int(lengths[i])) for i in range(n_test)]
    entries = []
    for split, bag_id, label, n in videos:
        values = rng.normal(0.0, 1.0, size=(n, w.dim))
        if label > 0:
            where = rng.choice(n, size=math.ceil(WITNESS_RATE * n), replace=False)
            values[where] += w.shift * direction
        feature_store.write_features(FeatureMatrix(values), out / f"{bag_id}.mil1")
        entries.append(ManifestEntry(bag_id, label, f"{bag_id}.mil1", split))
    manifest = out / "manifest.jsonl"
    feature_store.write_manifest(entries, manifest)
    return manifest


def splits(w: Workload) -> tuple[str, ...]:
    return ("test",) if w.score_read_path else ("train", "test")


def feature_file_bytes(w: Workload, manifest: Path) -> int:
    """Bytes of the feature files of the splits the workload loads (computed)."""
    used = splits(w)
    return sum(
        os.path.getsize(manifest.parent / e.path)
        for e in feature_store.read_manifest(manifest)
        if e.split in used
    )


# -- phases ---------------------------------------------------------------


@dataclass
class Loaded:
    sets: dict  # split name -> dataset, for every split the workload uses
    model: object | None  # score: the model read back from disk

    @property
    def train_set(self):
        return self.sets.get("train")

    @property
    def test_set(self):
        return self.sets["test"]


def load_sets(w: Workload, manifest: Path) -> dict:
    """Read the manifest, parse MIL1 and assemble bags for every split used."""
    return {s: bag_model.load_dataset(manifest, s) for s in splits(w)}


def load(w: Workload, inputs: Inputs) -> Loaded:
    """``load_sets``, and on ``score`` the model saved in set-up too."""
    model = checkpoint.load_model(inputs.model_path) if inputs.model_path else None
    return Loaded(load_sets(w, inputs.manifest), model)


def score_all(model, datasets) -> None:
    """One eval-mode pass over every bag; builds lazily made bag matrices."""
    for s in datasets:
        evaluation.score_bags(model, list(s.bags))


def count_bag_evals(train_set, cfg: TrainConfig) -> int:
    """Bag-gradient evaluations one ``train`` call makes (computed from the plan)."""
    n_pos, n_neg = len(train_set.positives()), len(train_set.negatives())
    plan = _plan_batches(n_pos, n_neg, cfg.bags_per_batch, np.random.default_rng(0))
    return cfg.epochs * sum(len(p) + len(n) for p, n in plan)


def train_once(w: Workload, train_set, val_set):
    t0 = time.perf_counter()
    model, log = trainer.train(train_set, w.train_cfg, val_set=val_set)
    seconds = time.perf_counter() - t0
    reached = next((r for r in log.rows
                    if r.val_auc is not None and r.val_auc >= AUC_TARGET), None)
    run = TrainRun(
        seconds=seconds,
        bag_evals=count_bag_evals(train_set, w.train_cfg),
        sha256="",
        first_objective=_epoch_objective(log, log.rows[0].epoch),
        last_objective=_epoch_objective(log, log.rows[-1].epoch),
        time_to_auc_s=reached.seconds if reached else None,
        epochs_to_auc=reached.epoch if reached else None,
    )
    return model, run


def _epoch_objective(log, epoch: int) -> float:
    """Mean minibatch objective of one epoch; one minibatch alone is too noisy."""
    return float(np.mean([r.objective for r in log.rows if r.epoch == epoch]))


def model_sha256(model) -> str:
    """sha256 of ``serialize_model``; called only while no wrapper is installed."""
    return hashlib.sha256(checkpoint.serialize_model(model)).hexdigest()


def eval_pass(model, test_bags) -> float:
    """Pool every test bag to ``CLIPS`` segments and evaluate; returns the AUC."""
    pooled = [bag_model.pool_segments(b, CLIPS) for b in test_bags]
    return evaluation.evaluate_bags(model, pooled).roc.auc


def score_video(model, path: Path, entry: ManifestEntry) -> float:
    """One video end to end: read, assemble, eval-mode forward, max."""
    m = feature_store.read_features(path)
    bag = bag_model.assemble_bag(m, entry.label, entry.bag_id)
    return objective.bag_score(model, bag)[0]


def videos_of(inputs: Inputs) -> list[tuple[Path, ManifestEntry]]:
    base = inputs.manifest.parent
    return [(base / e.path, e) for e in feature_store.read_manifest(inputs.manifest)
            if e.split == "test"]


def score_samples(model, videos, min_samples: int, budget_s: float) -> list[int]:
    """Per-video latencies in ns, whole passes over the videos, until both limits are met."""
    gc.collect()
    samples = []
    clock = time.perf_counter_ns
    started = clock()
    budget_ns = budget_s * 1e9
    while len(samples) < min_samples or clock() - started < budget_ns:
        for path, e in videos:
            t0 = clock()
            score_video(model, path, e)
            samples.append(clock() - t0)
    return samples


# -- checks ---------------------------------------------------------------


@dataclass
class Checks:
    results: list[dict] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail) -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def check_model(w: Workload, checks: Checks, model, test_set, video_scores: dict) -> float:
    """Test-AUC floor and per-video max against evaluate_bags' bag scores."""
    bags = list(test_set.bags)
    auc = evaluation.evaluate_bags(model, bags).roc.auc
    checks.add("test_auc_floor", auc >= AUC_FLOOR, {"auc": auc, "floor": AUC_FLOOR})
    reference = dict(zip((b.bag_id for b in bags),
                         (s for s, _ in evaluation.score_bags(model, bags))))
    worst = max(abs(video_scores[k] - reference[k]) for k in reference)
    checks.add("per_video_max_matches_eval",
               set(video_scores) == set(reference) and worst <= SCORE_TOLERANCE,
               {"videos": len(reference), "max_abs_diff": worst})
    return auc


def check_training(checks: Checks, runs: list[TrainRun]) -> None:
    checks.add("objective_decreases",
               all(r.last_objective < r.first_objective for r in runs),
               [[r.first_objective, r.last_objective] for r in runs])
    checks.add("bitwise_determinism", len({r.sha256 for r in runs}) == 1 and len(runs) >= 2,
               sorted({r.sha256 for r in runs}))


# -- runs -----------------------------------------------------------------


def in_child(work: Path, task: str, *args):
    """``task(*args)``, a function of this module, in a fresh Python process.

    Returns (seconds the child took to import numpy, milvid and the harness,
    the task's result). The child is waited for on every path; one that runs
    past ``CHILD_TIMEOUT_S`` is killed, and any failure raises here.
    """
    result = work / "child-result.pickle"
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")), str(result)],
                   input=pickle.dumps((task, args)), stdout=sys.stderr,
                   check=True, timeout=CHILD_TIMEOUT_S)
    try:
        return pickle.loads(result.read_bytes())
    finally:
        result.unlink()


def measure(w: Workload, seed: int, seconds: float, work: Path):
    """The untraced run: every end-to-end metric.

    Each set-up runs ``timed_setup`` in a fresh process and is timed with
    the import there. It runs at least ``SETUP_REPS`` times and for at
    least ``SETUP_MIN_S``. ``load_mem_ratio`` comes from one untimed pass.
    Then train rounds (load, train) and read rounds (load, eval passes,
    per-video scorings) run until ``seconds`` have passed, at least
    ``MIN_ROUNDS`` of each; every metric is a median over rounds.
    """
    checks = Checks()
    # Set-ups and rounds each run in a fresh process, as ``milvid`` runs do:
    # a process keeps its allocator and page state, which moved train and
    # eval rates by about 10% from one process to the next, so medians are
    # taken across processes.
    setups = []
    setup_started = time.perf_counter()
    while True:
        out = work / f"setup-{len(setups)}"
        import_s, (write_s, inputs) = in_child(work, "timed_setup", w.name, seed, out)
        setups.append((import_s + write_s, inputs))
        if len(setups) >= SETUP_REPS and time.perf_counter() - setup_started >= SETUP_MIN_S:
            break
        # Superseded inputs go before the next set-up, while the kernel
        # still holds them as dirty pages: on a disk mounted with
        # ``discard``, deleting files already written back took up to
        # 25 s. Deleting them after the next set-up instead made every
        # other desk set-up about 50% slower.
        shutil.rmtree(out)
    setup_s = time.perf_counter() - setup_started
    inputs = setups[-1][1]

    t0 = time.perf_counter()
    file_bytes = feature_file_bytes(w, inputs.manifest)
    probe_model = (checkpoint.load_model(inputs.model_path) if inputs.model_path
                   else init_glorot_normal(default_layer_dims(w.dim), 0))

    def load_and_score():  # the dataset alone: the model is loaded above
        sets = load_sets(w, inputs.manifest)
        score_all(probe_model, sets.values())
        return sets

    mem_ratio = stats.held_bytes(load_and_score) / file_bytes
    memory_s = time.perf_counter() - t0

    trains, reads = [], []
    model = None
    started = time.perf_counter()
    while (len(reads) < MIN_ROUNDS or time.perf_counter() - started < seconds
           or (not w.score_read_path and len(trains) < MIN_ROUNDS)):
        if not w.score_read_path and len(trains) * READS_PER_TRAIN <= len(reads):
            trains.append(in_child(work, "train_round", w.name, inputs)[1])
            model = trains[-1].pop("model")
        else:
            reads.append(in_child(work, "read_round", w.name, inputs, model, not reads)[1])
    rounds = trains + reads
    setup_times = [t for t, _ in setups]
    runs = [i.setup_train for _, i in setups if i.setup_train is not None]
    runs += [r["run"] for r in trains]
    check_training(checks, runs)
    test_auc = reads[0].pop("test_auc")
    checks.results.extend(reads[0].pop("checks"))
    attempted = len(setups) + 1 + sum(r["ops"] for r in rounds)

    def per_read(key):
        return [r[key] for r in reads]

    train_rates = [r.bags_per_s for r in runs]  # on score: the trains made in set-up
    metrics = {
        "setup_s": stats.median(setup_times),
        "load_s": stats.median([t for r in rounds for t in r["load_s"]]),
        "load_mem_ratio": mem_ratio,
        "train_bags_per_s": stats.median(train_rates),
        "eval_bags_per_s": stats.median(per_read("eval_bags_per_s")),
        "score_ms_p50": stats.median(per_read("score_ms_p50")),
    }
    tta = [r.time_to_auc_s for r in runs]
    unrated = {
        "score_ms_p99": {"value": stats.median(per_read("score_ms_p99")), "unit": "ms"},
        "time_to_auc_s": ({"value": stats.median(tta), "unit": "s"}
                          if tta and None not in tta else None),
        "epochs_to_auc": runs[0].epochs_to_auc,
        "auc_target": AUC_TARGET,
        "test_auc": test_auc,
        "model_sha256": runs[0].sha256,
        "rounds": {"train": len(trains), "read": len(reads)},
        "score_samples": sum(r["score_tail"]["samples"] for r in reads),
        "train_source": "set-up" if w.score_read_path else "train rounds",
        "per_round": {"train_bags_per_s": train_rates,
                      **{k: per_read(k) for k in ("eval_bags_per_s", "score_ms_p50",
                                                  "score_ms_p99", "score_tail")}},
        "repeat_s": {"setup": setup_times, "load": [t for r in rounds for t in r["load_s"]]},
        "phase_s": {"setup": setup_s, "memory": memory_s, "rounds": time.perf_counter() - started},
    }
    computed = computed_quantities(w, probe_model, file_bytes)
    return metrics, unrated, computed, checks, attempted


def timed_setup(name: str, seed: int, out: Path) -> tuple[float, Inputs]:
    """``setup`` timed; the model a set-up trains is hashed after the timing.

    Called in a fresh process by ``in_child``, which also reports the time
    the import of numpy, milvid and this module took there.
    """
    t0 = time.perf_counter()
    inputs = setup(WORKLOADS[name], seed, out)
    seconds = time.perf_counter() - t0
    if inputs.setup_model is not None:
        inputs.setup_train.sha256 = model_sha256(inputs.setup_model)
        inputs.setup_model = None
    return seconds, inputs


def _timed_loads(w: Workload, inputs: Inputs, out: dict) -> Loaded:
    loaded = None
    for _ in range(LOADS_PER_ROUND):
        loaded = None
        gc.collect()
        t0 = time.perf_counter()
        loaded = load(w, inputs)
        out["load_s"].append(time.perf_counter() - t0)
    out["ops"] += LOADS_PER_ROUND
    score_all(loaded.model or init_glorot_normal(default_layer_dims(w.dim), 0),
              loaded.sets.values())
    return loaded  # with lazily built bag matrices already built


def train_round(name: str, inputs: Inputs) -> dict:
    """Timed loads, then one timed ``train``; returns the model too."""
    w = WORKLOADS[name]
    out = {"load_s": [], "ops": 1}
    loaded = _timed_loads(w, inputs, out)
    gc.collect()
    model, run = train_once(w, loaded.train_set, loaded.test_set)
    run.sha256 = model_sha256(model)
    out.update(run=run, model=model)
    return out


def read_round(name: str, inputs: Inputs, model, check: bool) -> dict:
    """Timed loads, eval passes and per-video scorings with ``model``.

    ``model`` is None on ``score``, which reads its model from disk. The
    eval and per-video paths get one untimed warm-up pass; the warm-up's
    scores feed the model checks when ``check`` is set.
    """
    w = WORKLOADS[name]
    out = {"load_s": [], "ops": 0}
    loaded = _timed_loads(w, inputs, out)
    model = model or loaded.model
    test_bags = list(loaded.test_set.bags)
    videos = videos_of(inputs)
    eval_pass(model, test_bags)
    scores = {e.bag_id: score_video(model, path, e) for path, e in videos}
    out["ops"] += 1 + len(videos)
    if check:
        checks = Checks()
        out["test_auc"] = check_model(w, checks, model, loaded.test_set, scores)
        out["checks"] = checks.results

    gc.collect()
    passes = 0
    t0 = time.perf_counter()
    while passes < 1 or time.perf_counter() - t0 < w.round_s:
        eval_pass(model, test_bags)
        passes += 1
    out["eval_bags_per_s"] = passes * len(test_bags) / (time.perf_counter() - t0)

    samples = score_samples(model, videos, MIN_SCORE_SAMPLES, w.round_s)
    out["score_ms_p50"] = stats.percentile(samples, 50) / 1e6
    out["score_ms_p99"] = stats.percentile(samples, 99) / 1e6
    pct, value, n = stats.tail_percentile(samples)
    out["score_tail"] = {"percentile": pct, "ms": value / 1e6, "samples": n}
    out["ops"] += passes + len(samples)
    return out


def computed_quantities(w: Workload, model, file_bytes: int) -> dict:
    """Sizes and operation counts derived from shapes and files, not measured."""
    dims = model.config.layer_dims
    dense = sum(a * b for a, b in zip(dims, dims[1:]))
    param_bytes = sum(p.nbytes for p in model.param_list())
    slots = len(make_optimizer(w.train_cfg.optimizer).slot_names)
    return {
        "layer_dims": list(dims),
        "flops_per_row_forward": 2 * dense,
        "flops_per_row_backward": 4 * dense,
        "param_bytes": param_bytes,
        "optimizer_bytes_per_step": param_bytes * (2 + slots),
        "train_checkpoint_array_bytes": param_bytes * (1 + slots),
        "model_file_bytes": len(checkpoint.serialize_model(model)),
        "feature_file_bytes": file_bytes,
    }


def core_pass(w: Workload, seed: int, d: Path, tracer=None) -> dict:
    """Each phase once: set-up, load, train, one eval pass, 1000+ video scorings."""
    phase = tracer.phase if tracer is not None else (lambda name: contextlib.nullcontext())
    with phase("bench.setup"):
        inputs = setup(w, seed, d)
    with phase("bench.load"):
        loaded = load(w, inputs)
    if w.score_read_path:
        model, run, sha_of = loaded.model, inputs.setup_train, inputs.setup_model
    else:
        with phase("bench.train"):
            model, run = train_once(w, loaded.train_set, loaded.test_set)
        sha_of = model
    test_bags = list(loaded.test_set.bags)
    with phase("bench.eval"):
        eval_pass(model, test_bags)
    videos = videos_of(inputs)
    with phase("bench.score"):
        scores = {e.bag_id: score_video(model, path, e) for path, e in videos}
        samples = score_samples(model, videos, MIN_SCORE_SAMPLES, 0.0)
    ops = (2 if w.score_read_path else 3) + 1 + len(scores) + len(samples)
    return {"model": model, "run": run, "sha_of": sha_of, "test_set": loaded.test_set,
            "scores": scores, "ops": ops, "manifest": inputs.manifest}


def traced(w: Workload, seed: int, work: Path, metric_names):
    """The traced run: the core pass untraced, traced, then untraced again.

    The first pass only warms allocator, page cache and BLAS; the overhead
    ratio compares the traced pass with the second untraced one.
    """
    checks = Checks()
    runs = []
    seconds = []
    attempted = 0
    tracer = Tracer()
    for on in (False, True, False):
        d = work / f"pass-{len(seconds)}"
        if on:
            tracer.install(TARGETS)
        try:
            t0 = time.perf_counter()
            out = core_pass(w, seed, d, tracer if on else None)
            seconds.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        out["run"].sha256 = model_sha256(out["sha_of"])
        runs.append(out["run"])
        attempted += out["ops"]
        if on:
            test_auc = check_model(w, checks, out["model"], out["test_set"], out["scores"])
            computed = computed_quantities(w, out["model"], feature_file_bytes(w, out["manifest"]))
        del out
        shutil.rmtree(d)  # while its pages are still dirty, so the delete is quick
    check_training(checks, runs)
    values = layer_metrics(tracer.spans, tracer.absent, seconds[1] / seconds[2], metric_names)
    unrated = {
        "test_auc": test_auc,
        "model_sha256": runs[0].sha256,
        "pass_s": {"untraced": [seconds[0], seconds[2]], "traced": seconds[1]},
        "absent_targets": sorted(tracer.absent),
        "spans": len(tracer.spans),
        "step_ms_tail": dict(zip(("percentile", "ms", "samples"), stats.tail_percentile(
            [1000.0 * t for t in step_seconds(tracer.spans)]))),
    }
    return values, unrated, computed, tracer, checks, attempted
