#!/usr/bin/env python3
"""milvid benchmark: one command, inputs made from a seed, outputs checked.

    python3 milbench/run.py --workload desk|paper|score|all --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout: it imports milvid from ``src/``
next to this directory and refuses to run without it. With ``--trace 0`` it
measures the end-to-end metrics; with ``--trace 1`` it runs each phase once
untraced, once traced and once untraced again, and reports the per-layer
metrics (see README.md in this directory). Inputs, the
report (``<workload>-seed<N>-trace<T>.json``) and, when traced, the spans
(``...-spans.jsonl``) go under ``.milbench/`` in the checkout; the inputs
are removed when the run ends. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".milbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Workloads, why each was chosen, and every metric's name and unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def cap_threads(nproc: int) -> None:
    """At most ``nproc`` BLAS/OpenMP threads; must run before numpy loads."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict):
    import workloads

    w = workloads.WORKLOADS[name]
    work = OUT / f"work-{os.getpid()}-{name}"
    why = next(s["why"] for s in SPEC["workloads"] if s["name"] == name)
    report = {"workload": name, "why": why, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env}
    try:
        if trace:
            values, unrated, computed, tracer, checks, attempted = workloads.traced(
                w, seed, work, [m["name"] for m in SPEC["per_layer"]])
            _write_spans(tracer, OUT / f"{name}-seed{seed}-trace1-spans.jsonl")
        else:
            values, unrated, computed, checks, attempted = workloads.measure(
                w, seed, seconds, work)
        rated = SPEC["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in rated}
        report.update(metrics=metrics, unrated=unrated, computed=computed, checks=checks.results)
        failed = checks.failed
    except Exception:  # the run counts as failed; the traceback goes to stderr
        traceback.print_exc()
        metrics, attempted, failed = {}, 1, 1
        report["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(attempted=attempted, failed=failed, max_rss_mb={
        who: resource.getrusage(flag).ru_maxrss / 1024
        for who, flag in (("main", resource.RUSAGE_SELF), ("largest_child", resource.RUSAGE_CHILDREN))
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    return report, metrics, attempted, failed, path


def _write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.step, s.attrs]) + "\n")


def _print_table(report: dict, metrics: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, trace {int(report['trace'])}): "
          f"{report['why']}")
    for key, m in metrics.items():
        v = m["value"]
        shown = "null" if v is None else f"{v:.6g}"
        print(f"  {key:44s} {shown:>14s} {m['unit']}")
    for key, v in report.get("unrated", {}).items():
        print(f"  {key:44s} {json.dumps(v)} (not rated)")
    print(f"  {'max_rss_mb':44s} {json.dumps(report['max_rss_mb'])}")
    for c in report.get("checks", []):
        print(f"  check {c['name']:38s} {'ok' if c['ok'] else 'FAILED'} {json.dumps(c['detail'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination unwinds like an error: a running child is killed and
    # waited for, and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "milvid" / "__init__.py").is_file():
        print(f"error: no milvid sources at {SRC}; run from a milvid checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    import milvid

    if Path(milvid.__file__).resolve().parent != (SRC / "milvid").resolve():
        print(f"error: milvid imported from {milvid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(nproc)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        report, metrics, attempted, failed, path = run_workload(
            name, args.seed, args.seconds, bool(args.trace), env)
        _print_table(report, metrics)
        print(f"  report: {path.relative_to(ROOT)}")
        results.append((name, metrics, attempted, failed))

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{n}.{k}": m for n, ms, _, _ in results for k, m in ms.items()}
    attempted = sum(r[2] for r in results)
    failed = sum(r[3] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
