"""Runs one task of the benchmark in a fresh Python process.

    python3 milbench/child.py RESULT < task

``task`` is a pickled ``(name, args)`` naming a function of ``workloads``.
The child imports numpy, milvid and the harness, timing that import, calls
the function and pickles ``(import seconds, result)`` to the file RESULT.
Nothing heavy is imported before the timer starts.
"""

import pickle
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    task = sys.stdin.buffer.read()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    t0 = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - t0
    name, args = pickle.loads(task)
    result = getattr(workloads, name)(*args)
    Path(sys.argv[1]).write_bytes(pickle.dumps((import_s, result)))


if __name__ == "__main__":
    main()
