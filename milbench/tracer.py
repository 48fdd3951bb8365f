"""Spans recorded around calls into milvid's public functions.

The tracer replaces a function at every name a caller looks it up under
(a module global such as ``milvid.trainer.objective_gradient``, or a class
attribute such as ``Optimizer.step``) with a wrapper that records a span:
name, start, end, parent span and step id. Spans stay in memory until the
run ends. Nothing inside ``src/milvid`` is changed on disk, and
``uninstall`` puts every original back.

A target that no longer exists is recorded as absent, never as an error,
so metrics over it read ``null``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans
    step: int | None
    attrs: dict | None = field(default_factory=dict)  # None: counts unavailable

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``qualname`` is ``func`` or ``Class.method``. ``attrs`` maps
    (args, kwargs, result) to counts stored on the span. ``opens_step``
    starts a new step id at call entry; ``closes_step`` ends it on return.
    """

    name: str
    module: str
    qualname: str
    attrs: object = None
    opens_step: bool = False
    closes_step: bool = False


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._step: int | None = None
        self._steps = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, opens_step: bool = False) -> int:
        if opens_step:
            self._step = self._steps
            self._steps += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0, parent, self._step))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, closes_step: bool = False) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        if closes_step:
            self._step = None

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span around one benchmark phase."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ---------------------------------------------------------

    def install(self, targets: list[Target], package: str = "milvid") -> None:
        modules = _package_modules(package)
        for t in targets:
            owner, attr, original = _resolve(t)
            if original is None:
                self.absent.add(t.name)
                continue
            if owner is not None:
                # class attribute: patch the class dict, keep classmethod-ness
                raw = inspect.getattr_static(owner, attr)
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(func, t)
                self._patch(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            wrapped = self._wrap(original, t)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _patch(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, inspect.getattr_static(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, fn, t: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(t.name, t.opens_step)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, t.closes_step)
            if t.attrs is not None:
                try:
                    tracer.spans[idx].attrs = t.attrs(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the call's signature moved on: its counts read null
                    tracer.spans[idx].attrs = None
            return result

        return wrapper


def _package_modules(package: str) -> list:
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def _resolve(t: Target):
    """(owning class or None, attribute name, original object or None)."""
    try:
        obj = importlib.import_module(t.module)
    except ImportError:
        return None, t.qualname, None
    parts = t.qualname.split(".")
    owner = None
    for part in parts:
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, parts[-1], None
    if not callable(obj):
        return None, parts[-1], None
    return (owner if len(parts) > 1 else None), parts[-1], obj


# -- analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover, in s."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start - covered) / 1e9)
    return out


def ancestors(spans: list[Span], idx: int):
    p = spans[idx].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def step_seconds(spans: list[Span]) -> list[float]:
    """Wall time of each step: first span of the step id to the last one's end."""
    bounds: dict[int, list[int]] = {}
    for s in spans:
        if s.step is None:
            continue
        b = bounds.setdefault(s.step, [s.start, s.end])
        b[0] = min(b[0], s.start)
        b[1] = max(b[1], s.end)
    return [(hi - lo) / 1e9 for _, (lo, hi) in sorted(bounds.items())]
