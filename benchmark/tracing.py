"""Span tracing for the benchmark's traced run.

The tracer wraps every public function of each ``spotalign`` module (plus
``Tape.backward``) from outside the package: each module attribute bound to
an original function is rebound to a wrapper that records a span
``[name, start, end, parent]``.  Module code looks globals up at call time,
so calls inside the package, operator sugar on ``DiffTensor`` included, go
through the wrappers.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its direct child spans
cover.  Self times of all spans under one top-level call therefore add up to
that call's duration, which the self-test checks.
"""

from __future__ import annotations

import gc
import inspect
import os
import time
from collections import defaultdict

MODULES = ("autodiff", "model", "grouping", "losses", "trainer", "evaluation", "data_io", "render", "cli")


class TapeNodeCounter:
    """Records ``len(tape)`` at every ``Tape.backward`` call: nodes per step.

    Cheap enough (one ``len`` per training step) to stay installed in the
    untraced run, where it feeds the environment record.
    """

    def __init__(self, tape_cls):
        self.nodes: list[int] = []
        self._cls = tape_cls
        self._original = tape_cls.backward
        nodes = self.nodes
        original = self._original

        def backward(tape, loss):
            nodes.append(len(tape))
            return original(tape, loss)

        tape_cls.backward = backward

    def close(self) -> None:
        self._cls.backward = self._original


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gc_ms = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [getattr(pkg, name) for name in MODULES]
        bound = [pkg] + modules
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn, _HOOKS.get(f"{short}.{attr}"))
                for owner in bound:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
        tape = pkg.autodiff.Tape
        self._patch(tape, "backward", self._wrap("autodiff.Tape.backward", tape.backward, _tape_nodes))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()
        self.counters = defaultdict(float)
        self.gc_ms = 0.0
        self.gc_collections = 0

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3
            self.gc_collections += 1

    # -- analysis -------------------------------------------------------

    def summary(self) -> dict:
        """Per-function self time, inclusive time and call count, plus the
        per-layer self-time totals and the counters, for the spans so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        per_fn: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = per_fn.setdefault(name, {"self_ms": 0.0, "incl_ms": 0.0, "calls": 0})
            row["self_ms"] += (end - start - child[i]) * 1e3
            row["incl_ms"] += (end - start) * 1e3
            row["calls"] += 1
        per_layer: dict[str, float] = {name: 0.0 for name in MODULES}
        for name, row in per_fn.items():
            per_layer[name.split(".", 1)[0]] += row["self_ms"]
        return {
            "functions": per_fn,
            "layers": per_layer,
            "counters": dict(self.counters),
            "gc_ms": self.gc_ms,
            "gc_collections": self.gc_collections,
            "spans": len(spans),
            "self_ms_total": sum(row["self_ms"] for row in per_fn.values()),
        }


# -- counters recorded at layer boundaries -------------------------------


def _tape_nodes(counters, args, result) -> None:
    counters["autodiff.tape_nodes.sum"] += len(args[0])
    counters["autodiff.tape_nodes.steps"] += 1


def _global_scores(counters, args, result) -> None:
    n, heads = args[1].shape[0], args[2].heads
    score_mb = heads * n * n * 8 / 1e6  # one float64 score tensor per block
    counters["model.global_encode.score_mb"] = max(counters["model.global_encode.score_mb"], score_mb)


def _kmeans(counters, args, result) -> None:
    counters["grouping.kmeans.points"] += args[0].shape[0]
    counters["grouping.kmeans.n_iter"] += result.n_iter


def _read_bytes(counters, args, result) -> None:
    counters["data_io.read_bytes"] += os.path.getsize(args[0])


def _write_bytes(counters, args, result) -> None:
    counters["data_io.write_bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "model.global_encode": _global_scores,
    "grouping.kmeans": _kmeans,
    "data_io.read_container": _read_bytes,
    "data_io.write_container": _write_bytes,
}
