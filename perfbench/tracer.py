"""In-memory span tracer for the traced benchmark run.

The traced run wraps public callables at the module (or class) where the
program looks them up, e.g. ``repro.serve.retrieval.topk_indices``; no source
file changes.  Every wrapped call records one span (name, start, end, parent).
Spans stay in memory while the workload runs and are written out at the end.
A span's self time is its duration minus the part its child spans cover
(children nest strictly: the workloads are single-threaded).

Untraced runs never construct a :class:`Tracer`, so they never install a
wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: ``(module, class or None, attribute, span name)`` for every wrapped callable.
TARGETS = (
    ("repro.serve.retrieval", None, "topk_indices", "eval.topk"),
    ("repro.serve.index", None, "topk_indices", "eval.topk"),
    ("repro.eval.protocol", None, "topk_indices", "eval.topk"),
    ("repro.serve.retrieval", None, "gather_csr_rows", "serve.mask"),
    ("repro.serve.index", None, "gather_csr_rows", "serve.mask"),
    ("repro.serve.retrieval", "Retriever", "topk_for_users", "serve.retrieval"),
    ("repro.serve.retrieval", "ExactIndex", "search", "serve.index"),
    ("repro.serve.index", "IVFIndex", "search", "serve.index"),
    ("repro.serve.service", "RecommendationService", "flush", "serve.flush"),
    ("repro.serve.service", "RecommendationService", "recommend_many", "serve.recommend_many"),
    ("repro.serve.service", "RecommendationService", "swap_snapshot", "serve.swap"),
    ("repro.obs.health", "HealthEngine", "tick", "obs.health.tick"),
    ("repro.stream.events", "EventLog", "append", "stream.wal.append"),
    ("repro.stream.updater", "StreamingUpdater", "apply", "stream.apply"),
    ("repro.stream.updater", None, "merge_into_csr", "stream.csr_merge"),
    ("repro.stream.updater", None, "fold_in_user", "stream.foldin"),
    ("repro.stream.updater", None, "build_delta_snapshot", "stream.delta_build"),
    ("repro.stream.drift", "DriftMonitor", "observe_batch", "stream.drift"),
    ("repro.stream.drift", "DriftMonitor", "check", "stream.drift"),
    ("repro.train.trainer", "Trainer", "train_epoch", "train.epoch"),
    ("repro.train.trainer", "Trainer", "evaluate", "eval.evaluate"),
)


def _owner(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


class Tracer:
    """Collects one span per call of every wrapped callable."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Targets absent from the program (reported, not fatal).
        self.missing: list[str] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for module, cls, attribute, name in TARGETS:
            owner = _owner(module, cls)
            original = vars(owner).get(attribute)
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attribute}")
                continue
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        durations = self.durations()
        result = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                result[parent] -= durations[index]
        return result

    def by_name(self) -> dict[str, dict]:
        """``name -> {"calls", "total_s", "self_s", "durations"}``."""
        durations = self.durations()
        self_times = self.self_times()
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        for name, duration, own in zip(self.names, durations, self_times):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += own
            row["durations"].append(duration)
        return dict(table)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, self)."""
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "self_s": self_times[index],
                        }
                    )
                    + "\n"
                )
