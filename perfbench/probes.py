"""Benchmark-side probes: spans, GC pauses, call counts and a layer profile.

Nothing here edits the program.  The probes are class- and module-level
wrappers that the benchmark installs around each layer's public calls,
``gc.callbacks``, and a cProfile pass whose entries are mapped from
module to layer.  Every campaign runs in its own forked process, so the
wrappers are installed there and never removed.

Shard workers fork from the campaign process and inherit the wrappers.
They leave through ``os._exit``, which skips ``atexit``, so each worker
appends what it recorded to ``<flush_dir>/<pid>.jsonl`` right after it
commits a shard, and the campaign process reads those files back.

Levels (see :func:`install`):

``minimal``
    ``Fleet`` construction and build, ``Dataset.from_collector`` (which
    also counts the records collected) and ``CampaignCache.put`` (which
    flushes).  A handful of calls per shard; ``sharded``'s record count
    lives in its workers, so its end-to-end runs carry these.
``spans``
    ``minimal`` plus every other layer boundary the per-layer metrics
    name, and ``gc.callbacks``.
``profile``
    ``minimal`` plus per-event counting wrappers on the engine's
    scheduling calls and on ``EventBus.publish``, and a cProfile pass per
    shard task.  The monolithic workloads profile the whole campaign
    process instead.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

perf_counter = time.perf_counter

#: Layers whose per-event cost the profile reports, keyed by module path
#: relative to the ``repro`` package (a trailing ``/`` is a subpackage).
PROFILE_LAYERS = (
    ("core/engine.py", "core.engine"),
    ("core/events.py", "core.events"),
    ("core/rand.py", "core.rand"),
    ("symbian/", "symbian"),
    ("phone/", "phone"),
    ("logger/", "logger"),
)
LAYER_NAMES = tuple(layer for _prefix, layer in PROFILE_LAYERS)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


class Recorder:
    """What one process recorded since its last flush."""

    def __init__(self, flush_dir: Optional[str] = None) -> None:
        self.owner = os.getpid()
        self.flush_dir = flush_dir
        self._gc_started = 0.0
        self.reset()
        # A forked worker starts empty: what this process recorded before
        # the fork (an open executor span, GC pauses) is not the worker's.
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        #: [name, start, end, index of the enclosing span or -1]
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self.counts: Dict[str, float] = {}
        self.gc = {"pause_s": 0.0, "max_pause_s": 0.0, "collections": [0, 0, 0]}
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        pause = perf_counter() - self._gc_started
        self.gc["pause_s"] += pause
        self.gc["max_pause_s"] = max(self.gc["max_pause_s"], pause)
        self.gc["collections"][info["generation"]] += 1

    def add_profile(self, profiler: cProfile.Profile) -> None:
        for layer, (calls, seconds) in profile_layers(profiler).items():
            into = self.layers.setdefault(layer, [0, 0.0])
            into[0] += calls
            into[1] += seconds

    def batch(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "gc": self.gc,
            "layers": self.layers,
        }

    def flush_if_worker(self) -> None:
        """Append this worker's batch to its flush file and start afresh."""
        if os.getpid() == self.owner or self.flush_dir is None:
            return
        path = os.path.join(self.flush_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.batch()) + "\n")
        self.reset()

    def batches(self) -> List[Dict[str, Any]]:
        """This process's batch plus every batch a worker flushed."""
        found = [self.batch()]
        if self.flush_dir is not None:
            for name in sorted(os.listdir(self.flush_dir)):
                with open(os.path.join(self.flush_dir, name), encoding="utf-8") as handle:
                    found.extend(json.loads(line) for line in handle if line.strip())
        return found


def _module_layer(filename: str, package: str) -> Optional[str]:
    """The layer of a profiled function's file; ``None`` if not ours."""
    if filename.startswith(_BENCH_DIR):
        return "benchmark"
    if not filename.startswith(package):
        return None
    module = filename[len(package):].replace(os.sep, "/")
    for prefix, layer in PROFILE_LAYERS:
        if module == prefix or (prefix.endswith("/") and module.startswith(prefix)):
            return layer
    return "repro.other"


def profile_layers(profiler: cProfile.Profile) -> Dict[str, List[float]]:
    """Calls and self seconds per layer, plus ``derive_seed`` calls.

    A function defined in ``src/repro`` belongs to its module's layer.
    Built-ins and standard-library functions belong to the layer of the
    function that called them, split by caller, so a ``random()`` drawn
    from ``core/rand.py`` is charged to ``core.rand``; one called only
    from other non-repro code is charged to ``other``.
    """
    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    profiler.create_stats()
    totals: Dict[str, List[float]] = {}

    def add(layer: str, calls: float, seconds: float) -> None:
        into = totals.setdefault(layer, [0, 0.0])
        into[0] += calls
        into[1] += seconds

    for (filename, _line, func), (_cc, calls, self_s, _cum, callers) in profiler.stats.items():
        layer = _module_layer(filename, package)
        if layer is not None:
            add(layer, calls, self_s)
            if func == "derive_seed" and layer == "core.rand":
                add("rand.derive_seed", calls, 0.0)
            continue
        for (caller_file, _l, _f), (caller_calls, _ccc, caller_self, _ct) in callers.items():
            add(_module_layer(caller_file, package) or "other", caller_calls, caller_self)
    return totals


def summarize(batches: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold batches into span totals, counts, GC figures and layers.

    A span's self time is its duration minus the part its child spans
    cover; spans nest only within their own batch.
    """
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    gc_total = {"pause_s": 0.0, "max_pause_s": 0.0, "collections": [0, 0, 0]}
    layers: Dict[str, List[float]] = {}
    for batch in batches:
        child_time = [0.0] * len(batch["spans"])
        for _name, start, end, parent in batch["spans"]:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(batch["spans"]):
            into = spans.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            into["count"] += 1
            into["total"] += end - start
            into["self"] += end - start - child_time[index]
        for name, value in batch["counts"].items():
            counts[name] = counts.get(name, 0) + value
        gc_total["pause_s"] += batch["gc"]["pause_s"]
        gc_total["max_pause_s"] = max(gc_total["max_pause_s"], batch["gc"]["max_pause_s"])
        for gen, value in enumerate(batch["gc"]["collections"]):
            gc_total["collections"][gen] += value
        for layer, (calls, seconds) in batch["layers"].items():
            into = layers.setdefault(layer, [0, 0.0])
            into[0] += calls
            into[1] += seconds
    return {"spans": spans, "counts": counts, "gc": gc_total, "layers": layers}


# -- installation --------------------------------------------------------------


def _wrap_span(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder, level: str) -> None:
    """Install the probes of ``level`` into this process (for good)."""
    from repro.analysis.ingest import Dataset
    from repro.experiments.cache import CampaignCache
    from repro.phone.fleet import Fleet

    Fleet.__init__ = _wrap_span(rec, "phone.init", Fleet.__init__)
    Fleet.build = _wrap_span(rec, "phone.build", Fleet.build)

    from_collector = Dataset.from_collector.__func__

    def counted_from_collector(cls, collector, *args, **kwargs):
        rec.count("ingest.records", collector.total_lines)
        with rec.span("ingest"):
            return from_collector(cls, collector, *args, **kwargs)

    Dataset.from_collector = classmethod(counted_from_collector)

    put = CampaignCache.put

    def flushing_put(self, config, summary):
        with rec.span("shard.commit"):
            path = put(self, config, summary)
        rec.count("shard.bytes", os.path.getsize(path))
        rec.flush_if_worker()
        return path

    CampaignCache.put = flushing_put

    if level == "spans":
        _install_spans(rec)
    elif level == "profile":
        _install_counters(rec)


def _install_spans(rec: Recorder) -> None:
    from repro.analysis.streaming import CampaignAccumulator
    from repro.core.engine import Simulator
    from repro.experiments import shard
    from repro.experiments.executors import WorkQueueExecutor
    from repro.logger.transfer import CollectionServer
    from repro.phone.fleet import Fleet

    Simulator.run_until = _wrap_span(rec, "engine.run", Simulator.run_until)
    Fleet.sync_all = _wrap_span(rec, "collect.sync", Fleet.sync_all)
    CollectionServer.finalize = _wrap_span(
        rec, "collect.finalize", CollectionServer.finalize
    )
    CampaignAccumulator.from_dataset = classmethod(
        _wrap_span(rec, "reduce", CampaignAccumulator.from_dataset.__func__)
    )
    shard.ShardTask.__call__ = _wrap_span(rec, "shard.task", shard.ShardTask.__call__)
    shard.load_shard_file = _wrap_span(rec, "shard.load", shard.load_shard_file)
    shard.merge_shard_files = _wrap_span(rec, "merge.fold", shard.merge_shard_files)
    WorkQueueExecutor.execute_shards = _wrap_span(
        rec, "executor.execute", WorkQueueExecutor.execute_shards
    )
    gc.callbacks.append(rec.on_gc)


def _install_counters(rec: Recorder) -> None:
    from repro.core.engine import Simulator
    from repro.core.events import EventBus
    from repro.experiments import shard

    count = rec.count

    def counted(fn):
        def fire(*args):
            count("engine.events")
            return fn(*args)

        return fire

    schedule_at = Simulator.schedule_at
    schedule_after = Simulator.schedule_after

    def counted_schedule_at(self, time, fn, *args, priority=0):
        return schedule_at(self, time, counted(fn), *args, priority=priority)

    def counted_schedule_after(self, delay, fn, *args, priority=0):
        return schedule_after(self, delay, counted(fn), *args, priority=priority)

    Simulator.schedule_at = counted_schedule_at
    Simulator.schedule_after = counted_schedule_after

    publish = EventBus.publish

    def counted_publish(self, topic, *args, **kwargs):
        delivered = publish(self, topic, *args, **kwargs)
        count("bus.publishes")
        count("bus.deliveries", delivered)
        return delivered

    EventBus.publish = counted_publish

    task_call = shard.ShardTask.__call__

    def profiled_task(self, config):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return task_call(self, config)
        finally:
            profiler.disable()
            rec.add_profile(profiler)

    shard.ShardTask.__call__ = profiled_task
