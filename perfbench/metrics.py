"""Metric definitions and their derivation from measured campaigns.

``BENCHMARK.json`` at the repository root names the metrics and their
units; this module only derives their values.  Every ``end_to_end`` and
``per_layer`` metric is measured on every workload.  Layers that only
some workloads run (``report`` on the monolithic ones; reduce, shard
commit and load, merge and executor on ``sharded``) are printed as extra
per-layer figures of those workloads; on the others they would read a
constant zero.

Which end-to-end figure each per-layer metric should move, and where:

* ``phone.build_*`` and ``rand.seeds_per_phone`` move ``setup_s`` on
  ``wide``; ``paper`` (25 phones) should not move.
* ``gc.*`` moves ``wall_s`` and ``cpu_s`` on ``wide`` and worker CPU on
  ``sharded``; it is small on ``paper``.
* ``<layer>.calls_per_event``, ``<layer>.self_s``, ``engine.run_s`` and
  ``bus.deliveries_per_event`` move ``cpu_s`` and ``events_per_s`` on
  ``paper`` most.
* ``collect.*`` and ``ingest.*`` (and the extra ``report.s``) move
  ``wall_s`` on ``paper``.
* The extra ``reduce.s``, ``shard.*`` and ``merge.fold_s`` move
  ``wall_s`` and ``peak_rss_mb`` on ``sharded``; ``executor.*`` moves
  ``wall_s`` and ``events_per_s`` on ``sharded`` only.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from probes import LAYER_NAMES

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

with open(SPEC_PATH, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: (name, unit) of the metrics a ``--trace 0`` and a ``--trace 1`` run report.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: Extra per-layer figures, printed only for the workloads that run them.
EXTRA_UNITS = {
    "report.s": "s",
    "reduce.s": "s",
    "shard.commit_s": "s",
    "shard.bytes_committed": "bytes",
    "shard.load_s": "s",
    "merge.fold_s": "s",
    "executor.execute_s": "s",
    "executor.ranges_executed": "count",
    "executor.steals": "count",
    "executor.retries": "count",
    "executor.worker_busy_frac": "ratio",
    "executor.idle_s": "s",
    "profile.overhead_s": "s",
}

UNITS = dict(END_TO_END + PER_LAYER)
UNITS.update(EXTRA_UNITS)


def end_to_end(sample: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced campaign."""
    values = {
        "wall_s": sample["wall_s"],
        "cpu_s": sample["cpu_s"],
        "events_per_s": sample["events"] / sample["wall_s"] / sample["workers"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "worker_peak_rss_mb": sample["worker_peak_rss_mb"],
    }
    if "setup_s" in sample:  # sharded measures set-up apart from its campaigns
        values["setup_s"] = sample["setup_s"]
    return values


def per_layer(plain: Dict[str, Any], spans: Dict[str, Any], profile: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle, extras included.

    Times come from the ``spans`` campaign (coarse wrappers and
    ``gc.callbacks`` only), call counts and self times from the
    ``profile`` campaign, so the profiler's slowdown never reaches a
    span time.
    """
    probes = spans["probes"]
    found = probes["spans"]

    def total(name: str) -> float:
        return found[name]["total"] if name in found else 0.0

    phones = spans["phones"]
    gc_figures = probes["gc"]
    ingest_s = total("ingest")
    values: Dict[str, float] = {
        "phone.build_s": total("phone.build"),
        "phone.build_us_per_phone": 1e6 * total("phone.build") / phones,
        "gc.pause_s": gc_figures["pause_s"],
        "gc.max_pause_s": gc_figures["max_pause_s"],
        "gc.collections": sum(gc_figures["collections"]),
        "engine.run_s": total("engine.run"),
        "collect.sync_s": total("collect.sync") + total("collect.finalize"),
        "collect.syncs": found["collect.sync"]["count"] if "collect.sync" in found else 0,
        "ingest.s": ingest_s,
        "ingest.records_per_s": spans["records"] / ingest_s,
        "trace.overhead_s": spans["wall_s"] - plain["wall_s"],
        "profile.overhead_s": profile["wall_s"] - plain["wall_s"],
    }
    for generation, count in enumerate(gc_figures["collections"]):
        values[f"gc.collections_gen{generation}"] = count

    layers = profile["probes"]["layers"]
    events = profile["events"]
    for layer in LAYER_NAMES:
        calls, self_s = layers.get(layer, (0, 0.0))
        values[f"{layer}.calls_per_event"] = calls / events
        values[f"{layer}.self_s"] = self_s
    values["rand.seeds_per_phone"] = layers.get("rand.derive_seed", (0, 0.0))[0] / phones
    values["bus.deliveries_per_event"] = profile["probes"]["counts"].get("bus.deliveries", 0) / events

    if "report" in found:
        values["report.s"] = total("report")
    if "executor" in spans:
        workers = spans["workers"]
        execute_s = total("executor.execute")
        busy = total("shard.task")
        commit = total("shard.commit")
        values.update(
            {
                "reduce.s": total("reduce"),
                "shard.commit_s": commit,
                "shard.bytes_committed": probes["counts"].get("shard.bytes", 0),
                "shard.load_s": total("shard.load"),
                # Self time: the fold without the file loads it nests.
                "merge.fold_s": found["merge.fold"]["self"] if "merge.fold" in found else 0.0,
                "executor.execute_s": execute_s,
                "executor.ranges_executed": found["shard.task"]["count"] if "shard.task" in found else 0,
                "executor.steals": spans["executor"]["steals"],
                "executor.retries": spans["executor"]["retries"],
                "executor.worker_busy_frac": busy / (workers * execute_s),
                # Worker time holding neither a task nor a commit.
                "executor.idle_s": workers * execute_s - busy - commit,
            }
        )
    return values


#: Wrapper count -> the program's own counter it must equal.
CROSS_CHECKS = (
    ("engine.events", "sim.events_fired_total"),
    ("bus.publishes", "bus.publish_total"),
    ("bus.deliveries", "bus.delivery_total"),
)


def cross_check(profile: Dict[str, Any]) -> List[str]:
    """Disagreements between wrapper counts and the program's counters.

    A class-level wrapper misses calls made through a bound method
    captured before it was installed; this is where that would show.
    """
    counts = profile["probes"]["counts"]
    counters = profile["counters"]
    errors = []
    for wrapped, counter in CROSS_CHECKS:
        if counter not in counters or counts.get(wrapped, 0) != counters[counter]:
            errors.append(
                f"{wrapped} counted {counts.get(wrapped, 0):.0f} by the benchmark's "
                f"wrapper but the program's {counter} reads {counters.get(counter)}"
            )
    if counts.get("engine.events", 0) != profile["events"]:
        errors.append(
            f"engine.events counted {counts.get('engine.events', 0):.0f} but the "
            f"campaign reports {profile['events']} events fired"
        )
    return errors
