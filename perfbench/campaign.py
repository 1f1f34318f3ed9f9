"""One measured campaign, run inside a process forked for it alone.

A fresh process per campaign keeps one campaign's peak RSS, GC state and
heap out of the next campaign's readings.  Only public entry points are
called: ``Fleet``/``Fleet.build``/``Fleet.run``,
``Dataset.from_collector`` and ``build_report`` for the monolithic
workloads, ``run_sharded_campaign`` (work-stealing backend, a shard cache
directory, default merge) for ``sharded``.

The timed span runs from the first call until the result is plain data
and the campaign's objects are released, including the cyclic-GC pass
they leave behind, which users pay on every campaign of a sweep.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import shutil
import tempfile
import time
from typing import Any, Dict

from probes import Recorder, install, summarize
from workloads import SHARDS, Workload, sharded_workers

perf_counter = time.perf_counter


def summary_digest(summary: Dict[str, Any]) -> str:
    """Content hash of a summary's sections and ground truth."""
    payload = json.dumps(
        {"sections": summary["sections"], "ground_truth": summary["ground_truth"]},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _headline(config, summary: Dict[str, Any]) -> str:
    """The paper-versus-measured table of the campaign's headline figures."""
    from repro.experiments.compare import headline_comparison
    from repro.experiments.summary import CampaignSummary

    plain = CampaignSummary(
        config=config.to_dict(),
        ground_truth=summary["ground_truth"],
        sections=summary["sections"],
    )
    return headline_comparison(plain).render()


def run_campaign(workload: Workload, seed: int, mode: str, workdir: str) -> Dict[str, Any]:
    """Run and measure one campaign in this process; JSON-native result.

    ``mode`` is ``plain`` (the untraced end-to-end run), ``spans`` or
    ``profile`` (the two traced runs; see :mod:`probes`).
    """
    config = workload.config(seed)
    if workload.sharded:
        sample = _run_sharded(config, mode, workdir)
    else:
        sample = _run_monolithic(config, mode)
    summary = sample.pop("summary")
    sample["digest"] = summary_digest(summary)
    sample["headline"] = _headline(config, summary)
    sample["phones"] = config.fleet.phone_count
    sample["seed"] = seed
    return sample


def _run_monolithic(config, mode: str) -> Dict[str, Any]:
    from repro.analysis.ingest import Dataset
    from repro.analysis.report import build_report
    from repro.observability.telemetry import Telemetry
    from repro.phone.fleet import Fleet

    rec = Recorder()
    if mode != "plain":
        install(rec, mode)
    telemetry = Telemetry("metrics" if mode == "profile" else "off")
    profiler = cProfile.Profile() if mode == "profile" else None
    counters: Dict[str, float] = {}
    gc.collect()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    if profiler is not None:
        profiler.enable()
    with telemetry.installed():
        fleet = Fleet(config.fleet, seed=config.seed)
        fleet.build()
        setup_end = perf_counter()
        fleet.run()
        dataset = Dataset.from_collector(fleet.collector, end_time=config.fleet.duration)
        with rec.span("report"):
            report = build_report(dataset, window=config.coalescence_window)
        summary = {"ground_truth": fleet.ground_truth(), "sections": report.to_dict()}
        events = fleet.sim.events_fired
        records = fleet.collector.total_lines
        if telemetry.metrics:
            fleet.sample_metrics(telemetry.registry)
            counters = telemetry.registry.counter_totals()
        del fleet, dataset, report
        gc.collect()
    end = perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if profiler is not None:
        profiler.disable()
        rec.add_profile(profiler)
    peak_mb = usage1.ru_maxrss / 1024.0
    return {
        "wall_s": end - start,
        "cpu_s": _cpu(usage1) - _cpu(usage0),
        "setup_s": setup_end - start,
        "events": events,
        "records": records,
        "workers": 1,
        "peak_rss_mb": peak_mb,
        # The campaign process is the one that simulates phones.
        "worker_peak_rss_mb": peak_mb,
        "summary": summary,
        "probes": summarize(rec.batches()),
        "counters": counters,
    }


def _run_sharded(config, mode: str, workdir: str) -> Dict[str, Any]:
    from repro.experiments.shard import run_sharded_campaign, shard_cache
    from repro.observability.metrics import MetricsRegistry

    flush_dir = tempfile.mkdtemp(prefix="flush-", dir=workdir)
    cache_dir = tempfile.mkdtemp(prefix="shards-", dir=workdir)
    rec = Recorder(flush_dir)
    install(rec, "minimal" if mode == "plain" else mode)
    workers = sharded_workers()
    try:
        gc.collect()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        result = run_sharded_campaign(
            config,
            shards=SHARDS,
            workers=workers,
            cache=shard_cache(cache_dir),
            executor="workqueue",
            telemetry_level="metrics" if mode == "profile" else None,
        )
        summary = {
            "ground_truth": result.summary.ground_truth,
            "sections": result.summary.sections,
        }
        telemetry = result.summary.telemetry
        events = result.events_fired
        executor = {
            "ranges": result.shard_count,
            "steals": result.stats.steals,
            "retries": result.stats.task_retries,
        }
        del result
        gc.collect()
        end = perf_counter()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        probes = summarize(rec.batches())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(flush_dir, ignore_errors=True)
    counters: Dict[str, float] = {}
    if telemetry:
        counters = MetricsRegistry.from_dict(telemetry["metrics"]).counter_totals()
    return {
        "wall_s": end - start,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(children1) - _cpu(children0),
        "events": events,
        "records": int(probes["counts"].get("ingest.records", 0)),
        "workers": workers,
        "peak_rss_mb": self1.ru_maxrss / 1024.0,
        "worker_peak_rss_mb": children1.ru_maxrss / 1024.0,
        "executor": executor,
        "summary": summary,
        "probes": probes,
        "counters": counters,
    }
