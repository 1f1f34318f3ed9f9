"""The executor layer: backends, stealing, and crash healing.

:mod:`repro.experiments.executors` promises that *how* campaigns run —
serial loop or work-stealing queue workers — never changes *what* they
produce.  These tests pin backend resolution, the
bit-identity of every backend against the serial oracle, dispatch-time
work stealing, failure identity (which phone range was in flight), and
the coordinator's healing when a worker process is killed outright.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.clock import MONTH
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_SERIAL,
    EXECUTOR_WORKQUEUE,
    EXECUTORS,
    CampaignExecutionError,
    ExecutorStats,
    SerialExecutor,
    WorkQueueExecutor,
    get_executor,
)
from repro.experiments.runner import run_campaigns
from repro.experiments.shard import (
    ShardTask,
    merge_shard_files,
    plan_shards,
    shard_config_size,
    split_shard_config,
)
from repro.experiments.summary import CampaignSummary
from repro.observability.telemetry import (
    TELEMETRY_METRICS,
    TELEMETRY_OFF,
    TELEMETRY_TRACE,
    Telemetry,
)
from repro.phone.fleet import FleetConfig

SEEDS = [7, 8, 9]


def tiny_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        fleet=FleetConfig(phone_count=3, duration=1.0 * MONTH), seed=seed
    )


def small_campaign(seed: int = 1234, phones: int = 12) -> CampaignConfig:
    fleet = FleetConfig(
        phone_count=phones,
        duration=0.5 * MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.1,
    )
    return CampaignConfig(fleet=fleet, seed=seed)


def canonical(summary: CampaignSummary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def serial_summaries():
    return run_campaigns([tiny_config(seed) for seed in SEEDS], workers=1)


# -- backend resolution ---------------------------------------------------------


def test_get_executor_resolution():
    assert isinstance(get_executor(None, 1), SerialExecutor)
    assert isinstance(get_executor(None, 4), WorkQueueExecutor)
    assert isinstance(get_executor(EXECUTOR_SERIAL, 4), SerialExecutor)
    # One worker cannot fan out: every name degrades to serial.
    assert isinstance(get_executor(EXECUTOR_WORKQUEUE, 1), SerialExecutor)
    queue = get_executor(EXECUTOR_WORKQUEUE, 2)
    assert isinstance(queue, WorkQueueExecutor) and queue.workers == 2
    with pytest.raises(ValueError, match="unknown executor"):
        get_executor("threads", 4)
    with pytest.raises(ValueError, match="workers"):
        WorkQueueExecutor(0)


def test_executor_stats_shape_and_single_mirror():
    stats = ExecutorStats(backend=EXECUTOR_WORKQUEUE)
    stats.steals = 3
    stats.task_retries = 2
    stats.serial_fallbacks = 1
    snapshot = stats.to_dict()
    for key in (
        "executor.steals_total",
        "executor.task_retries_total",
        "executor.resumed_shards_total",
        "executor.worker_restarts_total",
        "executor.respawn_failures_total",
        "executor.watchdog_fires_total",
        "executor.serial_fallbacks_total",
    ):
        assert key in snapshot
    tel = Telemetry(TELEMETRY_METRICS)
    stats.sample(tel)
    totals = tel.registry.counter_totals()
    assert totals["executor.steals_total"] == 3.0
    assert totals["executor.task_retries_total"] == 2.0
    assert totals["executor.serial_fallbacks_total"] == 1.0
    # Zero tallies never create a series.
    assert "executor.resumed_shards_total" not in totals
    # Telemetry off: sampling is a no-op, the plain ints still serve.
    stats_off = ExecutorStats()
    stats_off.steals = 1
    stats_off.sample(Telemetry(TELEMETRY_OFF))


# -- bit-identity across backends -----------------------------------------------


def test_workqueue_runner_matches_serial(serial_summaries):
    configs = [tiny_config(seed) for seed in SEEDS]
    summaries = run_campaigns(configs, workers=2)
    assert [canonical(s) for s in summaries] == [
        canonical(s) for s in serial_summaries
    ]


class _NoStartContext:
    """A multiprocessing context whose worker processes refuse to start."""

    def __init__(self) -> None:
        self.Queue = multiprocessing.get_context().Queue

    class Process:
        def __init__(self, *args, **kwargs) -> None:
            pass

        def start(self) -> None:
            raise OSError("process start denied")


def test_unstartable_workers_fall_back_to_serial_visibly(
    monkeypatch, serial_summaries
):
    """A sweep whose workers cannot start still completes in-process —
    and says so: a registry counter and a trace instant."""
    context = _NoStartContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: context)
    tel = Telemetry(TELEMETRY_TRACE)
    with tel.installed():
        summaries = run_campaigns(
            [tiny_config(seed) for seed in SEEDS], workers=2
        )
    # The in-process campaigns ran under the installed telemetry, so
    # only their results, not their telemetry snapshots, are compared.
    assert [s.sections for s in summaries] == [
        s.sections for s in serial_summaries
    ]
    totals = tel.registry.counter_totals()
    assert totals["executor.serial_fallbacks_total"] == 1.0
    assert len(tel.tracer.spans_named("serial fallback")) == 1


def test_unstartable_shard_workers_fall_back_to_serial(
    monkeypatch, tmp_path
):
    context = _NoStartContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: context)
    config = small_campaign(phones=8)
    plan = plan_shards(config, 2)
    backend = WorkQueueExecutor(2, steal=False)
    completed = backend.execute_shards(
        [(c.fleet.resolved_range(), c) for c in plan],
        ShardTask(),
        str(tmp_path),
        tel=Telemetry(TELEMETRY_OFF),
    )
    assert [rng for rng, _cfg in completed] == [
        c.fleet.phone_range for c in plan
    ]
    assert backend.stats.serial_fallbacks == 1


def test_sharded_run_mirrors_stats_once(tmp_path):
    """The sharded campaign owns the run: its tallies cover that run
    only, even on a reused executor, and its registry counters equal
    them exactly."""
    from repro.experiments.shard import run_sharded_campaign, shard_cache

    config = small_campaign(phones=12)
    cache = shard_cache(str(tmp_path))
    backend = SerialExecutor()
    for _ in range(2):
        run_sharded_campaign(config, shards=3, cache=cache, executor=backend)
    tel = Telemetry(TELEMETRY_METRICS)
    with tel.installed():
        result = run_sharded_campaign(
            config, shards=3, cache=cache, executor=backend
        )
    totals = tel.registry.counter_totals()
    assert result.stats.resumed_shards == 3
    assert totals["executor.resumed_shards_total"] == 3.0


# -- splitting / stealing -------------------------------------------------------


def test_split_shard_config_halves_and_bottoms_out():
    config = small_campaign(phones=9)
    [whole] = plan_shards(config, 1)
    assert shard_config_size(whole) == 9
    left, right = split_shard_config(whole)
    assert left.fleet.phone_range == (0, 4)
    assert right.fleet.phone_range == (4, 9)
    assert shard_config_size(left) + shard_config_size(right) == 9
    single = left
    while shard_config_size(single) > 1:
        single, _ = split_shard_config(single)
    assert split_shard_config(single) is None


def test_workqueue_steals_from_skewed_plan(tmp_path):
    """A deliberately long-tailed plan gets split at dispatch time, the
    executed tiling is finer than the planned one, and the merged
    summary still matches the monolithic run bit for bit."""
    config = small_campaign(phones=12)
    from repro.experiments.campaign import run_campaign

    mono = CampaignSummary.from_result(run_campaign(config))
    plan = plan_shards(config, 2, weights=[11, 1])
    backend = WorkQueueExecutor(2, min_split_phones=2)
    completed = backend.execute_shards(
        [(c.fleet.resolved_range(), c) for c in plan],
        ShardTask(),
        str(tmp_path),
        tel=Telemetry(TELEMETRY_OFF),
        splitter=split_shard_config,
        size_fn=shard_config_size,
    )
    assert backend.stats.steals >= 1
    assert len(completed) > len(plan)
    merged = merge_shard_files(
        [
            type(
                "C", (), {"phone_range": rng, "path": _commit_path(tmp_path, cfg)}
            )()
            for rng, cfg in completed
        ],
        config,
    )
    assert json.dumps(merged.summary.to_dict(), sort_keys=True) == canonical(
        mono
    )
    assert merged.events_fired > 0


def _commit_path(tmp_path, config):
    from repro.experiments.cache import CampaignCache

    return CampaignCache(str(tmp_path)).path_for(config)


# -- failure identity -----------------------------------------------------------


class ExplodeRange(ShardTask):
    """Fails permanently for one phone range, succeeds elsewhere."""

    def __init__(self, victim_start: int) -> None:
        super().__init__()
        self.victim_start = victim_start

    def __call__(self, config):
        if config.fleet.resolved_range()[0] == self.victim_start:
            raise RuntimeError("shard detonated")
        return super().__call__(config)


def test_workqueue_failure_carries_phone_range(tmp_path):
    config = small_campaign(phones=12)
    plan = plan_shards(config, 3)
    victim = plan[1].fleet.phone_range
    backend = WorkQueueExecutor(2, steal=False)
    with pytest.raises(CampaignExecutionError) as excinfo:
        backend.execute_shards(
            [(c.fleet.resolved_range(), c) for c in plan],
            ExplodeRange(victim[0]),
            str(tmp_path),
            tel=Telemetry(TELEMETRY_OFF),
            retries=1,
        )
    err = excinfo.value
    assert err.phone_range == victim
    assert f"phones [{victim[0]}, {victim[1]})" in str(err)
    assert "shard detonated" in str(err)
    assert backend.stats.task_retries >= 1


# -- worker-death healing -------------------------------------------------------


class MurderousTask(ShardTask):
    """SIGKILLs its own worker process once, for one phone range.

    The flag file makes the murder one-shot: the re-dispatched attempt
    (in the respawned worker) finds the flag and completes normally.
    Never fires in the parent process, so a serial fallback cannot
    take the test runner down.
    """

    def __init__(self, victim_start: int, flag_path: str, parent_pid: int):
        super().__init__()
        self.victim_start = victim_start
        self.flag_path = flag_path
        self.parent_pid = parent_pid

    def __call__(self, config):
        if (
            config.fleet.resolved_range()[0] == self.victim_start
            and os.getpid() != self.parent_pid
            and not os.path.exists(self.flag_path)
        ):
            with open(self.flag_path, "w", encoding="utf-8") as handle:
                handle.write("murdered once\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().__call__(config)


def _processes_work() -> bool:
    try:
        proc = multiprocessing.get_context().Process(target=int)
        proc.start()
        proc.join(5)
        return proc.exitcode == 0
    except Exception:
        return False


def test_workqueue_heals_killed_worker(tmp_path):
    """kill -9 of a worker mid-shard: the coordinator detects the death,
    re-dispatches the in-flight shard, respawns a worker, and the run
    completes bit-identically — with the healing visible in stats."""
    if not _processes_work():
        pytest.skip("multiprocessing unavailable in this environment")
    config = small_campaign(phones=12)
    from repro.experiments.campaign import run_campaign

    mono = CampaignSummary.from_result(run_campaign(config))
    plan = plan_shards(config, 4)
    victim = plan[2].fleet.phone_range
    flag = str(tmp_path / "murdered.flag")
    # One worker: when it is killed there are no survivors, so healing
    # *must* go through a respawn (with 2+ workers a survivor may soak
    # up the requeued shard and no restart is needed).
    backend = WorkQueueExecutor(1, steal=False)
    completed = backend.execute_shards(
        [(c.fleet.resolved_range(), c) for c in plan],
        MurderousTask(victim[0], flag, os.getpid()),
        str(tmp_path / "commits"),
        tel=Telemetry(TELEMETRY_OFF),
        retries=0,
    )
    assert os.path.exists(flag), "the murder never happened"
    assert backend.stats.worker_restarts >= 1
    assert backend.stats.task_retries >= 1
    assert sorted(rng for rng, _cfg in completed) == sorted(
        c.fleet.phone_range for c in plan
    )
    from repro.experiments.cache import CampaignCache
    from repro.experiments.shard import CommittedShard

    commits = CampaignCache(str(tmp_path / "commits"))
    merged = merge_shard_files(
        [
            CommittedShard(rng, commits.path_for(cfg))
            for rng, cfg in completed
        ],
        config,
    )
    assert json.dumps(merged.summary.to_dict(), sort_keys=True) == canonical(
        mono
    )


class _RespawnFailsContext:
    """Real worker processes, except that every start after the first
    ``initial`` raises: the replacement for a dead worker never runs."""

    def __init__(self, initial: int) -> None:
        real = multiprocessing.get_context()
        self.Queue = real.Queue
        starts = []

        class Process(real.Process):
            def start(self) -> None:
                starts.append(self)
                if len(starts) > initial:
                    raise OSError("process start denied")
                super().start()

        self.Process = Process


def test_workqueue_counts_failed_respawn(monkeypatch, tmp_path):
    """The killed-worker case with the respawn's ``start`` failing: no
    restart is counted, the failure is tallied, mirrored and traced,
    and with no survivor the in-flight shard fails visibly."""
    if not _processes_work():
        pytest.skip("multiprocessing unavailable in this environment")
    context = _RespawnFailsContext(initial=1)
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: context)
    config = small_campaign(phones=12)
    plan = plan_shards(config, 4)
    victim = plan[2].fleet.phone_range
    flag = str(tmp_path / "murdered.flag")
    backend = WorkQueueExecutor(1, steal=False)
    tel = Telemetry(TELEMETRY_TRACE)
    with pytest.raises(CampaignExecutionError, match="WorkerDied"):
        backend.execute_shards(
            [(c.fleet.resolved_range(), c) for c in plan],
            MurderousTask(victim[0], flag, os.getpid()),
            str(tmp_path / "commits"),
            tel=tel,
            retries=0,
        )
    assert os.path.exists(flag), "the murder never happened"
    assert backend.stats.worker_restarts == 0
    assert backend.stats.respawn_failures == 1
    assert backend.stats.to_dict()["executor.respawn_failures_total"] == 1
    assert len(tel.tracer.spans_named("worker respawn failed")) == 1
    assert tel.tracer.spans_named("worker respawn") == []
    backend.stats.sample(tel)
    totals = tel.registry.counter_totals()
    assert totals["executor.respawn_failures_total"] == 1.0
    assert "executor.worker_restarts_total" not in totals


class HangOnce(ShardTask):
    """Sleeps forever for one range until the flag file exists."""

    def __init__(self, victim_start: int, flag_path: str, parent_pid: int):
        super().__init__()
        self.victim_start = victim_start
        self.flag_path = flag_path
        self.parent_pid = parent_pid

    def __call__(self, config):
        if (
            config.fleet.resolved_range()[0] == self.victim_start
            and os.getpid() != self.parent_pid
            and not os.path.exists(self.flag_path)
        ):
            with open(self.flag_path, "w", encoding="utf-8") as handle:
                handle.write("hung once\n")
            time.sleep(600)
        return super().__call__(config)


def test_workqueue_watchdog_reclaims_hung_worker(tmp_path):
    if not _processes_work():
        pytest.skip("multiprocessing unavailable in this environment")
    config = small_campaign(phones=8)
    plan = plan_shards(config, 2)
    victim = plan[1].fleet.phone_range
    flag = str(tmp_path / "hung.flag")
    backend = WorkQueueExecutor(2, steal=False)
    completed = backend.execute_shards(
        [(c.fleet.resolved_range(), c) for c in plan],
        HangOnce(victim[0], flag, os.getpid()),
        str(tmp_path / "commits"),
        tel=Telemetry(TELEMETRY_OFF),
        retries=1,
        timeout=2.0,
    )
    assert backend.stats.watchdog_fires >= 1
    assert sorted(rng for rng, _cfg in completed) == sorted(
        c.fleet.phone_range for c in plan
    )
