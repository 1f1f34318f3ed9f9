"""Parallel multi-seed campaign runner with self-healing execution.

Every multi-seed study used to loop :func:`run_campaign` serially at
several seconds per paper-scale run.  :func:`run_campaigns` fans the
runs out over the work-queue executor instead (see
:mod:`repro.experiments.executors`):

* results come back as picklable :class:`CampaignSummary` objects, in
  **deterministic config order** regardless of completion order;
* a failing worker surfaces as :class:`CampaignExecutionError` carrying
  the failing config's seed, position, attempt count, phone range (for
  sharded slices), and the worker's full traceback;
* ``workers=1`` (or an environment where worker processes cannot start
  — sandboxes, restricted interpreters) degrades gracefully to
  in-process serial execution with identical results; a fallback is
  counted in ``executor.serial_fallbacks_total``;
* an optional :class:`~repro.experiments.cache.CampaignCache` makes
  repeated sweeps free: cached configs are never dispatched at all,
  and every fresh result is **committed to the cache the moment it
  completes** — a killed sweep resumes from its last completed
  campaign, not from scratch;
* ``retries`` re-runs a failed campaign (transient worker crashes heal
  without losing the sweep), and ``timeout`` arms a watchdog that
  reclaims hung workers instead of blocking the whole sweep;
* :func:`run_campaigns_resilient` returns a :class:`SweepManifest` —
  partial results plus a structured failure manifest — instead of
  aborting the entire sweep on one bad campaign.

Determinism holds because each campaign derives every random stream
from its own config's seed — worker scheduling cannot reorder anything
inside a run, and the output list is ordered by input position.  Retry
rounds run serially in index order, so a healed sweep is bit-for-bit
identical to one that never failed (given a deterministic task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    CampaignExecutionError,
    Executor,
    ExecutorStats,
    FailureInfo,
    format_failure,
    get_executor,
)
from repro.experiments.summary import CampaignSummary
from repro.observability.metrics import MetricsRegistry, merge_registries
from repro.observability.telemetry import (
    TELEMETRY_METRICS,
    Telemetry,
    current_telemetry,
)

__all__ = [
    "CampaignExecutionError",
    "CampaignFailure",
    "SweepManifest",
    "TelemetryTask",
    "merged_metrics",
    "run_campaigns",
    "run_campaigns_resilient",
    "summarize_campaign",
]


@dataclass
class CampaignFailure:
    """Manifest entry for one campaign that exhausted its attempts."""

    index: int
    seed: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    #: Runner-observed wall seconds of each attempt, in attempt order;
    #: one entry per counted attempt.  A hung worker shows up as an
    #: attempt pinned near the watchdog deadline.
    attempt_wall_seconds: List[float] = field(default_factory=list)
    #: The watchdog deadline armed for this campaign's work-queue
    #: attempts; ``None`` when no watchdog was armed (serial execution).
    watchdog_seconds: Optional[float] = None
    #: The fleet slice the config covered (sharded campaigns), so a
    #: failure names exactly which phone range was in flight.
    phone_range: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "attempt_wall_seconds": [
                round(wall, 6) for wall in self.attempt_wall_seconds
            ],
            "watchdog_seconds": self.watchdog_seconds,
            "phone_range": (
                list(self.phone_range) if self.phone_range is not None else None
            ),
        }


@dataclass
class SweepManifest:
    """Partial results of a sweep plus its structured failure manifest.

    ``summaries`` matches the input config order; failed slots hold
    ``None`` and are described in ``failures`` (ordered by index).
    ``recovered`` counts campaigns that failed at least once and then
    succeeded on retry — the self-healing the manifest makes visible.
    """

    summaries: List[Optional[CampaignSummary]]
    failures: List[CampaignFailure] = field(default_factory=list)
    recovered: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> List[int]:
        return [failure.index for failure in self.failures]

    def completed_summaries(self) -> List[CampaignSummary]:
        """The summaries that exist, in config order."""
        return [summary for summary in self.summaries if summary is not None]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": len(self.summaries),
            "completed": sum(1 for s in self.summaries if s is not None),
            "recovered": self.recovered,
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def merged_metrics(self) -> MetricsRegistry:
        """One registry folding every completed summary's telemetry."""
        return merged_metrics(self.completed_summaries())


def merged_metrics(
    summaries: Sequence[Optional[CampaignSummary]],
) -> MetricsRegistry:
    """Merge the sweep's per-worker telemetry registries into one.

    The merge is commutative and associative series-by-series, so the
    result is independent of worker count and scheduling: a 4-worker
    sweep merges to exactly the registry a single process accumulates
    over the same seeds.
    """
    return merge_registries(
        summary.telemetry.get("metrics", {})
        for summary in summaries
        if summary is not None and summary.telemetry
    )


def summarize_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run one campaign and snapshot it — the unit of worker work.

    Module-level (not a closure) so it pickles across the process
    boundary regardless of start method.
    """
    return CampaignSummary.from_result(run_campaign(config))


class TelemetryTask:
    """A picklable worker task that runs its campaign under telemetry.

    Each invocation installs a fresh :class:`Telemetry` at ``level``
    for the duration of its campaign, so worker processes never share
    registries; the snapshot rides back to the runner inside the
    summary (plain JSON, no pickling of live telemetry objects), where
    :func:`merged_metrics` folds the fleet back together.
    """

    #: The runner may pass the attempt number; it does not change rolls.
    accepts_attempt = False

    def __init__(self, level: str = TELEMETRY_METRICS) -> None:
        self.level = level

    def __call__(self, config: CampaignConfig) -> CampaignSummary:
        return CampaignSummary.from_result(
            run_campaign(config, telemetry=Telemetry(self.level))
        )


def run_campaigns(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    cache: Optional[object] = None,
    task: Callable[[CampaignConfig], CampaignSummary] = summarize_campaign,
    retries: int = 0,
    timeout: Optional[float] = None,
    executor: Union[str, Executor, None] = None,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> List[CampaignSummary]:
    """Run many campaigns, fanned out over ``workers`` processes.

    Args:
        configs: the campaigns to run; the result list matches this
            order exactly.
        workers: process count; ``1`` runs serially in-process.
        cache: an object with ``get(config)``/``put(config, summary)``
            (see :class:`~repro.experiments.cache.CampaignCache`);
            hits skip execution entirely, fresh results are committed
            as soon as they complete.
        task: the per-config work function.  Must be picklable when
            ``workers > 1``.  A task with an ``accepts_attempt``
            attribute is called as ``task(config, attempt=n)``.
        retries: extra attempts per failed campaign (0 = fail fast).
        timeout: per-campaign watchdog in seconds for parallel workers;
            a worker that produces no result in time is treated as hung
            and the campaign is retried or reported.  Serial execution
            cannot be preempted, so the watchdog only arms the work
            queue.
        executor: backend name (``"workqueue"``, ``"serial"``) or an
            :class:`Executor` instance; ``None`` means the work queue
            when ``workers > 1``.
        on_complete: observer called once per campaign as
            ``on_complete(index, summary)`` the moment its result is
            available — cache hits included — in completion order.
            Powers live sweep progress; a raising observer is a bug in
            the caller, not the sweep.

    Raises:
        CampaignExecutionError: when any run fails after its retries;
            ``.seed``, ``.index``, ``.attempts``, ``.phone_range``, and
            ``.traceback`` identify and explain the failing config.
    """
    manifest = _execute(
        configs, workers, cache, task, retries, timeout, executor, on_complete
    )
    if manifest.failures:
        first = manifest.failures[0]
        raise CampaignExecutionError(
            first.index,
            first.seed,
            f"{first.error_type}: {first.message}",
            traceback=first.traceback,
            attempts=first.attempts,
            phone_range=first.phone_range,
        )
    return manifest.summaries  # type: ignore[return-value]


def run_campaigns_resilient(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    cache: Optional[object] = None,
    task: Callable[[CampaignConfig], CampaignSummary] = summarize_campaign,
    retries: int = 1,
    timeout: Optional[float] = None,
    executor: Union[str, Executor, None] = None,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> SweepManifest:
    """Like :func:`run_campaigns`, but never aborts the sweep.

    Every campaign gets ``1 + retries`` attempts; whatever still fails
    is reported in the returned :class:`SweepManifest` alongside the
    summaries that did complete.  A sweep hit by transient faults
    degrades to partial results with a diagnosis, not an exception.
    """
    return _execute(
        configs, workers, cache, task, retries, timeout, executor, on_complete
    )


# -- execution engine -----------------------------------------------------------


def _call(
    task: Callable[..., CampaignSummary],
    config: CampaignConfig,
    attempt: int,
) -> CampaignSummary:
    if getattr(task, "accepts_attempt", False):
        return task(config, attempt=attempt)
    return task(config)


def _timed_call(
    tel: Telemetry,
    task: Callable[..., CampaignSummary],
    config: CampaignConfig,
    index: int,
    attempt: int,
    walls: Dict[int, List[float]],
) -> CampaignSummary:
    """One serial attempt under a runner span, wall time recorded.

    The wall measurement feeds the failure manifest whether or not the
    attempt (or telemetry) succeeds, so a manifest always explains
    where the sweep's time went.
    """
    start = perf_counter()
    try:
        with tel.span(
            "campaign.attempt",
            category="runner",
            track="runner",
            index=index,
            seed=config.seed,
            attempt=attempt,
        ):
            return _call(task, config, attempt=attempt)
    finally:
        walls.setdefault(index, []).append(perf_counter() - start)


def _execute(
    configs: Sequence[CampaignConfig],
    workers: int,
    cache: Optional[object],
    task: Callable[..., CampaignSummary],
    retries: int,
    timeout: Optional[float],
    executor: Union[str, Executor, None] = None,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> SweepManifest:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    backend = get_executor(executor, workers)
    # Tallies are per run: the one mirror below must not re-add an
    # earlier run's counts when a caller reuses an executor instance.
    backend.stats = ExecutorStats(backend=backend.name)
    configs = list(configs)
    results: List[Optional[CampaignSummary]] = [None] * len(configs)

    pending: List[int] = []
    notified: set = set()

    def notify(index: int, summary: CampaignSummary) -> None:
        if on_complete is not None and index not in notified:
            notified.add(index)
            on_complete(index, summary)

    for index, config in enumerate(configs):
        hit = cache.get(config) if cache is not None else None
        if hit is not None:
            results[index] = hit
            notify(index, hit)
        else:
            pending.append(index)

    def commit(index: int, summary: CampaignSummary) -> None:
        """Durably store one completed campaign the moment it lands."""
        results[index] = summary
        if cache is not None:
            cache.put(configs[index], summary)
        notify(index, summary)

    failed: Dict[int, FailureInfo] = {}
    attempts: Dict[int, int] = {index: 1 for index in pending}
    walls: Dict[int, List[float]] = {}
    #: Indices that ran on the parallel backend, under its watchdog.
    watched: set = set()
    tel = current_telemetry()
    recovered = 0
    if pending:
        serial = list(pending)
        if len(pending) > 1:
            outcome = backend.execute(configs, pending, task, timeout, tel, commit)
            serial = outcome.serial
            watched = set(pending) - set(serial)
            walls.update(outcome.walls)
            for index, (_config, info, tries) in outcome.failed.items():
                failed[index] = info
                attempts[index] = tries
        for index in serial:
            try:
                summary = _timed_call(tel, task, configs[index], index, 0, walls)
            except CampaignExecutionError:
                raise
            except Exception as exc:
                failed[index] = format_failure(exc)
            else:
                commit(index, summary)

        # Retry rounds: serial, in index order, so a healed sweep is
        # deterministic regardless of what failed where.
        retry_series = (
            tel.registry.counter(
                "runner.retries_total", help="campaign retry attempts"
            ).series()
            if tel.metrics
            else None
        )
        for retry in range(1, retries + 1):
            if not failed:
                break
            for index in sorted(failed):
                attempts[index] += 1
                if retry_series is not None:
                    retry_series.value += 1.0
                try:
                    summary = _timed_call(
                        tel, task, configs[index], index, retry, walls
                    )
                except CampaignExecutionError:
                    raise
                except Exception as exc:
                    failed[index] = format_failure(exc)
                else:
                    del failed[index]
                    recovered += 1
                    commit(index, summary)

    backend.stats.sample(tel)
    failures = [
        CampaignFailure(
            index=index,
            seed=configs[index].seed,
            error_type=failed[index][0],
            message=failed[index][1],
            traceback=failed[index][2],
            attempts=attempts[index],
            attempt_wall_seconds=walls.get(index, []),
            watchdog_seconds=timeout if index in watched else None,
            phone_range=configs[index].fleet.phone_range,
        )
        for index in sorted(failed)
    ]
    return SweepManifest(
        summaries=results, failures=failures, recovered=recovered
    )
