"""Campaign executors: the work-stealing queue and the serial loop.

Every campaign task — a seed of a multi-seed sweep or a phone range of
a sharded campaign — runs through one :meth:`Executor.run` call, under
one discipline: the task's result is committed to a
:class:`~repro.experiments.cache.CampaignCache` directory (atomic temp
file + rename, no ``fsync``) *before* the task is acknowledged, and the
executor alone owns retries, the watchdog, attempt numbering and the
failure record.  A commit survives a process crash, not power loss;
it is what makes sweeps and mega-fleet runs resumable after ``kill -9``
of the whole process tree, and since only a tiny acknowledgement ever
crosses a pipe, the parent's memory stays flat in task count.  Two
backends exist:

* :class:`SerialExecutor` (``"serial"``) — everything runs in-process,
  in submission order, each failed task retried in place.
  ``workers == 1`` always resolves to it, and it is the
  graceful-degradation target the queue falls back to when worker
  processes cannot start (sandboxes, restricted interpreters).
* :class:`WorkQueueExecutor` (``"workqueue"``) — N long-lived worker
  processes pulling tasks from a coordinator-managed queue; the only
  parallel backend.  Dynamic assignment alone fixes mild skew (a
  worker that finishes early just pulls the next task); for *sharded*
  campaigns the coordinator also performs **work stealing**: when the
  remaining work is concentrated in one oversized phone range, an idle
  worker is handed half of the largest pending range (split via
  ``FleetConfig.phone_range``) instead of idling while one long-tailed
  shard gates the wall clock.  Workers that die mid-task (``kill -9``,
  OOM) are detected by liveness polling; their in-flight task is
  requeued and the worker respawned.  Each worker acknowledges over a
  pipe of its own, so a worker killed mid-write can only break its own
  channel, never the coordinator's view of the others (a queue shared
  by all workers has a write lock that a killed writer never
  releases).

Attempts are numbered from 0; a task that declares ``accepts_attempt``
is called as ``task(config, attempt=n)``, any other as ``task(config)``.
A failed attempt is retried with the next number while ``retries``
last.  A worker that dies or hangs under its task gets that same
attempt re-run once more even when the retries are spent, so a single
``kill -9`` never fails a run.

Counters: every steal, task retry, worker restart, failed worker
respawn, watchdog fire, and serial fallback is tallied in an
:class:`ExecutorStats` (always, so reports and benchmarks can quote
them with telemetry off).  The layer that owns a run — the runner or
the sharded campaign — mirrors the tallies into the ambient
:class:`~repro.observability.telemetry.Telemetry` registry once, at the
end of the run, as labeled counters (``executor.steals_total`` etc.)
when metrics are enabled.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import CampaignCache
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import Telemetry

EXECUTOR_SERIAL = "serial"
EXECUTOR_WORKQUEUE = "workqueue"

#: Backend names accepted by ``get_executor``.
EXECUTORS = (EXECUTOR_SERIAL, EXECUTOR_WORKQUEUE)

#: Never steal below this many phones: a split that produces slivers
#: costs more in per-shard overhead than it recovers in balance.
DEFAULT_MIN_SPLIT_PHONES = 32

#: Dispatch-time split target: chunks aim for
#: ``remaining / (workers * OVERSUBSCRIBE)`` phones, so the tail of the
#: run always has a few chunks per worker to balance over.
OVERSUBSCRIBE = 4

#: Coordinator poll interval (seconds) while waiting for worker acks;
#: bounds how quickly dead workers and watchdog deadlines are noticed.
POLL_INTERVAL = 0.05


class CampaignExecutionError(RuntimeError):
    """A campaign run failed; carries which config it was and why.

    ``traceback`` holds the worker-side traceback text (including the
    remote traceback when the failure crossed a process boundary) and
    ``attempts`` how many tries were made, so a failed sweep member is
    diagnosable without re-running it.  ``phone_range`` pins the exact
    fleet slice that was in flight when a sharded run failed.
    """

    def __init__(
        self,
        index: int,
        seed: int,
        cause: str,
        traceback: str = "",
        attempts: int = 1,
        phone_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        where = f"campaign #{index} (seed {seed}"
        if phone_range is not None:
            where += f", phones [{phone_range[0]}, {phone_range[1]})"
        super().__init__(
            f"{where}) failed after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}: {cause}"
        )
        self.index = index
        self.seed = seed
        self.cause = cause
        self.traceback = traceback
        self.attempts = attempts
        self.phone_range = phone_range


#: (error type name, message, formatted traceback) for one failed attempt.
FailureInfo = Tuple[str, str, str]


def format_failure(exc: BaseException) -> FailureInfo:
    text = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    return type(exc).__name__, str(exc), text


#: (attribute, registry counter, help) for every :class:`ExecutorStats` tally.
_STATS_COUNTERS = (
    ("steals", "executor.steals_total", "phone ranges split for idle workers"),
    ("task_retries", "executor.task_retries_total", "tasks re-dispatched after failure"),
    ("resumed_shards", "executor.resumed_shards_total", "committed shards skipped at replan"),
    ("worker_restarts", "executor.worker_restarts_total", "workers replaced after death or hang"),
    ("respawn_failures", "executor.respawn_failures_total", "worker replacements that failed to start"),
    ("watchdog_fires", "executor.watchdog_fires_total", "hung tasks reclaimed by the watchdog"),
    ("serial_fallbacks", "executor.serial_fallbacks_total", "runs that fell back to serial"),
)


@dataclass
class ExecutorStats:
    """Plain-integer tallies of one executor run.

    Kept outside the telemetry registry so reports and benchmark
    snapshots can always quote them — telemetry defaults to off — and
    mirrored into labeled counters via :meth:`sample`, once per run.
    """

    backend: str = EXECUTOR_SERIAL
    #: Dispatch-time splits of the largest pending phone range — each
    #: one is an idle worker stealing half of a long-tailed shard.
    steals: int = 0
    #: Tasks re-dispatched after a worker error, death, or hang.
    task_retries: int = 0
    #: Committed shards skipped at (re)planning time — the resume path.
    resumed_shards: int = 0
    #: Dead or hung workers replaced with a fresh, started process.
    worker_restarts: int = 0
    #: Replacement workers whose process failed to start.
    respawn_failures: int = 0
    #: Hung tasks reclaimed by the per-task watchdog.
    watchdog_fires: int = 0
    #: Parallel runs that ran in-process because workers could not start.
    serial_fallbacks: int = 0

    def to_dict(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {"backend": self.backend}
        for attr, name, _help in _STATS_COUNTERS:
            snapshot[name] = getattr(self, attr)
        return snapshot

    def sample(self, tel: Telemetry) -> None:
        """Add the tallies to labeled registry counters.

        Not idempotent: the layer that owns the run calls it exactly
        once, after the run.
        """
        if not tel.metrics:
            return
        for attr, name, help_text in _STATS_COUNTERS:
            value = getattr(self, attr)
            if value:
                tel.registry.counter(name, help=help_text).inc(
                    float(value), backend=self.backend
                )


@dataclass
class ExecutorOutcome:
    """What one executor run committed or gave up on, keyed by task id."""

    #: Task id -> config whose result is committed in the commit dir.
    completed: "Dict[Any, CampaignConfig]" = field(default_factory=dict)
    #: Task id -> (config, last failure, attempts made).
    failed: "Dict[Any, Tuple[CampaignConfig, FailureInfo, int]]" = field(
        default_factory=dict
    )
    #: Task id -> wall seconds of each attempt, in attempt order.
    walls: "Dict[Any, List[float]]" = field(default_factory=dict)


#: A task: (task id, config) — a config index for sweeps, the phone
#: range for shards.
TaskItem = Tuple[Any, CampaignConfig]

#: Sharded tasks are keyed by their phone range.
ShardItem = Tuple[Tuple[int, int], CampaignConfig]


def _attempt(task: Callable[..., Any], config: CampaignConfig, attempt: int) -> Any:
    if getattr(task, "accepts_attempt", False):
        return task(config, attempt=attempt)
    return task(config)


class Executor:
    """One way of running many campaign tasks to durable completion.

    :meth:`run` is the one dispatch path: it runs every task, commits
    each result in ``commit_dir`` before acknowledging it, and returns
    an :class:`ExecutorOutcome`.  Per-task failures never raise — they
    land in ``outcome.failed`` with their attempt count and walls.
    :meth:`execute_shards` is :meth:`run` for a sharded campaign: it
    returns the committed tiling or raises its first failure.  The base
    implementation is the serial one.
    """

    name: str = EXECUTOR_SERIAL

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats = ExecutorStats(backend=self.name)

    def run(
        self,
        items: Sequence[TaskItem],
        task: Callable[..., Any],
        commit_dir: str,
        tel: Telemetry,
        retries: int = 0,
        timeout: Optional[float] = None,
        splitter: Optional[
            Callable[[CampaignConfig], Optional[Tuple[CampaignConfig, CampaignConfig]]]
        ] = None,
        size_fn: Optional[Callable[[CampaignConfig], int]] = None,
        live_dir: Optional[str] = None,
        progress: Optional[Callable[[Any], None]] = None,
        on_done: Optional[Callable[[Any, CampaignConfig], None]] = None,
    ) -> ExecutorOutcome:
        """Run ``items`` to durable completion in ``commit_dir``.

        ``on_done(task_id, config)`` fires as each result is committed.
        ``timeout`` arms the queue's watchdog and ``splitter``/``size_fn``
        its work stealing; the in-process loop cannot preempt or split
        a task, so it ignores them.  With ``live_dir`` set, the loop
        heartbeats executor state into the op-log and periodically
        folds the whole log into a rolling
        :class:`~repro.observability.live.LiveSnapshot` (writing
        ``metrics.prom`` and invoking ``progress``).
        """
        cache = CampaignCache(commit_dir)
        outcome = ExecutorOutcome()
        live = _live_coordinator(live_dir, self.stats, progress)
        for key, config in items:
            if live is not None:
                live.tick(pending=len(items), inflight=1, workers=1)
            walls = outcome.walls.setdefault(key, [])
            for attempt in range(retries + 1):
                if attempt:
                    self.stats.task_retries += 1
                start = perf_counter()
                try:
                    cache.put(config, _attempt(task, config, attempt))
                except Exception as exc:
                    walls.append(perf_counter() - start)
                    failure = format_failure(exc)
                    continue
                walls.append(perf_counter() - start)
                outcome.completed[key] = config
                if on_done is not None:
                    on_done(key, config)
                break
            else:
                outcome.failed[key] = (config, failure, retries + 1)
        if live is not None:
            live.tick(force=True)
            live.close()
        return outcome

    def execute_shards(
        self,
        items: Sequence[ShardItem],
        task: Callable[[CampaignConfig], Any],
        commit_dir: str,
        tel: Telemetry,
        retries: int = 0,
        timeout: Optional[float] = None,
        splitter: Optional[
            Callable[[CampaignConfig], Optional[Tuple[CampaignConfig, CampaignConfig]]]
        ] = None,
        size_fn: Optional[Callable[[CampaignConfig], int]] = None,
        live_dir: Optional[str] = None,
        progress: Optional[Callable[[Any], None]] = None,
    ) -> List[ShardItem]:
        """Run shard tasks to durable completion; returns the tiling.

        Every returned ``(phone_range, config)`` pair has its result
        committed in ``commit_dir``.  The returned ranges may be *finer*
        than the submitted ones when stealing split a long-tailed
        shard.  Raises :class:`CampaignExecutionError` (with the
        offending ``phone_range``) when a task exhausts its attempts.
        """
        outcome = self.run(
            items,
            task,
            commit_dir,
            tel,
            retries=retries,
            timeout=timeout,
            splitter=splitter,
            size_fn=size_fn,
            live_dir=live_dir,
            progress=progress,
        )
        if outcome.failed:
            config, (kind, message, text), attempts = outcome.failed[
                min(outcome.failed)
            ]
            # A sharded run is one campaign, so it is campaign #0.
            raise CampaignExecutionError(
                0,
                config.seed,
                f"{kind}: {message}",
                traceback=text,
                attempts=attempts,
                phone_range=config.fleet.phone_range,
            )
        return sorted(outcome.completed.items())


class SerialExecutor(Executor):
    """No fan-out: every task runs in-process, in submission order."""


def _live_coordinator(live_dir, stats, progress):
    if live_dir is None:
        return None
    from repro.observability.live import LiveCoordinator

    return LiveCoordinator(live_dir, stats=stats, progress=progress)


# -- work-queue backend ---------------------------------------------------------


def _worker_main(wid, task, commit_dir, inbox, outbox):
    """Worker loop: pull a task, run it, commit, acknowledge.

    ``outbox`` is the write end of this worker's own pipe; ``send`` is
    synchronous, so no message is left half-written by a feeder thread
    when the task kills the process.  The result is durably written to
    the commit directory *before* the acknowledgement is sent — the
    coordinator never learns of a result that is not already safe on
    disk — and never crosses the pipe.  Module-level so it pickles
    under any start method.
    """
    cache = CampaignCache(commit_dir)
    outbox.send(("ready", wid, None, None))
    while True:
        message = inbox.get()
        if message[0] == "stop":
            return
        _kind, task_id, config, attempt = message
        try:
            cache.put(config, _attempt(task, config, attempt))
        except Exception as exc:
            outbox.send(("error", wid, task_id, format_failure(exc)))
        else:
            outbox.send(("done", wid, task_id, None))


class _QueueStartupError(RuntimeError):
    """Worker processes could not start; fall back to serial."""


@dataclass
class _InFlight:
    key: Any
    config: CampaignConfig
    attempt: int
    started_at: float


class WorkQueueExecutor(Executor):
    """Coordinator-scheduled worker processes with work stealing.

    The coordinator owns the pending task list and dispatches one task
    per idle worker; each worker commits its result, then acknowledges
    over a pipe of its own.

    * **dynamic balance** — a worker that finishes early immediately
      pulls the next task, so an uneven plan never pins wall time to
      the unluckiest static assignment;
    * **work stealing** — with a ``splitter``, an oversized task is
      halved at dispatch until it fits the current fair share
      (``remaining / (workers * OVERSUBSCRIBE)``), so one huge phone
      range ends as several chunks spread over idle workers;
    * **self-healing** — a failed task is re-dispatched to a worker; a
      worker that dies mid-task is detected by liveness polling, its
      task requeued and the worker respawned (at most ``2 * workers``
      times per run); a task that exceeds ``timeout`` is reclaimed by
      killing the worker.

    Anything acknowledged has been renamed into place, which is what
    makes ``kill -9`` resume work.  Commits are not fsynced, so they
    survive a process crash but not power loss.
    """

    name = EXECUTOR_WORKQUEUE

    def __init__(
        self,
        workers: int = 4,
        steal: bool = True,
        min_split_phones: int = DEFAULT_MIN_SPLIT_PHONES,
    ) -> None:
        super().__init__(workers)
        self.steal = steal
        self.min_split_phones = max(1, min_split_phones)

    def run(self, items, task, commit_dir, tel, retries=0, timeout=None,
            splitter=None, size_fn=None, live_dir=None, progress=None,
            on_done=None):
        try:
            with tel.span(
                "executor.run",
                category="executor",
                track="executor",
                workers=self.workers,
                tasks=len(items),
            ):
                return self._coordinate(
                    list(items),
                    task,
                    commit_dir,
                    tel,
                    retries,
                    timeout,
                    splitter if self.steal else None,
                    size_fn,
                    live_dir,
                    progress,
                    on_done,
                )
        except _QueueStartupError:
            self.stats.serial_fallbacks += 1
            tel.instant(
                "serial fallback",
                category="executor",
                track="executor",
                workers=self.workers,
            )
            return super().run(
                items, task, commit_dir, tel, retries=retries,
                live_dir=live_dir, progress=progress, on_done=on_done,
            )

    # -- the coordinator ------------------------------------------------

    def _coordinate(
        self,
        items: List[TaskItem],
        task: Callable[..., Any],
        commit_dir: str,
        tel: Telemetry,
        retries: int,
        timeout: Optional[float],
        splitter,
        size_fn,
        live_dir: Optional[str],
        progress: Optional[Callable[[Any], None]],
        on_done: Optional[Callable[[Any, CampaignConfig], None]],
    ) -> ExecutorOutcome:
        import multiprocessing
        from multiprocessing.connection import Pipe, wait

        context = multiprocessing.get_context()
        outcome = ExecutorOutcome()
        #: (task id, config, attempt number) still to dispatch.
        pending: List[Tuple[Any, CampaignConfig, int]] = [
            (key, config, 0) for key, config in items
        ]
        if not pending:
            return outcome

        worker_count = min(self.workers, len(pending))
        processes: Dict[int, Any] = {}
        inboxes: Dict[int, Any] = {}
        #: Read end of each worker's acknowledgement pipe.
        outboxes: Dict[int, Any] = {}

        def start_worker(wid: int) -> None:
            """Start worker ``wid``; on failure leave no trace of it."""
            inbox = context.Queue()
            reader, writer = Pipe(duplex=False)
            try:
                proc = context.Process(
                    target=_worker_main,
                    args=(wid, task, commit_dir, inbox, writer),
                    daemon=True,
                )
                proc.start()
            except BaseException:
                reader.close()
                raise
            finally:
                # Only the worker may hold the write end, so its death
                # reads as end-of-file here.
                writer.close()
            processes[wid] = proc
            inboxes[wid] = inbox
            outboxes[wid] = reader

        def forget_worker(wid: int) -> None:
            processes.pop(wid, None)
            inboxes.pop(wid, None)
            reader = outboxes.pop(wid, None)
            if reader is not None:
                reader.close()

        try:
            for wid in range(worker_count):
                start_worker(wid)
        except Exception:
            for proc in processes.values():
                proc.kill()
                proc.join(timeout=1.0)
            for wid in list(outboxes):
                forget_worker(wid)
            raise _QueueStartupError("worker processes could not start")

        live = _live_coordinator(live_dir, self.stats, progress)
        inflight: Dict[int, _InFlight] = {}
        idle: List[int] = []
        #: Tasks whose last attempt already got its one free re-run.
        reruns: set = set()
        restarts_left = 2 * self.workers
        next_wid = worker_count

        def dispatch(wid: int) -> None:
            if size_fn is not None:
                best = max(
                    range(len(pending)), key=lambda i: size_fn(pending[i][1])
                )
            else:
                best = 0
            key, config, attempt = pending.pop(best)
            if splitter is not None and size_fn is not None and key not in outcome.walls:
                remaining = size_fn(config) + sum(
                    size_fn(c) for _k, c, _a in pending
                ) + sum(size_fn(f.config) for f in inflight.values())
                target = max(
                    self.min_split_phones,
                    -(-remaining // (max(1, len(processes)) * OVERSUBSCRIBE)),
                )
                while (
                    size_fn(config) > target
                    and size_fn(config) >= 2 * self.min_split_phones
                ):
                    halves = splitter(config)
                    if halves is None:
                        break
                    config, other = halves
                    key = config.fleet.phone_range
                    pending.append((other.fleet.phone_range, other, 0))
                    self.stats.steals += 1
                    tel.instant(
                        "steal split",
                        category="executor",
                        track="executor",
                        key=str(key),
                        stolen=str(other.fleet.phone_range),
                    )
            inboxes[wid].put(("task", key, config, attempt))
            inflight[wid] = _InFlight(key, config, attempt, perf_counter())

        def requeue(wid: int, reason: str, info: FailureInfo) -> None:
            """A worker lost its task; retry it or record the failure."""
            flight = inflight.pop(wid)
            walls = outcome.walls.setdefault(flight.key, [])
            walls.append(perf_counter() - flight.started_at)
            tel.instant(
                "task requeue",
                category="executor",
                track="executor",
                key=str(flight.key),
                reason=reason,
            )
            if flight.attempt < retries:
                attempt = flight.attempt + 1
            elif reason != "error" and flight.key not in reruns:
                # The worker, not the task, may be at fault: re-run the
                # same attempt once, so one kill -9 never fails a run.
                reruns.add(flight.key)
                attempt = flight.attempt
            else:
                outcome.failed[flight.key] = (flight.config, info, len(walls))
                return
            self.stats.task_retries += 1
            pending.append((flight.key, flight.config, attempt))

        def respawn(dead_wid: int) -> None:
            nonlocal restarts_left, next_wid
            forget_worker(dead_wid)
            if restarts_left <= 0 or not (pending or inflight):
                return
            if processes and len(processes) >= len(pending) + len(inflight):
                return  # plenty of survivors for the remaining work
            restarts_left -= 1
            wid = next_wid
            next_wid += 1
            try:
                start_worker(wid)
            except Exception as exc:
                self.stats.respawn_failures += 1
                tel.instant(
                    "worker respawn failed",
                    category="executor",
                    track="executor",
                    dead=dead_wid,
                    error=type(exc).__name__,
                )
                return
            self.stats.worker_restarts += 1
            tel.instant(
                "worker respawn",
                category="executor",
                track="executor",
                dead=dead_wid,
            )

        try:
            while pending or inflight:
                if not processes:
                    # Every worker is gone and nothing can respawn:
                    # surface whatever was still queued as failures.
                    for key, config, _attempt_number in pending:
                        outcome.failed.setdefault(
                            key,
                            (
                                config,
                                (
                                    "WorkerDied",
                                    "all workers died and none could "
                                    "be restarted",
                                    "",
                                ),
                                len(outcome.walls.get(key, [])),
                            ),
                        )
                    pending.clear()
                    break
                while idle and pending:
                    dispatch(idle.pop())
                if live is not None:
                    live.tick(
                        pending=len(pending),
                        inflight=len(inflight),
                        workers=len(processes),
                    )
                message = None
                senders = {reader: wid for wid, reader in outboxes.items()}
                for reader in wait(list(senders), timeout=POLL_INTERVAL):
                    try:
                        message = reader.recv()
                        break
                    except (EOFError, OSError):
                        # The worker is gone; the liveness poll below
                        # requeues its task and respawns it.
                        outboxes.pop(senders[reader]).close()
                if message is None:
                    now = perf_counter()
                    for wid in list(inflight):
                        proc = processes.get(wid)
                        flight = inflight.get(wid)
                        if flight is None:
                            continue
                        if proc is None or not proc.is_alive():
                            requeue(
                                wid,
                                "died",
                                (
                                    "WorkerDied",
                                    f"worker exited mid-task (phones "
                                    f"{flight.key!r})",
                                    "",
                                ),
                            )
                            respawn(wid)
                        elif (
                            timeout is not None
                            and now - flight.started_at > timeout
                        ):
                            self.stats.watchdog_fires += 1
                            tel.instant(
                                "watchdog fire",
                                category="executor",
                                track="runner",
                                key=str(flight.key),
                            )
                            proc.kill()
                            proc.join(timeout=1.0)
                            requeue(
                                wid,
                                "timeout",
                                (
                                    "WorkerTimeout",
                                    f"no result within {timeout}s "
                                    f"(hung worker)",
                                    "",
                                ),
                            )
                            respawn(wid)
                    for wid in [w for w in idle if not processes.get(w) or not processes[w].is_alive()]:
                        idle.remove(wid)
                        respawn(wid)
                    continue
                kind, wid, _task_id, info = message
                if kind == "done":
                    flight = inflight.pop(wid, None)
                    if flight is not None:
                        outcome.walls.setdefault(flight.key, []).append(
                            perf_counter() - flight.started_at
                        )
                        outcome.completed[flight.key] = flight.config
                        if on_done is not None:
                            on_done(flight.key, flight.config)
                elif kind == "error":
                    requeue(wid, "error", info)
                if pending:
                    dispatch(wid)
                else:
                    idle.append(wid)
        finally:
            for wid, proc in processes.items():
                inbox = inboxes.get(wid)
                if inbox is not None:
                    try:
                        inbox.put(("stop",))
                    except Exception:
                        pass
            for proc in processes.values():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            for reader in outboxes.values():
                reader.close()
            if live is not None:
                try:
                    live.tick(
                        pending=len(pending),
                        inflight=len(inflight),
                        workers=0,
                        force=True,
                    )
                finally:
                    live.close()
        return outcome


def get_executor(spec: Optional[str], workers: int) -> Executor:
    """Resolve a backend name.

    ``None`` means the work queue.  ``workers == 1`` always resolves to
    the serial backend — a one-worker queue is pure overhead.
    """
    name = EXECUTOR_WORKQUEUE if spec is None else str(spec)
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTORS}"
        )
    if workers <= 1 or name == EXECUTOR_SERIAL:
        return SerialExecutor(max(1, workers))
    return WorkQueueExecutor(workers)
