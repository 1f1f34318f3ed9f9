"""The benchmark's three campaign workloads, and why each was chosen.

Every workload is one closed-loop campaign: the benchmark starts the next
campaign only after the previous one has returned and released its
objects.  Simulated time is fixed by the workload; every figure the
benchmark reports is host time.  The workload seed is the only input that
varies between runs (``--seed``, default :data:`DEFAULT_SEED`).  A run
simulates :func:`input_seed` of ``--seed``, one of :data:`RECORDED_SEEDS`,
so that every campaign it makes has a recorded expected output to be
checked against (see ``reference.json``).

The monolithic workloads call ``Fleet``/``Fleet.build``/``Fleet.run``,
``Dataset.from_collector`` and ``build_report`` directly.  They therefore
run under the GC regime of the shard worker (``ShardTask``): cyclic GC is
suspended only inside ``Fleet.run``'s event loop, so ``Fleet.build``,
ingest and the report run with it enabled.  The program's own
``repro.experiments.campaign.run_campaign`` suspends GC across build,
simulation, ingest and report; a GC policy change made only there does
not register here.  Matching the worker path keeps ``wide`` and
``sharded`` comparable, phone for phone.

``paper``
    ``CampaignConfig.paper_scale(seed)``: 25 phones x 14 months, about
    201k simulator events at the default seed, one process, structured
    ingest.  This is the campaign the reproduction exists to regenerate.
    Most of its CPU is the per-event hot path (``core.engine``, ``core.events``,
    ``core.rand``, ``symbian``, ``phone``, ``logger``), so it is the
    workload on which per-event costs move ``cpu_s`` and
    ``events_per_s``.  Set-up is a few milliseconds and the fleet graph
    is small, so it *bypasses* per-phone fixed cost and GC work: an
    optimisation of ``Fleet.build`` or of GC pauses should leave it
    unchanged.  With 25 phones its event count swings with the seed (152k
    to 233k over seeds 1 to 10), so one ``paper`` input is a set of
    :data:`PAPER_SEEDS` campaigns on seeds derived from ``--seed``
    (:meth:`Workload.campaign_seed`; the first is the input seed itself),
    and a run reports the mean over that set.

``wide``
    10,000 phones x 1 day, about 218k events, one process.  It fires
    about as many events as ``paper``, but per-phone fixed cost
    dominates: ``Fleet.build`` (``setup_s``), per-phone seeding in
    ``core.rand``, and the cyclic-GC passes over a fleet-sized object
    graph.  It measures per-phone fixed cost, whose target is events/s
    at 10k phones within 1.3x of paper scale.  It bypasses the executor,
    the shard wire format and the merge.

``sharded``
    The same 10,000 x 1 day fleet and seed through
    ``run_sharded_campaign``: 32 planned shards, the work-stealing
    ``workqueue`` backend with a shard cache directory and the default
    merge, and ``min(2, usable CPUs)`` workers (never more workers than
    CPUs).  Each worker simulates, ingests, reduces and durably commits
    its shard; the parent folds the committed files back from disk.  It
    is the only workload that exercises the executor, shard commit and
    load, the streaming accumulators and the merge.  Sharing ``wide``'s
    fleet makes the merged summary checkable against ``wide``'s
    monolithic one, which ``reference.json`` records for the same seed
    (the shard-equivalence oracle).  A 1-day fleet never reaches the
    7-day periodic transfer, so its event count does not depend on how
    work stealing tiled the fleet.  Its ``setup_s`` is the ``Fleet(...)``
    plus ``build()`` time of every planned range (:func:`shard_ranges`),
    built one after another in a set-up-only process: the set-up the
    workers share out.  Inside the campaign those builds overlap on two
    workers, and their sum swings with the host's load.

:data:`HELD_OUT_SEED` is reserved for confirming a performance claim
after the change is written: do not use it while tuning a change.  It is
recorded, but no other ``--seed`` maps to it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.core.clock import DAY
from repro.experiments.config import CampaignConfig
from repro.phone.fleet import FleetConfig

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 2005

#: Seed kept out of development runs; confirm claims on it afterwards.
HELD_OUT_SEED = 4099

#: Seeds ``reference.json`` records for every workload (``paper`` also
#: for the seeds derived from them): the inputs a run can simulate.
RECORDED_SEEDS = tuple(range(21)) + (DEFAULT_SEED, HELD_OUT_SEED)

#: Seeds one ``paper`` run spreads its campaigns over.
PAPER_SEEDS = 8

#: Phones in the ``wide`` and ``sharded`` fleets.
WIDE_PHONES = 10_000

#: Planned shards of the ``sharded`` workload (work stealing splits
#: some of them further at run time).
SHARDS = 32


def input_seed(seed: int) -> int:
    """The recorded seed a run on ``--seed`` simulates.

    A recorded seed is its own input; any other seed maps to one of
    :data:`RECORDED_SEEDS` (never :data:`HELD_OUT_SEED`) through a hash,
    so distinct seeds still give varied inputs.
    """
    if seed in RECORDED_SEEDS:
        return seed
    pool = [s for s in RECORDED_SEEDS if s != HELD_OUT_SEED]
    digest = hashlib.sha256(f"perfbench-input:{seed}".encode("utf-8")).digest()
    return pool[int.from_bytes(digest[:4], "big") % len(pool)]


def shard_ranges(phone_count: int) -> list:
    """The :data:`SHARDS` contiguous near-even phone ranges of the plan."""
    base, extra = divmod(phone_count, SHARDS)
    ranges, start = [], 0
    for index in range(SHARDS):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def sharded_workers() -> int:
    """Worker processes for ``sharded``: two, but never more than CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Workload:
    name: str
    #: Whether the campaign runs through ``run_sharded_campaign``.
    sharded: bool
    #: Campaigns per untraced run at least, whatever ``--seconds`` says.
    min_campaigns: int

    def config(self, seed: int) -> CampaignConfig:
        if self.name == "paper":
            return CampaignConfig.paper_scale(seed)
        return CampaignConfig(
            fleet=FleetConfig(phone_count=WIDE_PHONES, duration=DAY), seed=seed
        )

    def campaign_seed(self, seed: int, index: int) -> int:
        """Seed of the run's ``index``-th campaign.

        ``seed`` is the run's input seed.  ``paper`` cycles through
        :data:`PAPER_SEEDS` seeds derived from it (the first is ``seed``
        itself); the 10k-phone workloads cost the same at any seed, so
        they repeat ``seed``.
        """
        index %= PAPER_SEEDS if self.name == "paper" else 1
        if index == 0:
            return seed
        digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper",
            sharded=False,
            min_campaigns=PAPER_SEEDS,
        ),
        Workload(
            "wide",
            sharded=False,
            min_campaigns=2,
        ),
        Workload(
            "sharded",
            sharded=True,
            # One campaign's wall time swings by about 10% on a shared
            # host; the median of five is steady within a run.
            min_campaigns=5,
        ),
    )
}
