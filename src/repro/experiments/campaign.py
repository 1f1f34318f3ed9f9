"""One-call campaign runner: fleet -> logs -> analysis."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.ingest import Dataset
from repro.analysis.report import ReproductionReport, build_report
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import Telemetry, current_telemetry
from repro.phone.fleet import Fleet

__all__ = ["CampaignResult", "run_campaign", "STAGES"]

#: The campaign's stages, in run order: building and running the fleet,
#: ingesting what it collected, and building the report.
STAGES = ("simulate", "ingest", "report")


@dataclass
class CampaignResult:
    """Everything a campaign produces."""

    config: CampaignConfig
    fleet: Fleet
    dataset: Dataset
    report: ReproductionReport
    #: JSON-native telemetry snapshot (``Telemetry.snapshot()``), empty
    #: when the campaign ran with telemetry off.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Stage name -> wall seconds (:func:`time.perf_counter`).
    stages: Dict[str, float] = field(default_factory=dict)
    #: Stage name -> CPU seconds (:func:`time.process_time`), which do
    #: not accumulate while the scheduler runs someone else.
    stages_cpu: Dict[str, float] = field(default_factory=dict)

    @property
    def ground_truth(self) -> dict:
        """Simulator-side counters (never visible to the analysis)."""
        return self.fleet.ground_truth()


def _sample_ingest_metrics(registry, dataset: Dataset) -> None:
    """Ingest-side counters: records entering the analysis, quarantine.

    Both are deterministic in the seed and the fault plan, and identical
    to what :meth:`Dataset.from_lines` yields for the same collected
    lines, so these counters hold the determinism guarantee the
    telemetry tests rely on.
    """
    records = registry.counter(
        "ingest.records_total", help="parsed records entering the analysis"
    ).series()
    records.value += float(
        sum(log.record_count for log in dataset.logs.values())
    )
    report = dataset.ingest_report
    if report.quarantined:
        quarantined = registry.counter(
            "ingest.quarantined_total",
            help="lines the tolerant parser rejected, by corruption class",
        )
        for cls, count in report.by_class.items():
            quarantined.series(corruption=cls).value += float(count)


def _stamp() -> Tuple[float, float]:
    """One stage boundary: wall and CPU clocks, read back to back."""
    return time.perf_counter(), time.process_time()


def run_campaign(
    config: Optional[CampaignConfig] = None,
    collector: Optional[object] = None,
    telemetry: Optional[Telemetry] = None,
) -> CampaignResult:
    """Run a full campaign and analyse its collected logs.

    The analysis operates exclusively on what the collection server
    shipped; the fleet object is returned for ground-truth validation
    only.  ``collector`` substitutes the fleet's collection server (the
    robustness harness routes it through a faulty transfer link);
    ``None`` keeps the default perfect link.  ``telemetry`` (or the
    process-current instance) is installed for the duration: at
    ``metrics`` level the campaign's counters land in its registry and
    in ``CampaignResult.telemetry``; at ``trace`` level the run also
    produces the simulate/ingest/report stage spans.  Every run times
    its :data:`STAGES` into ``CampaignResult.stages``/``stages_cpu``.
    """
    config = config if config is not None else CampaignConfig.paper_scale()
    tel = telemetry if telemetry is not None else current_telemetry()
    with tel.installed():
        marks: List[Tuple[float, float]] = [_stamp()]
        fleet = Fleet(config.fleet, seed=config.seed, collector=collector)
        # Suspend cyclic GC across the whole pipeline, not just the event
        # loop (Fleet.run nests its own suspension, which is a no-op here):
        # re-enabling between stages would trigger a generation-2 pass over
        # the full campaign graph right in the middle of ingest.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            with tel.span(
                "campaign",
                category="campaign",
                seed=config.seed,
                phones=config.fleet.phone_count,
            ):
                with tel.span("simulate", category="stage"):
                    fleet.run()
                marks.append(_stamp())
                with tel.span("ingest", category="stage"):
                    dataset = Dataset.from_collector(
                        fleet.collector, end_time=config.fleet.duration
                    )
                marks.append(_stamp())
                with tel.span("report", category="stage"):
                    report = build_report(dataset, window=config.coalescence_window)
                marks.append(_stamp())
        finally:
            if gc_was_enabled:
                gc.enable()
        snapshot: Dict[str, Any] = {}
        if tel.metrics:
            fleet.sample_metrics(tel.registry)
            _sample_ingest_metrics(tel.registry, dataset)
            snapshot = tel.snapshot()
    spans = list(zip(STAGES, marks, marks[1:]))
    return CampaignResult(
        config=config,
        fleet=fleet,
        dataset=dataset,
        report=report,
        telemetry=snapshot,
        stages={name: end[0] - start[0] for name, start, end in spans},
        stages_cpu={name: end[1] - start[1] for name, start, end in spans},
    )
