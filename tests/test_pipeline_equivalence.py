"""Structured vs text ingest equivalence — the fast-path contract.

There are two doors into the analysis: campaigns ingest through
:meth:`Dataset.from_collector`, which hands collected record objects
straight to :meth:`Dataset.from_records`, while :meth:`Dataset.from_lines`
parses serialized log lines (the on-disk contract that ``repro analyze``
reads).  These tests pin the invariant that makes the fast path legal:

* line level — for every phone, parsing the serialized log lines yields
  records equal to the structured entries (writers quantize timestamps
  to wire precision at construction, so the round trip is lossless);
* report level — one collector ingested through either door produces a
  byte-identical report;
* the RUNAPPS dedupe knob drops redundant snapshots without changing
  any analysis result (Table 4 included).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.summary import CampaignSummary
from repro.logger.daemon import LoggerConfig
from repro.logger.logfile import parse_lines
from repro.phone.fleet import Fleet

SEEDS = [7, 1337, 2005]


def _summary_without_config(result) -> str:
    """Canonical JSON of everything the analysis produced."""
    data = CampaignSummary.from_result(result).to_dict()
    data.pop("config")
    return json.dumps(data, sort_keys=True)


class TestLineLevelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialized_lines_parse_back_to_the_structured_records(self, seed):
        config = CampaignConfig.quick(seed)
        fleet = Fleet(config.fleet, seed=config.seed)
        fleet.run()
        records = fleet.collector.record_dataset()
        lines = fleet.collector.dataset()
        assert sorted(records) == sorted(lines)
        total = 0
        for phone_id, phone_lines in lines.items():
            # Lenient parsing, as ingest does it: freeze-truncated tail
            # lines are dropped by both doors.
            reparsed = list(parse_lines(phone_lines))
            assert reparsed == records[phone_id], phone_id
            total += len(reparsed)
        assert total > 100  # the campaign actually logged something


class TestReportLevelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_summary_is_byte_identical_across_pipelines(self, seed):
        config = CampaignConfig.quick(seed)
        fleet = Fleet(config.fleet, seed=config.seed)
        fleet.run()
        end = config.fleet.duration
        structured = Dataset.from_collector(fleet.collector, end_time=end)
        text = Dataset.from_lines(fleet.collector.dataset(), end_time=end)

        reports = [
            json.dumps(
                build_report(dataset, window=config.coalescence_window)
                .to_dict(),
                sort_keys=True,
            )
            for dataset in (structured, text)
        ]
        assert reports[0] == reports[1]
        assert structured.ingest_report.to_dict() == (
            text.ingest_report.to_dict()
        )

    def test_same_seed_same_pipeline_is_deterministic(self):
        first = run_campaign(CampaignConfig.quick(2005))
        second = run_campaign(CampaignConfig.quick(2005))
        assert first.fleet.sim.events_fired == second.fleet.sim.events_fired
        assert _summary_without_config(first) == _summary_without_config(
            second
        )


class TestZeroFaultEquivalence:
    """A disabled fault plan must not perturb a single byte."""

    def test_disabled_plan_summary_is_byte_identical(self):
        from repro.robustness import FaultPlan, run_faulty_campaign

        clean = run_campaign(CampaignConfig.quick(2005))
        outcome = run_faulty_campaign(
            CampaignConfig.quick(2005), plan=FaultPlan.none()
        )
        assert _summary_without_config(outcome.result) == (
            _summary_without_config(clean)
        )
        assert outcome.transfer["retries"] == 0
        assert outcome.injected == {}

    def test_zero_rate_link_machinery_is_byte_identical(self):
        # Stronger: force every batch through the full transfer-batch
        # protocol (delivery, reconciliation) with all rates at zero.
        from repro.logger.transfer import CollectionServer
        from repro.robustness import FaultPlan, FaultyLink

        clean = run_campaign(CampaignConfig.quick(2005))
        collector = CollectionServer(link=FaultyLink(FaultPlan.none()))
        faulty = run_campaign(CampaignConfig.quick(2005), collector=collector)
        assert _summary_without_config(faulty) == _summary_without_config(
            clean
        )
        assert collector.stats.duplicate_entries_dropped == 0
        assert collector.stats.out_of_order_batches == 0


class TestRunappsDedupe:
    def _run(self, seed: int, dedupe: bool):
        config = CampaignConfig.quick(seed)
        config.fleet.logger = LoggerConfig(dedupe_runapps=dedupe)
        return run_campaign(config)

    def test_dedupe_drops_snapshots_but_not_results(self):
        deduped = self._run(11, dedupe=True)
        verbose = self._run(11, dedupe=False)

        count_on = sum(
            len(log.runapps) for log in deduped.dataset.logs.values()
        )
        count_off = sum(
            len(log.runapps) for log in verbose.dataset.logs.values()
        )
        # Boot-time snapshots repeating the previous cycle's final set
        # are the redundancy the knob removes.
        assert count_on < count_off

        # Every analysis output — Table 4 and Figure 6 included — is
        # identical, because an identical snapshot can never change
        # which set is "latest before a panic".
        assert _summary_without_config(deduped) == _summary_without_config(
            verbose
        )
