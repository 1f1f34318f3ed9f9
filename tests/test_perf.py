"""`repro perf` times `run_campaign` itself, telemetry off."""

import pytest

from repro.experiments.campaign import STAGES, run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.perf import check_counters, measure_campaign
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry


@pytest.fixture(scope="module")
def config() -> CampaignConfig:
    return CampaignConfig.tiny(seed=11)


def test_run_campaign_times_its_stages(config):
    result = run_campaign(config)
    assert tuple(result.stages) == STAGES
    assert tuple(result.stages_cpu) == STAGES
    assert all(seconds >= 0 for seconds in result.stages.values())
    assert all(seconds >= 0 for seconds in result.stages_cpu.values())


def test_measure_campaign_matches_a_plain_run(config):
    result = measure_campaign(config, repeats=2)
    assert result.repeats == 2
    assert len(result.all_wall_seconds) == len(result.all_cpu_seconds) == 2
    assert tuple(result.stages) == STAGES
    assert sum(result.stages.values()) == pytest.approx(result.wall_seconds)
    assert sum(result.stages_cpu.values()) == pytest.approx(result.cpu_seconds)
    assert result.wall_seconds == min(result.all_wall_seconds)

    plain = run_campaign(config)
    assert result.events_fired == plain.fleet.sim.events_fired
    assert result.records_collected == plain.fleet.collector.total_lines

    ok, message = check_counters(result, result.to_dict())
    assert ok, message


def test_timed_runs_ignore_the_installed_telemetry(config):
    tel = Telemetry(TELEMETRY_METRICS)
    with tel.installed():
        measure_campaign(config, counters=False)
    assert tel.registry.counter_totals() == {}
