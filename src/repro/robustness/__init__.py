"""Fault injection for the collection/analysis pipeline itself.

The paper's study lived or died on its collection infrastructure: log
files written to flash on-device, shipped over a flaky transfer link,
and analysed offline.  This package validates our reproduction of that
infrastructure the way Cotroneo et al. validate Android's logging
stack — by injecting faults into it and measuring how gracefully the
results degrade:

* :mod:`plan`       — :class:`FaultPlan`, the seeded, JSON-serializable
  description of *what* to inject at each layer (storage, transfer,
  worker, cache);
* :mod:`injectors`  — the machinery that injects it: a faulty transfer
  link for the collection path, cache-file corrupters, and a faulty
  worker task for the parallel runner;
* :mod:`experiment` — the degradation-curve experiment behind the
  ``repro faults`` CLI: sweep fault intensity, report headline-figure
  drift, and assert the pipeline degrades gracefully.
"""

from repro.robustness.experiment import (
    DegradationPoint,
    RobustnessReport,
    run_degradation_experiment,
    run_faulty_campaign,
)
from repro.robustness.injectors import (
    FaultyCampaignTask,
    FaultyLink,
    WorkerFaultError,
    corrupt_cache_entry,
)
from repro.robustness.plan import FaultPlan

__all__ = [
    "FaultPlan",
    "FaultyLink",
    "FaultyCampaignTask",
    "WorkerFaultError",
    "corrupt_cache_entry",
    "DegradationPoint",
    "RobustnessReport",
    "run_degradation_experiment",
    "run_faulty_campaign",
]
