"""Same-instant batch tests for the discrete-event engine.

Events that share a timestamp form a batch that ``run_until`` drains in
``(time, priority, seq)`` order.  These tests pin that order under
cancellation and re-entrant scheduling from inside the batch, and the
inclusive ``run_until`` limit.  The parametrized tests run each scenario
from several clock origins (``Simulator(start=...)``), since the order
must not depend on where the clock stands.
"""

import pytest

from repro.core.engine import Simulator

#: Clock origins the batch scenarios are replayed from.
ORIGINS = [0.0, 8.0, 3600.0]


# ---------------------------------------------------------------------------
# Same-timestamp ordering: priority, then scheduling sequence.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", ORIGINS)
def test_same_timestamp_batch_fires_in_priority_then_seq_order(start):
    sim = Simulator(start=start)
    t = start + 10.0
    fired = []
    # Scheduled out of priority order on purpose; seq is insertion order.
    sim.schedule_at(t, lambda: fired.append("p0-first"), priority=0)
    sim.schedule_at(t, lambda: fired.append("p-5"), priority=-5)
    sim.schedule_at(t, lambda: fired.append("p0-second"), priority=0)
    sim.schedule_at(t, lambda: fired.append("p3"), priority=3)
    # A later event must not leak into the batch.
    sim.schedule_at(t + 24.0, lambda: fired.append("later"))
    sim.run_until(t)
    assert fired == ["p-5", "p0-first", "p0-second", "p3"]
    sim.run_until(t + 1000.0)
    assert fired[-1] == "later"


# ---------------------------------------------------------------------------
# Cancellation inside a drained batch.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", ORIGINS)
def test_cancel_later_event_from_inside_drained_batch(start):
    sim = Simulator(start=start)
    t = start + 10.0
    fired = []
    handles = {}

    def first():
        fired.append("first")
        handles["victim"].cancel()
        # The cancelled entry is still physically queued, but
        # pending_count is exact mid-drain.
        assert sim.pending_count() == 1  # only "survivor" remains live

    sim.schedule_at(t, first)
    handles["victim"] = sim.schedule_at(t, lambda: fired.append("victim"))
    sim.schedule_at(t, lambda: fired.append("survivor"))
    sim.run_until(t + 10.0)
    assert fired == ["first", "survivor"]
    assert sim.events_cancelled == 1
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# Re-entrant schedule_at(now) from a draining callback.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", ORIGINS)
def test_reentrant_schedule_at_now_merges_in_key_order(start):
    sim = Simulator(start=start)
    t = start + 10.0
    fired = []

    def opener():
        fired.append("opener")
        # Same timestamp, better priority than the queued remainder:
        # must fire before them.
        sim.schedule_at(sim.now, lambda: fired.append("urgent"), priority=-1)
        # Same timestamp, default priority: newest seq, fires last.
        sim.schedule_at(sim.now, lambda: fired.append("appended"))

    sim.schedule_at(t, opener)
    sim.schedule_at(t, lambda: fired.append("queued-1"))
    sim.schedule_at(t, lambda: fired.append("queued-2"))
    sim.run_until(t)
    assert fired == ["opener", "urgent", "queued-1", "queued-2", "appended"]


# ---------------------------------------------------------------------------
# The run_until limit.
# ---------------------------------------------------------------------------


def test_event_exactly_on_tick_boundary_fires_at_its_time():
    # The limit of run_until is inclusive: an event exactly on it fires,
    # with the clock at the event's own time.
    sim = Simulator()
    fired = []
    sim.schedule_at(10.0, lambda: fired.append(sim.now))
    sim.run_until(9.999)
    assert fired == []
    sim.run_until(10.0)
    assert fired == [10.0]
