"""Tests for the discrete-event engine."""

import random

import pytest

from repro.core.engine import Simulator
from repro.core.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule_after(5, out.append, "late")
        sim.schedule_after(1, out.append, "early")
        sim.run()
        assert out == ["early", "late"]

    def test_same_time_fires_in_scheduling_order(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule_at(7.0, out.append, i)
        sim.run()
        assert out == list(range(10))

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        out = []
        sim.schedule_at(1.0, out.append, "low", priority=5)
        sim.schedule_at(1.0, out.append, "high", priority=-5)
        sim.run()
        assert out == ["high", "low"]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule_after(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_events_scheduled_from_handlers(self):
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            sim.schedule_after(1.0, lambda: out.append("second"))

        sim.schedule_after(1.0, first)
        sim.run()
        assert out == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        handle = sim.schedule_after(1.0, out.append, "x")
        handle.cancel()
        sim.run()
        assert out == []

    def test_cancel_twice_is_noop(self):
        sim = Simulator()
        handle = sim.schedule_after(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule_after(1.0, lambda: None)
        drop = sim.schedule_after(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        del keep


class TestNonFiniteTimes:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("method", ["schedule_at", "schedule_after", "run_until"])
    def test_rejected_without_side_effects(self, method, value):
        sim = Simulator()
        fired = []

        def timer():
            # Self-rescheduling: an unbounded run_until would drain it
            # forever, so a NaN/inf target must be refused up front.
            fired.append(sim.now)
            if len(fired) < 1000:
                sim.schedule_after(1.0, timer)

        sim.schedule_at(1.0, timer)
        with pytest.raises(SimulationError):
            if method == "run_until":
                sim.run_until(value)
            else:
                getattr(sim, method)(value, fired.append, "bad")
        assert fired == []
        assert sim.now == 0.0
        assert sim.events_scheduled == 1
        assert sim.pending_count() == 1
        # The refusal leaves no latch or clock damage behind.
        sim.run_until(3.0)
        assert fired == [1.0, 2.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        out = []
        sim.schedule_at(5.0, out.append, "in")
        sim.schedule_at(15.0, out.append, "out")
        sim.run_until(10.0)
        assert out == ["in"]
        assert sim.now == 10.0

    def test_event_at_boundary_fires(self):
        sim = Simulator()
        out = []
        sim.schedule_at(10.0, out.append, "edge")
        sim.run_until(10.0)
        assert out == ["edge"]

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        out = []
        sim.schedule_at(15.0, out.append, "later")
        sim.run_until(10.0)
        sim.run_until(20.0)
        assert out == ["later"]

    def test_run_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run_until(100.0)

        sim.schedule_after(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestDrain:
    """Behaviour of ``run_until`` while it drains the queue."""

    def test_cancel_own_tail_then_compact_mid_drain(self):
        # A callback cancels everything queued behind it at the same
        # instant and forces a compaction; the drain loop must survive
        # the heap being rebuilt under its feet.
        sim = Simulator()
        fired = []
        tail = []

        def head():
            fired.append("head")
            for handle in tail:
                handle.cancel()
            sim._compact()

        sim.schedule_at(12.0, head)
        for i in range(5):
            tail.append(sim.schedule_at(12.0, lambda i=i: fired.append(i)))
        sim.schedule_at(13.0, lambda: fired.append("after"))
        sim.run_until(16.0)
        assert fired == ["head", "after"]
        assert sim.pending_count() == 0
        assert sim.compactions >= 1

    def test_reentrant_chain_at_same_instant_drains_to_completion(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 25:
                sim.schedule_at(sim.now, chain, depth + 1)

        sim.schedule_at(3.0, chain, 0)
        sim.run_until(3.0)
        assert fired == list(range(26))
        assert sim.now == 3.0
        assert sim.pending_count() == 0

    def test_peek_and_step_agree_with_run_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(25.0, lambda: fired.append("far"))
        sim.schedule_at(1.0, lambda: fired.append("near"))
        assert sim.peek_time() == 1.0
        assert sim.step() is True
        assert fired == ["near"]
        assert sim.peek_time() == 25.0
        sim.run()
        assert fired == ["near", "far"]


def _run_seeded_workload(sim, seed):
    """Seeded random workload with re-entrant scheduling and cancels.

    Drains in several ``run_until`` segments so stop/resume is part of
    the workload.  Returns the fire trace as ``(time, priority, seq)``
    keys.  Checks at every fire that the event is the smallest key
    still pending — a re-entrant ``schedule_at(now)`` with a better
    priority can follow an already-fired worse one, so the whole trace
    is key-ordered only in time — and after every segment that fired +
    cancelled + pending accounts for every scheduled event.
    """
    rng = random.Random(seed)
    trace = []
    handles = []
    keys = {}
    live = set()

    def schedule(method, when, label):
        handle = method(when, fire, label, priority=rng.randint(-2, 2))
        keys[label] = (handle.time, handle.priority, handle.seq)
        live.add(keys[label])
        handles.append(handle)

    def fire(label):
        key = keys[label]
        assert key == min(live)
        assert key[0] == sim.now
        live.remove(key)
        trace.append(key)
        roll = rng.random()
        if roll < 0.25:
            schedule(sim.schedule_at, sim.now, f"{label}.now")
        elif roll < 0.55:
            schedule(sim.schedule_after, rng.uniform(0.0, 32.0), f"{label}.later")
        elif roll < 0.7 and handles:
            victim = rng.choice(handles)
            live.discard((victim.time, victim.priority, victim.seq))
            victim.cancel()

    for i in range(60):
        schedule(sim.schedule_at, rng.uniform(0.0, 48.0), f"seed{i}")
    horizon = 0.0
    while sim.pending_count():
        horizon += rng.uniform(0.5, 24.0)
        sim.run_until(horizon)
        assert sim.pending_count() == len(live)
        assert (
            sim.events_fired + sim.events_cancelled + sim.pending_count()
            == sim.events_scheduled
        )
    return trace


@pytest.mark.parametrize("seed", [2005, 77, 9, 424242])
def test_seeded_workload_fires_in_key_order_and_balances_books(seed):
    sim = Simulator()
    trace = _run_seeded_workload(sim, seed)
    times = [key[0] for key in trace]
    assert times == sorted(times)
    assert len(trace) == sim.events_fired
    assert sim.events_fired + sim.events_cancelled == sim.events_scheduled
    assert sim.events_cancelled > 0  # the workload exercises cancellation
    assert sim.pending_count() == 0
    assert _run_seeded_workload(Simulator(), seed) == trace


class TestStepAndIntrospection:
    def test_step_fires_one_event(self):
        sim = Simulator()
        out = []
        sim.schedule_after(1.0, out.append, 1)
        sim.schedule_after(2.0, out.append, 2)
        assert sim.step() is True
        assert out == [1]

    def test_step_on_empty_returns_false(self):
        assert Simulator().step() is False

    def test_peek_time(self):
        sim = Simulator()
        sim.schedule_after(4.0, lambda: None)
        assert sim.peek_time() == 4.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_after(1.0, lambda: None)
        sim.schedule_after(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule_after(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_repr(self):
        sim = Simulator()
        assert "pending=0" in repr(sim)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []
            for i in range(50):
                sim.schedule_at(float(i % 7), trace.append, i)
            sim.run()
            return trace

        assert run_once() == run_once()


class TestLazyCancellation:
    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        handles = [sim.schedule_after(float(i + 1), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # Compaction keeps dead entries from dominating: the heap can
        # never hold more than ~2x the live events.
        assert len(sim._heap) < 100
        assert sim.pending_count() == 50

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        handles = [sim.schedule_after(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert len(sim._heap) == 10
        assert sim.pending_count() == 0
        sim.run()
        assert sim.events_fired == 0

    def test_order_preserved_after_compaction(self):
        sim = Simulator()
        out = []
        keep = [sim.schedule_at(float(t), out.append, t) for t in (5, 3, 8, 1)]
        drop = [sim.schedule_after(100.0 + i, lambda: None) for i in range(100)]
        for handle in drop:
            handle.cancel()
        del keep
        sim.run()
        assert out == [1, 3, 5, 8]

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule_after(1.0, lambda: None)
        sim.run()
        handle.cancel()  # stale handle: must not corrupt the counter
        assert sim.pending_count() == 0
        sim.schedule_after(1.0, lambda: None)
        assert sim.pending_count() == 1

    def test_pending_count_tracks_mixed_traffic(self):
        sim = Simulator()
        handles = [sim.schedule_after(float(i + 1), lambda: None) for i in range(80)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count() == 40
        sim.step()
        assert sim.pending_count() == 39
