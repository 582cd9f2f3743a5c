"""Tests for the event queue and simulation clock."""

import pytest

from repro.net.events import EventQueue
from repro.net.sim import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append("c"))
        q.push(1.0, lambda: order.append("a"))
        q.push(2.0, lambda: order.append("b"))
        while (entry := q.pop()) is not None:
            _, _, callback, args = entry
            callback(*args)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(1.0, lambda i=i: order.append(i))
        while (entry := q.pop()) is not None:
            _, _, callback, args = entry
            callback(*args)
        assert order == [0, 1, 2, 3, 4]

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            EventQueue().push(0.0, "not callable")


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.at(1.5, lambda: times.append(sim.now))
        sim.at(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(2.0, lambda: sim.after(3.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().after(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        for t in [1.0, 2.0, 3.0, 4.0]:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run_until(2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(2.0)

    def test_every_fires_periodically(self):
        sim = Simulator()
        fires = []
        sim.every(1.0, lambda: fires.append(sim.now))
        sim.run_until(5.5)
        assert fires == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_with_custom_start(self):
        sim = Simulator()
        fires = []
        sim.every(2.0, lambda: fires.append(sim.now), start=0.5)
        sim.run_until(5.0)
        assert fires == [0.5, 2.5, 4.5]

    def test_every_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Simulator().every(0.0, lambda: None)

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(3):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_max_events(self):
        sim = Simulator()
        for t in range(10):
            sim.at(float(t), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6
