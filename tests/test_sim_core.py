"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_at(3.0, lambda: log.append("c"))
        sim.schedule_at(1.0, lambda: log.append("a"))
        sim.schedule_at(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule_at(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_relative_schedule(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: sim.schedule_at(5.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_stop_ends_the_run(self):
        """A stopped simulator drops what is scheduled and schedules
        nothing more, even from the callback that stopped it."""
        sim = Simulator()
        log = []

        def stop():
            log.append(sim.now)
            sim.stop()
            sim.schedule(1.0, lambda: log.append("after"))

        sim.schedule_at(1.0, stop)
        sim.schedule_at(2.0, lambda: log.append("dropped"))
        assert sim.run() == 1.0
        assert log == [1.0] and sim.pending == 0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule_at(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append(1))
        sim.schedule_at(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.pending == 1
        sim.run()
        assert log == [1, 10]

    def test_run_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(1.0, storm)

        sim.schedule(0.0, storm)
        sim.run(max_events=50)
        assert sim.events_processed == 50

    def test_step(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append("x"))
        assert sim.step()
        assert log == ["x"]
        assert not sim.step()

    def test_empty_run(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5
