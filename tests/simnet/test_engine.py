"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simnet.engine import Engine


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.at(3.0, lambda: order.append("c"))
        engine.at(1.0, lambda: order.append("a"))
        engine.at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        engine = Engine()
        order = []
        for name in "abc":
            engine.at(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]
        # Callbacks scheduled with arguments share the same tie-break,
        # through at() and after() and mixed with closures.
        engine.at(2.0, order.append, "d")
        engine.after(1.0, order.append, "e")
        engine.at(2.0, lambda: order.append("f"))
        engine.after(1.0, order.extend, ["g", "h"])
        engine.run()
        assert order == ["a", "b", "c", "d", "e", "f", "g", "h"]

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.at(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_after_is_relative(self):
        engine = Engine(start_time=10.0)
        seen = []
        engine.after(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [11.5]

    def test_scheduling_in_past_rejected(self):
        engine = Engine(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.after(-1.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.at(3.0, lambda: fired.append(3))
        engine.run_until(2.0)
        assert fired == [1]
        assert engine.now == 2.0
        assert engine.pending == 1

    def test_events_can_schedule_events(self):
        engine = Engine()
        results = []

        def chain(depth: int) -> None:
            results.append(depth)
            if depth < 3:
                engine.after(1.0, lambda: chain(depth + 1))

        engine.at(0.0, lambda: chain(0))
        engine.run()
        assert results == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_event_budget_guards_loops(self):
        engine = Engine()

        def forever() -> None:
            engine.after(0.0, forever)

        engine.at(0.0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_exact_budget_drains_heap_without_raising(self):
        """Regression: draining exactly ``max_events`` events is success,
        not budget exhaustion — the guard must check whether events
        remain before raising."""
        engine = Engine()
        for index in range(100):
            engine.at(float(index), lambda: None)
        engine.run(max_events=100)
        assert engine.events_run == 100
        assert engine.pending == 0

    def test_budget_one_short_still_raises(self):
        engine = Engine()
        for index in range(101):
            engine.at(float(index), lambda: None)
        with pytest.raises(SimulationError, match="budget exhausted"):
            engine.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
    @settings(max_examples=30)
    def test_execution_order_is_sorted(self, times):
        engine = Engine()
        executed = []
        for t in times:
            engine.at(t, lambda t=t: executed.append(t))
        engine.run()
        assert executed == sorted(times)
