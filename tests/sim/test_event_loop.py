"""Event loop: ordering, determinism, cancellation, horizons."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import Clock
from repro.sim.event_loop import EventLoop


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_no_time_travel(self):
        clock = Clock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.call_at(3.0, lambda: fired.append("c"))
        loop.call_at(1.0, lambda: fired.append("a"))
        loop.call_at(2.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        fired = []
        for name in "abcde":
            loop.call_at(1.0, lambda n=name: fired.append(n))
        loop.run()
        assert fired == list("abcde")

    def test_clock_tracks_event_time(self):
        loop = EventLoop()
        times = []
        loop.call_at(2.5, lambda: times.append(loop.clock.now))
        loop.run()
        assert times == [2.5]

    def test_call_later(self):
        loop = EventLoop()
        fired = []
        loop.call_at(4.0, lambda: loop.call_later(1.5, lambda: fired.append(loop.clock.now)))
        loop.run()
        assert fired == [5.5]

    def test_scheduling_in_past_rejected(self):
        loop = EventLoop()
        loop.call_at(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().call_later(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                loop.call_later(1.0, lambda: chain(depth + 1))

        loop.call_at(0.0, lambda: chain(0))
        loop.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert loop.clock.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        handle = loop.call_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        loop.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        handle = loop.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert loop.run() == 0

    def test_cancelled_event_is_not_counted_as_run(self):
        loop = EventLoop()
        fired = []
        keep = loop.call_at(1.0, lambda: fired.append("keep"))
        drop = loop.call_at(2.0, lambda: fired.append("drop"))
        drop.cancel()
        assert loop.run() == 1
        assert fired == ["keep"]
        assert keep.time == 1.0 and not keep.cancelled

    def test_peek_skips_cancelled_head(self):
        loop = EventLoop()
        first = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        first.cancel()
        assert loop.peek_next_time() == 2.0


class TestRunControl:
    def test_run_until_horizon(self):
        loop = EventLoop()
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(2.0, lambda: fired.append(2))
        loop.call_at(3.0, lambda: fired.append(3))
        count = loop.run(until=2.0)
        assert count == 2
        assert fired == [1, 2]
        assert loop.clock.now == 2.0  # clock parked at the horizon
        loop.run()
        assert fired == [1, 2, 3]

    def test_event_exactly_at_horizon_fires(self):
        loop = EventLoop()
        fired = []
        loop.call_at(2.0, lambda: fired.append("edge"))
        loop.run(until=2.0)
        assert fired == ["edge"]

    def test_max_events_budget(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.call_at(float(i), lambda i=i: fired.append(i))
        assert loop.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3]

    def test_empty_run_returns_zero(self):
        assert EventLoop().run() == 0

    def test_processed_count(self):
        loop = EventLoop()
        for i in range(3):
            loop.call_at(float(i), lambda: None)
        loop.run()
        assert loop.processed_count == 3

    def test_step_returns_false_when_empty(self):
        assert EventLoop().step() is False


class TestTieBreaking:
    """Same-timestamp events pop in insertion order (heap sequence number)."""

    def test_simultaneous_events_fire_in_insertion_order(self):
        loop = EventLoop()
        fired = []
        for i in range(20):
            loop.call_at(1.0, lambda i=i: fired.append(i))
        loop.run()
        assert fired == list(range(20))

    @given(
        timestamps=st.lists(
            st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25]),
            min_size=1,
            max_size=40,
        )
    )
    def test_insertion_order_property(self, timestamps):
        # Property: the firing order is the stable sort of the schedule
        # by timestamp — ties broken by insertion index, never by
        # callback identity or float heap accidents.
        loop = EventLoop()
        fired = []
        for index, timestamp in enumerate(timestamps):
            loop.call_at(
                timestamp, lambda index=index: fired.append(index)
            )
        loop.run()
        expected = [
            index
            for index, _ in sorted(
                enumerate(timestamps), key=lambda pair: (pair[1], pair[0])
            )
        ]
        assert fired == expected
