"""Calendar-queue wheel vs the reference heap: one ordering contract.

The array engine's bit-identity guarantee rests on the two queues being
observationally interchangeable (events.py documents the contract):
pops happen in ``(time, seq)`` order, equal float timestamps resolve in
schedule order, and the simulator behaves the same on either. The hypothesis suites drive both implementations with the
same random schedules — including adversarial ties and interleaved
push/pop around bucket boundaries — and require identical pop streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.events import CalendarQueue, EventQueue
from repro.net.sim import Simulator

#: Timestamps drawn from a small lattice so equal-time collisions (the
#: float tie-break hazard) occur constantly, plus awkward float values.
_TIMES = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)

_WIDTHS = st.sampled_from([0.001, 0.01, 0.1, 1.0, 3.7])


def _drain(queue):
    order = []
    while (entry := queue.pop()) is not None:
        order.append(entry[:2])
    return order


def _fire(entry):
    _, _, callback, args = entry
    callback(*args)


@settings(max_examples=100, deadline=None)
@given(times=st.lists(_TIMES, max_size=60), width=_WIDTHS)
def test_property_pop_order_matches_heap(times, width):
    heap, wheel = EventQueue(), CalendarQueue(bucket_width=width)
    for t in times:
        heap.push(t, lambda: None)
        wheel.push(t, lambda: None)
    heap_order = _drain(heap)
    assert _drain(wheel) == heap_order
    # The shared contract, independently: sorted by (time, seq) — equal
    # timestamps strictly in schedule order.
    assert heap_order == sorted(heap_order)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["push", "pop", "peek"]), _TIMES),
        max_size=80,
    ),
    width=_WIDTHS,
)
def test_property_interleaved_push_pop_matches_heap(ops, width):
    """Pushes landing at/before the wheel's current bucket mid-drain must
    still surface in exact (time, seq) order — the regime where a naive
    wheel would misfile entries."""
    heap, wheel = EventQueue(), CalendarQueue(bucket_width=width)
    popped_heap, popped_wheel = [], []
    for op, t in ops:
        if op == "push":
            heap.push(t, lambda: None)
            wheel.push(t, lambda: None)
        elif op == "pop":
            a, b = heap.pop(), wheel.pop()
            popped_heap.append(None if a is None else a[:2])
            popped_wheel.append(None if b is None else b[:2])
        else:
            assert heap.peek_time() == wheel.peek_time()
    assert popped_wheel == popped_heap
    assert _drain(wheel) == _drain(heap)


@settings(max_examples=40, deadline=None)
@given(
    period=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    horizon=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    width=_WIDTHS,
)
def test_property_every_fires_identically_on_both_queues(period, horizon, width):
    firings = {}
    for name, queue in (("heap", EventQueue()), ("wheel", CalendarQueue(width))):
        sim = Simulator(queue=queue)
        times = []
        sim.every(period, lambda times=times, sim=sim: times.append(sim.now))
        sim.run_until(horizon)
        firings[name] = times
    assert firings["wheel"] == firings["heap"]
    assert all(t <= horizon for t in firings["heap"])


@pytest.mark.parametrize("queue_cls", [EventQueue, CalendarQueue])
def test_no_past_scheduling_on_either_queue(queue_cls):
    sim = Simulator(queue=queue_cls())
    sim.at(1.0, sim.stop)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.after(-0.1, lambda: None)


class TestTieBreakContract:
    """Regression pin for the float-time tie-break hazard (events.py):
    events at bit-equal timestamps fire in schedule order, not in
    heap-internal or bucket-internal order."""

    @pytest.mark.parametrize("queue_cls", [EventQueue, CalendarQueue])
    def test_equal_timestamps_pop_in_schedule_order(self, queue_cls):
        queue = queue_cls()
        order = []
        # 0.1 + 0.2 == 0.30000000000000004 != 0.3: schedule a mix of
        # bit-equal and almost-equal floats out of order.
        queue.push(0.1 + 0.2, lambda: order.append("computed-a"))
        queue.push(0.3, lambda: order.append("literal"))
        queue.push(0.1 + 0.2, lambda: order.append("computed-b"))
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert order == ["literal", "computed-a", "computed-b"]

    @pytest.mark.parametrize("queue_cls", [EventQueue, CalendarQueue])
    def test_simultaneous_exchange_end_and_forward(self, queue_cls):
        """The simulator pattern that makes ties real: with zero forward
        delay, an exchange-end callback and the forwarding it released
        land on the bit-identical timestamp."""
        sim = Simulator(queue=queue_cls())
        order = []
        end = 0.005 + 0.01  # one failed MAC attempt's end time
        sim.at(end, lambda: order.append("finish_exchange"))
        sim.at(end, lambda: order.append("forward"))
        sim.run()
        assert order == ["finish_exchange", "forward"]

    def test_wheel_ties_straddling_bucket_refill(self):
        """Ties surviving a bucket promotion (heapify) keep seq order."""
        wheel = CalendarQueue(bucket_width=0.5)
        order = []
        for i in range(8):
            wheel.push(1.25, lambda i=i: order.append(i))
        wheel.push(0.1, lambda: order.append("early"))
        while (entry := wheel.pop()) is not None:
            _fire(entry)
        assert order == ["early", 0, 1, 2, 3, 4, 5, 6, 7]


class TestCalendarQueueBasics:
    def test_rejects_bad_bucket_width(self):
        for width in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                CalendarQueue(bucket_width=width)

    def test_len_and_bool_track_live_events(self):
        wheel = CalendarQueue()
        assert not wheel
        wheel.push(1.0, lambda: None)
        wheel.push(2.0, lambda: None)
        assert len(wheel) == 2
        assert wheel.pop()[0] == 1.0
        assert len(wheel) == 1
        assert wheel.pop()[0] == 2.0
        assert not wheel

    def test_push_args_reach_callback(self):
        wheel = CalendarQueue()
        seen = []
        wheel.push(1.0, seen.append, "payload")
        _fire(wheel.pop())
        assert seen == ["payload"]

    def test_push_into_drained_past_bucket(self):
        """After the wheel advances, a push at an earlier time must still
        pop before everything later (general priority-queue semantics)."""
        wheel = CalendarQueue(bucket_width=1.0)
        wheel.push(5.5, lambda: None)
        assert wheel.pop()[0] == 5.5
        wheel.push(9.0, lambda: None)
        wheel.push(0.25, lambda: None)
        assert wheel.pop()[0] == 0.25
        assert wheel.pop()[0] == 9.0
