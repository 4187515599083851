"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.kernel import (AllOf, AnyOf, DeadlockError,
                                 Interrupt, SimError, Simulator)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_event_value_passes_to_yield():
    sim = Simulator()
    got = []

    def waiter(ev):
        value = yield ev
        got.append(value)

    ev = sim.event()
    sim.process(waiter(ev))
    sim.schedule_call(3.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]
    assert sim.now == 3.0


def test_event_fail_raises_in_process():
    sim = Simulator()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.process(waiter(ev))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_process_return_value_is_event_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        proc = sim.process(child())
        result = yield proc
        return result * 2

    top = sim.process(parent())
    sim.run()
    assert top.value == 84


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child failed"]


def test_unjoined_crash_propagates_to_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimError, match="must yield Event"):
        sim.run()


def test_deadlock_detection_names_processes():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never fires

    sim.process(stuck(), name="stucky")
    with pytest.raises(DeadlockError, match="stucky"):
        sim.run()


def test_daemon_processes_do_not_deadlock():
    sim = Simulator()

    def daemon():
        yield sim.event()  # never fires; fine for a daemon

    def worker():
        yield sim.timeout(1.0)

    sim.process(daemon(), name="d", daemon=True)
    sim.process(worker())
    assert sim.run() == 1.0


def test_run_until_stops_the_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10.0)

    sim.process(ticker(), daemon=True)
    assert sim.run(until=35.0) == 35.0


def test_any_of_fires_on_first():
    sim = Simulator()
    order = []

    def proc():
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")
        fired = yield sim.any_of([fast, slow])
        order.append((sim.now, list(fired.values())))

    sim.process(proc())
    sim.run()
    assert order == [(1.0, ["fast"])]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done_at = []

    def proc():
        evs = [sim.timeout(t) for t in (3.0, 1.0, 2.0)]
        yield sim.all_of(evs)
        done_at.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done_at == [3.0]


def test_condition_requires_events():
    sim = Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim, [])
    with pytest.raises(ValueError):
        AllOf(sim, [])


def test_tie_break_is_insertion_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(5.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            seen.append((sim.now, intr.cause))

    proc = sim.process(sleeper())
    sim.schedule_call(2.0, proc.interrupt, "wakeup")
    sim.run()
    assert seen == [(2.0, "wakeup")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimError):
        proc.interrupt()


def test_schedule_call_runs_function():
    sim = Simulator()
    calls = []
    sim.schedule_call(4.0, calls.append, "x")
    sim.run()
    assert calls == ["x"] and sim.now == 4.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_determinism_same_seedless_structure():
    """Two identical simulations produce identical event orders."""

    def build():
        sim = Simulator()
        trace = []

        def proc(tag, period):
            for _ in range(5):
                yield sim.timeout(period)
                trace.append((sim.now, tag))

        sim.process(proc("a", 3.0))
        sim.process(proc("b", 2.0))
        sim.run()
        return trace

    assert build() == build()


def test_processed_counts_dispatches_live_and_in_total():
    """``processed`` is exact at any moment, also read from inside a
    dispatch mid-run (the sim-throughput area splits set-up events
    from run events that way), and across step() and repeated run()."""
    sim = Simulator()
    seen = []
    calls = []

    def proc():
        for _ in range(3):
            yield sim.timeout(1.0)
            seen.append(sim.processed)

    sim.process(proc())
    for t in (0.5, 1.5, 2.5):
        sim.schedule_call(t, calls.append, t)
    sim.run(until=2.0)
    assert seen and seen == sorted(seen) and seen[0] > 0
    mid = sim.processed
    sim.step()
    assert sim.processed == mid + 1
    sim.run()
    assert len(calls) == 3
    # every scheduled record was dispatched exactly once
    assert sim.processed == sim._seq
    assert seen[-1] < sim.processed
