"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(1.5)
        done.append(sim.now)
        yield sim.timeout(0.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [1.5, 2.0]


def test_timeout_value_passed_into_process():
    sim = Simulator()
    seen = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        seen.append(v)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        return 42

    def outer():
        v = yield sim.process(inner())
        return v * 2

    p = sim.process(outer())
    assert sim.run(p) == 84


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield sim.process(bad())
        return "caught"

    p = sim.process(waiter())
    assert sim.run(p) == "caught"


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_run_until_time():
    sim = Simulator()
    fired = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1)
            fired.append(sim.now)

    sim.process(proc())
    sim.run(until=4.5)
    assert fired == [1, 2, 3, 4]
    assert sim.now == 4.5


def test_run_until_event_deadlock_detected():
    sim = Simulator()

    def proc():
        yield sim.event()  # nobody ever triggers this

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(p)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="yielded 42"):
        sim.run(p)
    assert p.triggered and not p.ok


def test_unobserved_failure_surfaces_at_run():
    """A crashed process nobody waits on must not vanish silently."""
    sim = Simulator()

    def boom():
        yield sim.timeout(1)
        raise RuntimeError("unobserved")

    sim.process(boom())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_defused_failure_stays_quiet():
    sim = Simulator()

    def boom():
        yield sim.timeout(1)
        raise RuntimeError("defused")

    p = sim.process(boom())
    p.defuse()
    sim.run()
    assert p.triggered and not p.ok


def test_all_of_collects_values():
    sim = Simulator()

    def waiter():
        vals = yield AllOf(sim, [sim.timeout(3, "a"), sim.timeout(1, "b")])
        return (sim.now, vals)

    p = sim.process(waiter())
    assert sim.run(p) == (3, ["a", "b"])


def test_any_of_returns_first():
    sim = Simulator()

    def waiter():
        idx, val = yield AnyOf(sim, [sim.timeout(3, "slow"), sim.timeout(1, "fast")])
        return (sim.now, idx, val)

    p = sim.process(waiter())
    assert sim.run(p) == (1, 1, "fast")


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def waiter():
        vals = yield AllOf(sim, [])
        return vals

    p = sim.process(waiter())
    assert sim.run(p) == []


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))

    def interrupter(p):
        yield sim.timeout(2)
        p.interrupt("wake up")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert log == [("interrupted", 2, "wake up")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)
        return "ok"

    p = sim.process(quick())
    sim.run()
    p.interrupt()  # must not raise
    assert p.value == "ok"


def test_determinism_same_program_same_trace():
    def build():
        sim = Simulator()
        trace = []

        def worker(i):
            for k in range(3):
                yield sim.timeout(0.5 * (i + 1))
                trace.append((sim.now, i, k))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        return trace

    assert build() == build()


def test_succeed_with_negative_delay_rejected():
    """A negative delay would move the clock backwards (resume at t=2 after
    a timeout at t=5); it is refused and the event stays untriggered."""
    sim = Simulator()
    ev = sim.event()
    resumed = []

    def waiter():
        yield ev
        resumed.append(sim.now)

    def trigger():
        yield sim.timeout(5)
        with pytest.raises(ValueError):
            ev.succeed(delay=-3)
        assert not ev.triggered
        ev.succeed(delay=1)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert resumed == [6]


@pytest.mark.parametrize("delay", [float("nan"), -1e-9])
def test_fail_with_invalid_delay_rejected(delay):
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.fail(RuntimeError("x"), delay=delay)
    assert not ev.triggered


def test_nan_timeout_rejected():
    """NaN passes a ``delay < 0`` check; scheduled, it stalls run() so that
    neither it nor anything after it fires."""
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        sim.event().succeed(delay=float("nan"))
    fired = []
    sim.timeout(1.0).add_callback(lambda _ev: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]


def test_cancelled_event_runs_no_callbacks():
    sim = Simulator()
    fired = []
    doomed = sim.timeout(1.0)
    doomed.add_callback(lambda _ev: fired.append("cancelled"))
    sim.timeout(2.0).add_callback(lambda _ev: fired.append(sim.now))
    sim.cancel(doomed)
    assert doomed.processed
    sim.run()
    assert fired == [2.0]
    assert sim.events_executed == 1  # the cancelled entry is not counted


def test_cancelled_entries_do_not_advance_the_clock():
    sim = Simulator()
    sim.timeout(1.0)
    sim.cancel(sim.timeout(7.0))
    sim.run()
    assert sim.now == 1.0
    sim.cancel(sim.timeout(1.0))
    sim.timeout(2.0)
    sim.step()
    assert sim.now == 3.0


def test_peek_skips_cancelled_entries():
    sim = Simulator()
    first = sim.timeout(1.0)
    sim.timeout(3.0)
    sim.cancel(first)
    assert sim.peek() == 3.0
    sim.run()
    sim.cancel(sim.timeout(5.0))
    assert sim.peek() == float("inf")


def test_cancel_needs_a_scheduled_event_that_has_not_run():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.cancel(sim.event())  # pending: not scheduled yet
    ran = sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.cancel(ran)
    twice = sim.timeout(1.0)
    sim.cancel(twice)
    with pytest.raises(SimulationError):
        sim.cancel(twice)


def test_run_until_event_deadlock_detected_past_cancelled_entries():
    sim = Simulator()

    def proc():
        yield sim.event()  # nobody ever triggers this

    p = sim.process(proc())
    sim.cancel(sim.timeout(5.0))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(p)
    assert sim.now == 0.0


def test_yield_event_from_other_simulator_fails_process():
    sim, other = Simulator(), Simulator()

    def proc():
        yield other.timeout(1)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="another simulator"):
        sim.run(p)
