"""Unit tests for the GPS CPU scheduler."""

import contextlib
import signal

import pytest

from repro.sim import CpuScheduler, SimulationError, Simulator


def run_jobs(cores, jobs):
    """Run (start_time, cpu_seconds) jobs; return completion times by index."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    out = {}

    def job(i, start, work):
        yield sim.timeout(start)
        yield cpu.compute(work)
        out[i] = sim.now

    for i, (start, work) in enumerate(jobs):
        sim.process(job(i, start, work))
    sim.run()
    return out


def test_single_job_full_speed():
    assert run_jobs(1, [(0, 5.0)]) == {0: 5.0}


def test_two_jobs_two_cores_no_contention():
    assert run_jobs(2, [(0, 5.0), (0, 5.0)]) == {0: 5.0, 1: 5.0}


def test_two_jobs_one_core_share():
    # Two equal jobs time-share one core: both finish at 2x their work.
    assert run_jobs(1, [(0, 5.0), (0, 5.0)]) == {0: 10.0, 1: 10.0}


def test_unequal_jobs_one_core():
    # job0 = 1s work, job1 = 3s work on 1 core.
    # Shared until job0 done at t=2 (each got 1s of CPU);
    # job1 then runs alone, 2s left -> done at t=4.
    out = run_jobs(1, [(0, 1.0), (0, 3.0)])
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(4.0)


def test_late_arrival_shares():
    # job0: 4s work from t=0 on 1 core. job1 arrives at t=2 with 1s work.
    # t in [0,2): job0 alone, 2s done. [2,4): shared, each +1s.
    # job1 done at t=4; job0 has 1s left, alone -> done at t=5.
    out = run_jobs(1, [(0, 4.0), (2, 1.0)])
    assert out[1] == pytest.approx(4.0)
    assert out[0] == pytest.approx(5.0)


def test_spinner_steals_time():
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    out = {}

    def spinner():
        tok = cpu.spin_begin()
        yield sim.timeout(10)
        cpu.spin_end(tok)

    def job():
        yield cpu.compute(2.0)
        out["done"] = sim.now

    sim.process(spinner())
    sim.process(job())
    sim.run()
    # Job shares the single core with the spinner: 2s work at 1/2 speed.
    assert out["done"] == pytest.approx(4.0)


def test_spinner_on_spare_core_harmless():
    sim = Simulator()
    cpu = CpuScheduler(sim, 2)
    out = {}

    def spinner():
        tok = cpu.spin_begin()
        yield sim.timeout(10)
        cpu.spin_end(tok)

    def job():
        yield cpu.compute(2.0)
        out["done"] = sim.now

    sim.process(spinner())
    sim.process(job())
    sim.run()
    assert out["done"] == pytest.approx(2.0)


def test_spin_end_twice_rejected():
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    tok = cpu.spin_begin()
    cpu.spin_end(tok)
    with pytest.raises(SimulationError):
        cpu.spin_end(tok)


def test_zero_work_completes_immediately():
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    ev = cpu.compute(0.0)
    assert ev.triggered


def test_oversubscription_scales_linearly():
    # 8 equal jobs on 2 cores: each runs at 2/8 = 1/4 speed.
    out = run_jobs(2, [(0, 1.0)] * 8)
    for t in out.values():
        assert t == pytest.approx(4.0)


def test_busy_core_seconds_accounting():
    sim = Simulator()
    cpu = CpuScheduler(sim, 4)

    def job():
        yield cpu.compute(3.0)

    sim.process(job())
    sim.process(job())
    sim.run()
    assert cpu.busy_core_seconds == pytest.approx(6.0)
    assert cpu.utilization(3.0) == pytest.approx(6.0 / 12.0)


def test_many_staggered_jobs_conserve_work():
    # Work conservation: total busy core-seconds equals total submitted work.
    sim = Simulator()
    cpu = CpuScheduler(sim, 3)
    total = 0.0

    def job(start, work):
        yield sim.timeout(start)
        yield cpu.compute(work)

    for i in range(20):
        w = 0.1 + (i % 5) * 0.3
        total += w
        sim.process(job(i * 0.05, w))
    sim.run()
    assert cpu.busy_core_seconds == pytest.approx(total)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging the suite."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("work", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_work_rejected(work):
    # A NaN job never compares <= 0 remaining, so _reschedule used to spin
    # forever once it was the only job left.
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    with time_limit(5.0):
        done = cpu.compute(1e-6)
        with pytest.raises(ValueError):
            cpu.compute(work)
        sim.run()
    assert done.processed and sim.now == 1e-6
    assert cpu.runnable == 0


def _live_wakes(sim, cpu):
    """Uncancelled heap entries whose callbacks belong to ``cpu``."""
    return [ev for _when, _eid, ev in sim._heap
            if ev.callbacks and any(getattr(cb, "__self__", None) is cpu
                                    for cb in ev.callbacks)]


def test_at_most_one_live_wake_per_scheduler():
    """A storm of staggered arrivals keeps one pending wake per node; the
    superseded ones are cancelled, not run."""
    sim = Simulator()
    cpu = CpuScheduler(sim, 2)
    other = CpuScheduler(sim, 1)
    live = []

    def job(i):
        yield sim.timeout(i * 1e-6)
        ev = cpu.compute(5e-6 + (i % 7) * 1e-6)
        other.compute(2e-6)
        live.append((len(_live_wakes(sim, cpu)), len(_live_wakes(sim, other))))
        yield ev

    n = 200
    for i in range(n):
        sim.process(job(i))
    sim.run()
    assert len(live) == n
    assert max(live) == (1, 1)
    assert cpu.runnable == other.runnable == 0
    # Per job: boot, timeout, two completions, process end (1,000), plus 400
    # live wakes.  With stale wake-ups left to run as no-ops it was 1,798.
    assert sim.events_executed == 1400
