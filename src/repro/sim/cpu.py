"""Fair-share CPU model for a multi-core node.

The model is generalized processor sharing (GPS): a node has ``cores`` cores
and a set of *runnable* threads.  While the number of runnable threads R is
at most the core count C every thread runs at full speed; beyond that each
runs at C/R of a core.  This is what produces the paper's key concurrency
effect (Section 3.2, Figure 5): busy-polling threads are always runnable, so
over-subscribing a node with busy pollers collapses throughput, while
event-polling threads block (not runnable) and scale.

Two kinds of runnable load are tracked:

* **finite jobs** -- ``compute(cpu_seconds)`` consumes that much CPU work and
  completes (handler execution, memcpy, serialization);
* **spinners** -- ``spin_begin()``/``spin_end()`` bracket a busy-poll loop:
  the thread is runnable (consuming a core's worth of schedulable time, thus
  slowing everyone else) but never "finishes".

Each scheduler holds at most one pending wake-up: a timeout for the moment
its earliest-finishing job completes.  Every state change (a job arrives, a
spinner starts or stops, the wake-up fires) cancels that timeout with
:meth:`Simulator.cancel` and schedules a fresh one, so cost is O(jobs)
bookkeeping per change with one outstanding event per node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.core import Event, SimulationError, Simulator, Timeout

__all__ = ["CpuScheduler", "SpinToken"]

_EPS = 1e-15


@dataclass
class SpinToken:
    """Handle returned by :meth:`CpuScheduler.spin_begin`."""

    scheduler: "CpuScheduler"
    sid: int
    active: bool = True


class _Job:
    __slots__ = ("remaining", "event")

    def __init__(self, remaining: float, event: Event):
        self.remaining = remaining
        self.event = event


class CpuScheduler:
    """GPS scheduler over ``cores`` identical cores."""

    def __init__(self, sim: Simulator, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.sim = sim
        self.cores = cores
        self._jobs: Dict[int, _Job] = {}
        self._spinners: set[int] = set()
        self._ids = itertools.count(1)
        self._last_update = 0.0
        self._wake: Optional[Timeout] = None  # the one pending wake-up
        self._busy_time = 0.0  # integrated core-seconds of useful work

    # -- public API ---------------------------------------------------------
    @property
    def runnable(self) -> int:
        return len(self._jobs) + len(self._spinners)

    @property
    def job_rate(self) -> float:
        """Fraction of one core each runnable thread currently receives."""
        r = self.runnable
        return 1.0 if r <= self.cores else self.cores / r

    @property
    def busy_core_seconds(self) -> float:
        """Total useful (finite-job) work completed so far, in core-seconds."""
        self._advance()
        return self._busy_time

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of the node's cores doing useful work over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (elapsed * self.cores)

    def compute(self, cpu_seconds: float) -> Event:
        """Consume ``cpu_seconds`` of CPU work; the event fires when done."""
        if not math.isfinite(cpu_seconds):
            # NaN never compares <= _EPS, so the job could never finish.
            raise ValueError(f"cpu_seconds must be finite, got {cpu_seconds}")
        ev = Event(self.sim)
        if cpu_seconds <= 0:
            ev.succeed()
            return ev
        self._advance()
        self._jobs[next(self._ids)] = _Job(cpu_seconds, ev)
        self._reschedule()
        return ev

    def spin_begin(self) -> SpinToken:
        """Mark the calling thread as a busy-polling (always runnable) thread."""
        self._advance()
        sid = next(self._ids)
        self._spinners.add(sid)
        self._reschedule()
        return SpinToken(self, sid)

    def spin_end(self, token: SpinToken) -> None:
        if not token.active:
            raise SimulationError("spin_end() on an inactive token")
        token.active = False
        self._advance()
        self._spinners.discard(token.sid)
        self._reschedule()

    # -- internals ------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        jobs = self._jobs
        if jobs:
            r = len(jobs) + len(self._spinners)  # job_rate, inlined
            rate = 1.0 if r <= self.cores else self.cores / r
            done = rate * dt
            self._busy_time += done * len(jobs)
            for job in jobs.values():
                job.remaining -= done
        self._last_update = now

    def _reschedule(self) -> None:
        sim = self.sim
        if self._wake is not None:
            sim.cancel(self._wake)
            self._wake = None
        jobs = self._jobs
        while True:
            # One pass: the jobs that just hit zero, and the least remaining
            # work among the others.
            finished = []
            min_rem = math.inf
            for jid, job in jobs.items():
                rem = job.remaining
                if rem <= _EPS:
                    finished.append(jid)
                elif rem < min_rem:
                    min_rem = rem
            for jid in finished:
                jobs.pop(jid).event.succeed()
            if not jobs:
                return
            delay = min_rem / self.job_rate
            now = sim.now
            if now + delay > now:
                break
            # Leftover work below the clock's float resolution can never be
            # drained by advancing time (now + delay == now would loop
            # forever); round it to done.
            for job in jobs.values():
                if job.remaining <= min_rem + _EPS:
                    job.remaining = 0.0
        wake = self._wake = Timeout(sim, delay)
        wake.callbacks.append(self._tick)

    def _tick(self, _wake: Event) -> None:
        self._wake = None
        self._advance()
        self._reschedule()
