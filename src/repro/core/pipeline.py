"""Pipelined RPC machinery: bounded in-flight windows over one channel.

Every engine call -- blocking ``HatRpcEngine.call`` as much as
``call_async`` / ``call_many`` -- runs through the one
:class:`ChannelPipeline` of its channel.  The pieces:

* :func:`pack_pip` / :func:`split_pip` -- the 8-byte engine-level
  correlation header (magic ``0xC4 'PIP'`` + u32 sequence number) that
  rides between the trace envelope and the Thrift message of a pipelined
  request.  The server echoes it onto the response, so a client receiver
  can match completions to in-flight calls even when they return out of
  submission order (e.g. after a retry).  Calls that hold the channel
  alone carry no header, so the classic blocking call stays byte-identical
  on the wire.
* :class:`CallHandle` -- the completion handle of one call:
  ``yield from handle.wait()`` blocks until the correlated response (or
  failure) arrives.  On a per-wait deadline the engine applies its one
  deadline rule (abandon a call posted into a shared window; interrupt a
  call that holds its channel alone and discard that channel).
* :class:`ChannelPipeline` -- per-channel in-flight bookkeeping: a bounded
  credit window sized from the channel plan (admission blocks when full --
  the backpressure), a receiver process that correlates responses by
  sequence number, and a sweep hook that hands in-flight calls back to the
  engine when the channel dies (so idempotent calls can retry elsewhere).
* :class:`BoundedSeqidSet` -- the LRU-bounded (function, seqid) set behind
  the engine's idempotency gate, so a long-lived client's duplicate-send
  guard does not grow one entry per call forever.
* :func:`pack_epo` / :func:`split_epo` -- the 8-byte tuner-epoch tag
  (magic ``0xC6 'EPO'`` + u32 epoch) a tuner-enabled engine prepends to
  every RDMA request.  The server strips it, records the highest epoch it
  has seen, and echoes it onto the response; a client whose tuner has
  since re-planned drops the stale sample instead of attributing it to
  the new choice -- the split-brain guard for plans changing mid-flight.

The magic byte ``0xC4`` cannot start a Thrift binary message (strict
messages start ``0x80``; non-strict ones with a sane name length start
``0x00``), so servers detect the header without ambiguity -- the same trick
the ``0xC3`` trace envelope uses one layer up (and the ``0xC6`` epoch tag
one layer down).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.core import Interrupt

__all__ = [
    "EPO_BYTES",
    "PIP_BYTES",
    "BoundedSeqidSet",
    "CallHandle",
    "ChannelPipeline",
    "PipelineDead",
    "pack_epo",
    "pack_pip",
    "split_epo",
    "split_pip",
]

_PIP_MAGIC = b"\xc4PIP"
_PIP = struct.Struct("!4sI")
PIP_BYTES = _PIP.size          # 8

_EPO_MAGIC = b"\xc6EPO"
_EPO = struct.Struct("!4sI")
EPO_BYTES = _EPO.size          # 8


def pack_pip(seq: int) -> bytes:
    """The correlation header for in-flight sequence number ``seq``."""
    return _PIP.pack(_PIP_MAGIC, seq & 0xFFFFFFFF)


def split_pip(data: bytes) -> Tuple[Optional[int], bytes]:
    """(seq, payload) if ``data`` leads with a correlation header, else
    (None, data) -- unframed messages pass through byte-identical."""
    if len(data) < PIP_BYTES or data[:4] != _PIP_MAGIC:
        return None, data
    _magic, seq = _PIP.unpack_from(data)
    return seq, data[PIP_BYTES:]


def pack_epo(epoch: int) -> bytes:
    """The tuner-epoch tag for plan epoch ``epoch``."""
    return _EPO.pack(_EPO_MAGIC, epoch & 0xFFFFFFFF)


def split_epo(data: bytes) -> Tuple[Optional[int], bytes]:
    """(epoch, payload) if ``data`` leads with an epoch tag, else
    (None, data) -- untagged messages pass through byte-identical."""
    if len(data) < EPO_BYTES or data[:4] != _EPO_MAGIC:
        return None, data
    _magic, epoch = _EPO.unpack_from(data)
    return epoch, data[EPO_BYTES:]


class BoundedSeqidSet:
    """Insertion-ordered set of (function, seqid) keys capped at ``cap``.

    The engine's idempotency gate only needs to recognize *recent*
    duplicates (a retry races its original by at most the in-flight
    window, not by thousands of calls), so the oldest entries are evicted
    once the cap is reached -- a long-lived client no longer leaks one
    tuple per call forever.

    A seqid whose call is still in flight must never be evicted, whatever
    the cap pressure: losing it silently re-opens the duplicate-send window
    the gate exists to close.  Callers ``add(key, pinned=True)`` when the
    message reaches the wire and :meth:`unpin` on completion; eviction only
    ever removes unpinned (completed) entries, growing past ``cap``
    transiently if a full window of stalled calls pins everything.
    """

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError(f"cap must be >= 1: {cap}")
        self.cap = cap
        self._keys: Dict[Any, None] = {}     # insertion-ordered
        self._pinned: set = set()            # live (in-flight) keys
        self.evictions = 0

    def add(self, key, pinned: bool = False) -> None:
        self._keys.pop(key, None)            # refresh recency
        self._keys[key] = None
        if pinned:
            self._pinned.add(key)
        self._evict()

    def unpin(self, key) -> None:
        """The call behind ``key`` completed: the entry stays (it still
        gates duplicates) but becomes evictable under cap pressure."""
        self._pinned.discard(key)
        self._evict()

    def pinned(self, key) -> bool:
        return key in self._pinned

    def _evict(self) -> None:
        if len(self._keys) <= self.cap:
            return
        over = len(self._keys) - self.cap
        for key in [k for k in self._keys if k not in self._pinned][:over]:
            self._keys.pop(key)
            self.evictions += 1

    def discard(self, key) -> None:
        self._keys.pop(key, None)
        self._pinned.discard(key)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BoundedSeqidSet(len={len(self._keys)}, cap={self.cap}, "
                f"pinned={len(self._pinned)})")


class CallHandle:
    """Completion handle for one engine call.

    The engine resolves it from whichever process completes the call; the
    caller blocks on :meth:`wait` (or polls :attr:`done` / calls
    :meth:`result` after completion).  Failures are *stored*, never raised
    into the simulator's event loop -- they surface when (and only when)
    the caller waits.  The wake-up event exists only once a waiter
    blocks, so a call completed inline costs no event.
    """

    def __init__(self, sim, fn: str):
        self.sim = sim
        self.fn = fn
        self.done = False
        #: a deadline expired in wait() before the call completed
        self.abandoned = False
        #: sim time the call completed (set at resolution -- benchmarks
        #: read it for per-call latency even when waits batch up later)
        self.t_done: Optional[float] = None
        self._value = None
        self._error: Optional[BaseException] = None
        self._event = None
        self._entry = None         # the engine's pending call, for deadlines

    def _resolve(self, value) -> None:
        if self.done:
            return
        self.done = True
        self.t_done = self.sim.now
        self._value = value
        self._entry = None         # no entry <-> handle cycle once settled
        if self._event is not None:
            self._event.succeed(value)

    def _fail(self, exc: BaseException) -> None:
        if self.done:
            return
        self.done = True
        self.t_done = self.sim.now
        self._error = exc
        self._entry = None
        # succeed(), not fail(): the exception belongs to whoever waits on
        # the handle, and an unobserved failed event would crash the
        # simulator's event loop.
        if self._event is not None:
            self._event.succeed(None)

    def result(self):
        """The response bytes (raises the stored failure) -- only valid
        once :attr:`done` is True."""
        if not self.done:
            raise RuntimeError(f"call {self.fn!r} is still in flight")
        if self._error is not None:
            raise self._error
        return self._value

    def wait(self, timeout: Optional[float] = None):
        """Coroutine: block until the call completes; returns the response
        bytes or raises the call's failure.

        With ``timeout``, a call still in flight after the budget raises
        TIMED_OUT; the engine's deadline rule decides what happens to the
        call itself (see ``HatRpcEngine._on_deadline``).
        """
        if not self.done:
            if self._event is None:
                self._event = self.sim.event()
            if timeout is None:
                yield self._event
            else:
                yield self.sim.any_of([self._event,
                                       self.sim.timeout(timeout)])
                if not self.done:
                    self.abandoned = True
                    raise self._entry.engine._on_deadline(self._entry,
                                                          timeout)
        return self.result()


class PipelineDead(RuntimeError):
    """The pipeline's channel died before this call reached the wire."""


class ChannelPipeline:
    """Bounded in-flight window over one engine channel.

    Three ways to run a call, chosen per submission:

    * **inline** (``submit(entry, inline=True)``: a blocking caller on an
      idle window, or a channel that cannot pipeline) -- the submitting
      process takes the whole window and runs the classic ``chan.call``
      itself: no process spawn, no correlation header.
    * **pipelined** (``chan.supports_pipelining``) -- requests are framed
      with a correlation header and posted via the protocol's split
      ``post()``; a single receiver process pairs ``recv()`` completions
      back to entries by sequence number.  Up to ``window`` calls overlap
      on the one connection.
    * **solo** (everything else: TCP, rendezvous protocols, RFP) -- the
      window degrades to 1 and each call runs ``chan.call`` in its own
      process, preserving the async API without violating the protocol's
      single-outstanding contract.

    Entries are duck-typed: ``wire(seq)``, ``complete(resp)``,
    ``fail(exc)``, plus ``resp_hint`` / ``oneway`` / ``act`` for the
    inline and solo modes (the engine's ``_PendingCall``).  When the
    channel dies, every entry that was on the wire -- in flight, or the
    one whose post / call just failed -- is handed to
    ``on_dead(pipe, entries, exc)`` in submission order so the engine can
    retry or fail them.
    """

    def __init__(self, sim, chan, window: int, index: int = 0,
                 error_types: tuple = (Exception,), on_dead=None,
                 occupancy=None):
        self.sim = sim
        self.chan = chan
        self.index = index
        self.pipelined = bool(getattr(chan, "supports_pipelining", False))
        self.window = max(1, int(window)) if self.pipelined else 1
        self._errors = tuple(error_types)
        self.on_dead = on_dead
        self._occupancy = occupancy          # Gauge or None
        self._credits = self.window
        self._waiters: Deque[Any] = deque()
        self._next_seq = 0
        self.inflight: Dict[int, Any] = {}   # seq -> entry (pipelined mode)
        self._solo = 0                       # outstanding inline/solo calls
        #: (entry, process) of the call running ``chan.call`` alone on this
        #: channel (inline or solo); (None, None) when there is none
        self.holder: Tuple[Any, Any] = (None, None)
        self._receiver = None
        self.dead = False
        self.posted = 0
        self.completed = 0
        self.high_water = 0

    @property
    def pending(self) -> int:
        return len(self.inflight) + self._solo

    # -- window credits ------------------------------------------------------
    def _acquire(self, n: int = 1):
        while self._credits < n and not self.dead:
            ev = self.sim.event()
            self._waiters.append(ev)
            try:
                yield ev
            except BaseException:
                # Interrupted while queued: never strand a wake-up.
                if ev in self._waiters:
                    self._waiters.remove(ev)
                elif self._waiters and self._credits > 0:
                    self._waiters.popleft().succeed()
                raise
        if self.dead:
            raise PipelineDead(
                f"channel {self.index} died while waiting for a window slot")
        self._credits -= n

    def _release(self, n: int = 1) -> None:
        self._credits += n
        if self._occupancy is not None:
            self._occupancy.set(self.pending)
        for _ in range(min(n, len(self._waiters))):
            self._waiters.popleft().succeed()

    def _occupy(self) -> None:
        self.high_water = max(self.high_water, self.pending)
        if self._occupancy is not None:
            self._occupancy.set(self.pending)

    # -- submission ----------------------------------------------------------
    def submit(self, entry, inline: bool = False):
        """Coroutine: admit one call under the window (backpressure blocks
        here), then put it on the wire.  Returns True while the call is in
        flight (posted, or handed to a solo process), False once it was
        settled here (completed inline, or swept through ``on_dead``
        because its call / post hit a dead channel).  Raises
        :class:`PipelineDead` if the channel died before this call reached
        the wire -- the caller re-picks a channel."""
        if self.dead:
            raise PipelineDead(f"channel {self.index} is dead")
        if inline:
            yield from self._acquire(self.window)
            self._solo += 1
            self._occupy()
            try:
                resp = yield from self._call_alone(entry, self.window)
            except self._errors as exc:
                self._die(exc, extra=(entry,))
                return False
            entry.complete(resp)
            return False
        yield from self._acquire()
        if not self.pipelined:
            self._solo += 1
            self._occupy()
            self.sim.process(self._solo_call(entry),
                             name=f"solo-call-ch{self.index}")
            return True
        self._next_seq += 1
        seq = self._next_seq
        self.inflight[seq] = entry
        self._occupy()
        try:
            yield from self.chan.post(entry.wire(seq))
        except BaseException as exc:
            # A concurrent death (the receiver's) may have swept it already.
            swept = self.inflight.pop(seq, None) is None
            self._release()
            if isinstance(exc, self._errors):
                # The post hit a dead channel: sweep this entry (wire state
                # unknown) together with every other one in flight.
                self._die(exc, extra=() if swept else (entry,))
                return False
            raise
        self.posted += 1
        self._ensure_receiver()
        return True

    def _call_alone(self, entry, credits: int):
        """Coroutine: the classic ``chan.call`` for one entry counted in
        ``_solo`` and holding ``credits`` window credits; always gives the
        count and the credits back."""
        self.holder = (entry, self.sim.active_process)
        try:
            resp = yield from self.chan.call(entry.wire(None),
                                             resp_hint=entry.resp_hint,
                                             oneway=entry.oneway,
                                             trace=entry.act)
        finally:
            self._solo -= 1
            self.holder = (None, None)
            self._release(credits)
        self.completed += 1
        return resp

    def _solo_call(self, entry):
        try:
            resp = yield from self._call_alone(entry, 1)
        except Interrupt:
            return                   # deadline: the engine settled the entry
        except self._errors as exc:
            self._die(exc, extra=(entry,))
            return
        except BaseException as exc:
            entry.fail(exc)
            return
        entry.complete(resp)

    # -- completion ----------------------------------------------------------
    def _ensure_receiver(self) -> None:
        if self._receiver is None and self.inflight:
            p = self.sim.process(self._receive_loop(),
                                 name=f"pipeline-recv-ch{self.index}")
            # Completions belong to the entries they resolve, not to
            # whichever call happened to spawn the receiver.
            p.trace_ctx = None
            self._receiver = p

    def _receive_loop(self):
        try:
            while self.inflight:
                seq, payload = split_pip((yield from self.chan.recv()))
                entry = self.inflight.pop(seq, None)
                if entry is None:
                    continue      # response to an unknown/abandoned seq
                self.completed += 1
                self._release()
                entry.complete(payload)
        except BaseException as exc:
            self._receiver = None
            if isinstance(exc, self._errors):
                self._die(exc)
                return
            raise
        self._receiver = None

    # -- failure -------------------------------------------------------------
    def _die(self, exc: BaseException, extra: tuple = ()) -> None:
        """Mark the pipeline dead and sweep every in-flight entry, after
        ``extra`` (entries whose own call or post just failed)."""
        entries = list(extra) + self.drain()
        if not entries:
            return
        if self.on_dead is not None:
            self.on_dead(self, entries, exc)
        else:
            for entry in entries:
                entry.fail(exc)

    def drain(self) -> List[Any]:
        """Mark the pipeline dead; remove and return every in-flight entry
        (the engine's close path)."""
        self.dead = True
        entries = [self.inflight[k] for k in sorted(self.inflight)]
        self.inflight.clear()
        self._credits = self.window
        while self._waiters:
            self._waiters.popleft().succeed()   # they observe dead -> re-pick
        if self._occupancy is not None:
            self._occupancy.set(0)
        return entries
