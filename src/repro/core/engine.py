"""The hint-aware communication engine (Section 4.3).

From a service's hierarchical hint map (the ``SERVICE_HINTS`` emitted by the
IDL compiler) the engine derives a **channel plan**: every RPC function is
resolved on both sides, run through the Figure 6 selector, and assigned to a
channel -- one per distinct (transport, wire protocol, polling pair).
Functions with identical choices share a connection; functions with
different optimization goals are isolated on their own connections (the
paper's *optimization isolation*).

Wire-protocol agreement: both peers derive the plan from the same generated
hint map, so the mapping is deterministic.  The wire scheme (protocol +
buffer geometry) follows the server-side resolution -- the server owns the
serving resources -- with the payload hint taken as the max of both sides
(request and response travel the same connection); each side keeps its own
polling discipline and NUMA binding from its own lateral hints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs import trace as obstrace
from repro.core.hints import ResolvedHints, cacheable_hint, resolve_hints
from repro.core.overload import split_rej
from repro.core.pipeline import (BoundedSeqidSet, CallHandle, ChannelPipeline,
                                 PipelineDead, pack_epo, pack_pip, split_epo)
from repro.core.resilience import CircuitBreaker, RetryBudget, RetryPolicy
from repro.core.selector import (SMALL_MESSAGE_THRESHOLD,
                                 TUNER_CONCURRENCY_GRID, TUNER_PAYLOAD_GRID,
                                 ProtocolChoice, select_protocol)
from repro.core.tracing import FaultCounters
from repro.protocols import ProtocolError
from repro.sim.core import Interrupt
from repro.sim.units import KiB
from repro.thrift.errors import (TRejectedException, TTransportException,
                                 transport_exception_from_wc)
from repro.verbs.cq import PollMode
from repro.verbs.errors import QPStateError, WCError

__all__ = ["ChannelPlan", "FunctionRoute", "HatRpcEngine", "ServicePlan",
           "build_service_plan", "pinned_plan", "plan_with_window"]

#: bounds on the in-flight window derived from the concurrency hint: at
#: least 4 (a window of 2-3 barely overlaps anything) and at most 64 (the
#: eager receive-ring depth -- a wider window could overrun the ring).
_MIN_WINDOW = 4
_MAX_WINDOW = 64

#: headroom added to the payload hint when sizing connection buffers
_MAX_MSG_SLACK = 8 * KiB
#: buffer floor for channels whose functions carry NO payload_size hint:
#: without the hint the engine cannot right-size pinned buffers and must
#: provision conservatively -- precisely the memory cost hints remove.
_UNHINTED_MAX_MSG = 128 * KiB


@dataclass(frozen=True)
class ChannelPlan:
    """One connection shared by all functions with identical choices."""

    index: int                  # service-id offset from the base
    transport: str              # 'rdma' | 'tcp'
    protocol: str               # protocols registry name ('' for tcp)
    server_poll: PollMode
    client_poll: PollMode
    server_numa: bool
    client_numa: bool
    max_msg: int
    #: largest expected response on this channel (sizes RFP's first READ)
    resp_size: int
    functions: tuple            # function names routed here
    #: True when derived from hints (enables hint-only tuning like RFP
    #: slot sizing); pinned baseline plans keep stock settings.
    hinted: bool = True
    #: in-flight window this channel is provisioned for (slot count on the
    #: wire, admission bound in the engine); 1 = classic blocking geometry.
    window: int = 1
    #: True for a channel provisioned ONLY as a tuner target: no function
    #: routes here at plan time, but the server serves it and the online
    #: tuner may re-route functions onto it at runtime.
    alternate: bool = False
    #: True for the one-sided hot-read channel provisioned by a
    #: ``cacheable(hot_promote = N)`` hint: no function routes here at plan
    #: time; the client cache steers promoted hot-key misses onto it
    #: per-call (server-bypass read instead of full RPC).
    hot_read: bool = False

    def key(self):
        return (self.transport, self.protocol, self.server_poll,
                self.client_poll, self.server_numa, self.client_numa)


@dataclass(frozen=True)
class FunctionRoute:
    channel: int                # ChannelPlan.index
    resp_hint: int              # expected response size (server payload hint)
    server_hints: ResolvedHints
    client_hints: ResolvedHints
    choice: ProtocolChoice


@dataclass(frozen=True)
class ServicePlan:
    service: str
    channels: tuple             # of ChannelPlan
    routes: Mapping[str, FunctionRoute]

    def channel_for(self, fn: str) -> ChannelPlan:
        return self.channels[self.routes[fn].channel]


def build_service_plan(service: str,
                       hint_map: Mapping[str, Any],
                       function_names: Sequence[str],
                       concurrency_override: Optional[int] = None,
                       pipeline: bool = False,
                       tunable: bool = False
                       ) -> ServicePlan:
    """Derive the channel plan for one service.

    ``hint_map`` is the generated ``SERVICE_HINTS[service]`` entry
    ({'service': {...}, 'functions': {fn: {...}}}).  ``concurrency_override``
    lets deployments inject the real expected client count when the IDL
    author left it unspecified.  ``pipeline=True`` provisions RDMA channels
    for overlapped requests: the in-flight window is sized from the
    concurrency hint (clamped to [4, 64]) and both peers must pass the same
    flag -- window size changes the wire-slot geometry.

    ``tunable=True`` (or a ``tunable = true`` hint anywhere in the service)
    appends **alternate channels**: one per selector choice reachable over
    the tuning grid that no declared channel already covers, provisioned
    with the conservative unhinted buffer floor.  They carry no functions
    at plan time; an attached :class:`~repro.core.tuner.HintTuner`
    re-routes functions onto them at runtime.  Both peers derive the same
    alternates from the same hint map, so the server is already serving
    every channel the tuner could ever pick -- the switch is pure
    client-side routing, no renegotiation.
    """
    service_map = hint_map.get("service", {})
    fn_maps = hint_map.get("functions", {})
    keyed: Dict[tuple, dict] = {}
    routes: Dict[str, dict] = {}
    for fn in function_names:
        fn_map = fn_maps.get(fn)
        server = resolve_hints(service_map, fn_map, "server")
        client = resolve_hints(service_map, fn_map, "client")
        payload_hinted = any(
            "payload_size" in layer
            for layer in (service_map.get("shared", {}),
                          service_map.get("server", {}),
                          service_map.get("client", {}),
                          *((fn_map or {}).values())))
        if concurrency_override is not None:
            server = replace(server, concurrency=concurrency_override)
            client = replace(client, concurrency=concurrency_override)
        sel_payload = max(server.payload_size, client.payload_size)
        wire = select_protocol(replace(server, payload_size=sel_payload))
        client_choice = select_protocol(replace(client,
                                                payload_size=sel_payload))
        # Channels segregate by payload class too: bulk-data functions
        # never inflate the pinned buffer geometry of small-message ones.
        small = sel_payload <= SMALL_MESSAGE_THRESHOLD
        key = (wire.transport, wire.protocol, wire.poll_mode,
               client_choice.poll_mode, server.numa_binding,
               client.numa_binding, small)
        entry = keyed.setdefault(key, {"functions": [], "max_msg": 0,
                                       "resp": 0, "conc": 1})
        entry["functions"].append(fn)
        floor = sel_payload if payload_hinted else max(sel_payload,
                                                       _UNHINTED_MAX_MSG)
        entry["max_msg"] = max(entry["max_msg"], floor + _MAX_MSG_SLACK)
        entry["resp"] = max(entry["resp"], server.payload_size)
        entry["conc"] = max(entry["conc"], server.concurrency,
                            client.concurrency)
        routes[fn] = {"key": key, "resp_hint": server.payload_size,
                      "server": server, "client": client, "choice": wire}

    reg = obs.current()
    if reg is not None:
        # Selector decision counts: one per routed function (plan build is
        # cold path, so the registry lookup here is fine).
        for r in routes.values():
            choice = r["choice"]
            reg.counter(f"selector.{choice.protocol or 'tcp'}."
                        f"{choice.poll_mode.value}").inc()

    channels = []
    key_to_index = {}
    for i, (key, entry) in enumerate(sorted(keyed.items(),
                                            key=lambda kv: repr(kv[0]))):
        transport, protocol, s_poll, c_poll, s_numa, c_numa, _small = key
        window = 1
        if pipeline and transport == "rdma":
            window = min(max(entry["conc"], _MIN_WINDOW), _MAX_WINDOW)
        channels.append(ChannelPlan(
            index=i, transport=transport, protocol=protocol,
            server_poll=s_poll, client_poll=c_poll,
            server_numa=s_numa, client_numa=c_numa,
            max_msg=entry["max_msg"],
            resp_size=entry["resp"],
            functions=tuple(entry["functions"]),
            window=window))
        key_to_index[key] = i

    if not tunable:
        tunable = any(r["server"].tunable or r["client"].tunable
                      for r in routes.values())
    if tunable:
        # Alternates get the unhinted floor: the tuner switches *because*
        # the declared payload hint went stale, so the target must fit
        # whatever actually shows up (the tuner still checks max_msg
        # against the observed payloads before routing there).
        alt_max_msg = _UNHINTED_MAX_MSG + _MAX_MSG_SLACK
        covered = {key[:6] for key, entry in keyed.items()
                   if entry["max_msg"] >= alt_max_msg}
        alts: Dict[tuple, int] = {}
        for r in routes.values():
            server, client = r["server"], r["client"]
            for conc in TUNER_CONCURRENCY_GRID:
                for payload in TUNER_PAYLOAD_GRID:
                    alt_wire = select_protocol(
                        replace(server, payload_size=payload,
                                concurrency=conc))
                    alt_client = select_protocol(
                        replace(client, payload_size=payload,
                                concurrency=conc))
                    k6 = (alt_wire.transport, alt_wire.protocol,
                          alt_wire.poll_mode, alt_client.poll_mode,
                          server.numa_binding, client.numa_binding)
                    if k6 in covered:
                        continue
                    alts[k6] = max(alts.get(k6, 1), server.concurrency,
                                   client.concurrency)
        for k6 in sorted(alts, key=repr):
            transport, protocol, s_poll, c_poll, s_numa, c_numa = k6
            window = 1
            if pipeline and transport == "rdma":
                window = min(max(alts[k6], _MIN_WINDOW), _MAX_WINDOW)
            channels.append(ChannelPlan(
                index=len(channels), transport=transport, protocol=protocol,
                server_poll=s_poll, client_poll=c_poll,
                server_numa=s_numa, client_numa=c_numa,
                max_msg=alt_max_msg, resp_size=_UNHINTED_MAX_MSG,
                functions=(), alternate=True, window=window))

    # cacheable(hot_promote >= 1) on any RDMA-planned read provisions one
    # server-bypass hot-read channel.  Like alternates it carries no
    # functions at plan time; the client cache steers promoted hot-key
    # misses onto it per-call.  Both peers derive it from the same hint
    # map, so the server is already serving it.
    hot = [(fn, r) for fn, r in routes.items()
           if r["choice"].transport == "rdma"
           and any(cacheable_hint(r[side]) is not None
                   and cacheable_hint(r[side]).hot_promote >= 1
                   for side in ("server", "client"))]
    if hot:
        h_max_msg = max(keyed[r["key"]]["max_msg"] for _, r in hot)
        h_resp = max(keyed[r["key"]]["resp"] for _, r in hot)
        h_conc = max(keyed[r["key"]]["conc"] for _, r in hot)
        window = 1
        if pipeline:
            window = min(max(h_conc, _MIN_WINDOW), _MAX_WINDOW)
        _, r0 = hot[0]
        channels.append(ChannelPlan(
            index=len(channels), transport="rdma", protocol="pilaf",
            server_poll=r0["choice"].poll_mode,
            client_poll=r0["choice"].poll_mode,
            server_numa=r0["server"].numa_binding,
            client_numa=r0["client"].numa_binding,
            max_msg=h_max_msg, resp_size=h_resp,
            functions=(), hot_read=True, window=window))

    final_routes = {
        fn: FunctionRoute(channel=key_to_index[r["key"]],
                          resp_hint=r["resp_hint"],
                          server_hints=r["server"],
                          client_hints=r["client"],
                          choice=r["choice"])
        for fn, r in routes.items()
    }
    return ServicePlan(service=service, channels=tuple(channels),
                       routes=final_routes)


def pinned_plan(service: str, function_names: Sequence[str], protocol: str,
                poll_mode: PollMode, max_msg: int,
                numa_local: bool = True,
                resp_hint: int = 4 * KiB,
                window: int = 1) -> ServicePlan:
    """A one-channel plan with a fixed protocol + polling, ignoring hints.

    This is how the paper's per-protocol baselines (e.g. "Thrift over
    Hybrid-EagerRNDV") are expressed: the same generated code and runtime,
    with the hint machinery bypassed.  ``window > 1`` provisions the channel
    for pipelined calls (both peers must agree on it).
    """
    transport = "tcp" if protocol == "tcp" else "rdma"
    channel = ChannelPlan(index=0, transport=transport,
                          protocol="" if transport == "tcp" else protocol,
                          server_poll=poll_mode, client_poll=poll_mode,
                          server_numa=numa_local, client_numa=numa_local,
                          max_msg=max_msg, resp_size=resp_hint,
                          functions=tuple(function_names), hinted=False,
                          window=window if transport == "rdma" else 1)
    choice = ProtocolChoice(transport, channel.protocol, poll_mode,
                            "pinned baseline")
    reg = obs.current()
    if reg is not None:
        reg.counter("selector.pinned").inc(len(function_names))
    routes = {fn: FunctionRoute(channel=0, resp_hint=resp_hint,
                                server_hints=ResolvedHints.from_mapping({}),
                                client_hints=ResolvedHints.from_mapping({}),
                                choice=choice)
              for fn in function_names}
    return ServicePlan(service=service, channels=(channel,), routes=routes)


def plan_with_window(plan: ServicePlan, window: int) -> ServicePlan:
    """``plan`` with every RDMA channel re-provisioned for ``window``
    in-flight calls.  Apply it on *both* peers -- the window sets the
    wire-slot geometry, which the direct-write blob exchange does not
    carry."""
    channels = tuple(
        replace(ch, window=window) if ch.transport == "rdma" else ch
        for ch in plan.channels)
    return replace(plan, channels=channels)


#: exceptions that mean "this channel's transport failed" (as opposed to
#: application errors, which ride inside successful responses)
_CHANNEL_ERRORS = (WCError, QPStateError, ProtocolError, ConnectionError,
                   TTransportException)

#: trace-event kinds that are good news: they never mark the trace for
#: always-commit (everything else in the fault trace does)
_BENIGN_TRACE_KINDS = ("failback", "tuner_switch", "tuner_revert",
                       "tuner_retire")


class _PendingCall:
    """One engine call, blocking or asynchronous, from submit to settle.

    Owns the engine-side bookkeeping of the call: the in-flight gauge,
    breaker verdicts, per-channel metrics, tuner samples, and the trace.
    :class:`~repro.core.pipeline.ChannelPipeline` drives ``wire`` /
    ``complete`` / ``fail``; the engine drives the rest.
    """

    __slots__ = ("engine", "fn", "route", "resp_hint", "message", "oneway",
                 "seqid",
                 "handle", "act", "attempt", "channel", "t_start",
                 "_gauge_idx", "epoch", "owner", "submitter", "backoff",
                 "error")

    def __init__(self, engine, fn, route, message, oneway, seqid, handle,
                 act):
        self.engine = engine
        self.fn = fn
        self.route = route
        self.resp_hint = route.resp_hint
        self.message = message
        self.oneway = oneway
        self.seqid = seqid
        self.handle = handle
        self.act = act
        self.attempt = 0
        self.channel = -1
        self.t_start = engine.node.sim.now
        self._gauge_idx = None
        self.epoch = None            # tuner plan epoch riding on the wire
        #: the process that submits this call and waits for its reply (a
        #: blocking call's caller, or its deadline runner); None = async
        self.owner = None
        #: the process running ``_submit_entry`` for this call right now
        self.submitter = None
        #: re-send delay the submitting process must sleep before its next
        #: attempt (set when a failure is retried in-process)
        self.backoff = None
        #: the mapped failure of the latest attempt
        self.error = None

    def wire(self, pip_seq):
        """The wire bytes: [trace envelope][pip header][epoch][message]."""
        env = self.act.envelope() if self.act is not None else b""
        pip = pack_pip(pip_seq) if pip_seq is not None else b""
        epo = pack_epo(self.epoch) if self.epoch is not None else b""
        return env + pip + epo + self.message

    def mark_inflight(self, idx: int) -> None:
        self.channel = idx
        m = self.engine._chan_metrics.get(idx)
        if m is not None:
            m[3].inc()
            self._gauge_idx = idx

    def drop_gauge(self) -> None:
        """Decrement the in-flight gauge exactly once, whatever the path."""
        if self._gauge_idx is not None:
            m = self.engine._chan_metrics.get(self._gauge_idx)
            if m is not None:
                m[3].dec()
            self._gauge_idx = None

    def complete(self, resp) -> None:
        eng = self.engine
        resp_epoch = None
        if eng.tuner is not None and resp:
            # The server echoes the request's epoch tag ahead of the
            # response (rejections come back untagged; split_epo passes
            # them through).
            resp_epoch, resp = split_epo(resp)
        if resp:
            # A rejection frame is not a response: the request never
            # dispatched server-side.  Hand it to the engine's rejection
            # path (budgeted re-send or a typed TRejectedException).
            retry_after, resp = split_rej(resp)
            if retry_after is not None:
                eng._on_rejected(self, retry_after)
                return
        now = eng.node.sim.now
        self.drop_gauge()
        if self.seqid is not None:
            eng._sent_seqids.unpin((self.fn, self.seqid))
        eng._breaker(self.channel).record_success()
        eng.calls_routed += 1
        if eng._obs is not None:
            eng._m_calls.inc()
            eng._m_latency.record(now - self.t_start)
            m = eng._chan_metrics.get(self.channel)
            if m is not None:
                m[0].inc()
                m[1].inc(len(self.message))
                m[2].inc(len(resp or b""))
        if self.act is not None:
            self.act.end_attempt(now, status="ok")
            if self.owner is not None:
                self.act.stage("deserialize", now, now,
                               nbytes=len(resp or b""))
            self.act.finish(now, status="ok",
                            resp_bytes=len(resp or b""))
        if eng.tuner is not None and not self.oneway:
            eng.tuner.observe(
                self.fn, len(self.message), now - self.t_start, now,
                self.channel,
                epoch_ok=(resp_epoch is None
                          or resp_epoch == eng.tuner.epoch))
        if eng._drain_pending:
            eng._drain_unrouted()
        self.handle._resolve(b"" if self.oneway else resp)

    def fail(self, exc: BaseException, reroute: bool = True) -> None:
        eng = self.engine
        self.drop_gauge()
        if self.seqid is not None:
            eng._sent_seqids.unpin((self.fn, self.seqid))
        # Last resort before surfacing the failure of a detached call: a
        # router holding replicas of this key's shard may take it over
        # (idempotent reads only -- a re-sent write could double-apply).
        # A blocking caller is still on the stack and fails over itself.
        if (reroute and eng.sweep_reroute is not None and self.owner is None
                and not self.handle.done and eng._connected
                and self.fn in eng.idempotent_fns):
            try:
                taken = eng.sweep_reroute(self, exc)
            except Exception:
                taken = False
            if taken:
                eng.faults.reroutes += 1
                eng._trace("reroute", self.fn, self.channel,
                           type(exc).__name__)
                if self.act is not None:
                    self.act.finish(eng.node.sim.now, status="rerouted")
                return
        if self.act is not None:
            self.act.finish(eng.node.sim.now,
                            status=type(exc).__name__)
        self.handle._fail(exc)


class HatRpcEngine:
    """Client-side engine: one protocol/TCP connection per channel plan.

    Static hints configure connections at establishment (buffer geometry,
    polling); the per-call dynamic hint path is just the function -> route
    lookup, mirroring the paper's "only pass the pointer and cache the RPC
    function type" minimization.

    Every call -- ``call`` as much as ``call_async`` -- is one
    ``_PendingCall`` run through one submission loop (``_submit_entry``)
    onto the channel's :class:`~repro.core.pipeline.ChannelPipeline`;
    ``call`` is submit + wait.  A blocking caller that finds its channel's
    window idle runs the classic ``chan.call`` in its own process, so the
    blocking path spawns nothing and stays byte-identical on the wire.

    Failure handling (all deterministic under a seeded ``rng``):

    * **deadline** -- an optional total per-call time budget (``call``'s
      ``deadline`` or ``CallHandle.wait(timeout)``); expiry raises
      ``TTransportException(TIMED_OUT)`` and counts one timeout.  A call
      posted into a shared multi-slot window is abandoned: its neighbors
      keep flowing and its late response is dropped.  A call that holds
      its channel alone (the only slot of a window-1 channel, or an idle
      window its blocking caller took) is interrupted and its channel
      discarded, so the next call reconnects cleanly -- no breaker charge,
      no re-send;
    * **retry** -- transport errors are retried under ``retry_policy``
      (capped exponential backoff + jitter), but only while the request has
      provably not reached the wire, or when the function is registered
      idempotent (``mark_idempotent``) -- non-idempotent writes are never
      blind-retried;
    * **breaker + failover** -- each channel has a
      :class:`~repro.core.resilience.CircuitBreaker`; while a channel's
      breaker is open, calls degrade onto the best surviving channel of the
      same plan (two-sided eager first, then other RDMA, then TCP) and fail
      back automatically once the primary's breaker re-admits traffic;
    * **rejection + budget** -- a server admission rejection (the typed
      ``0xC5`` frame) is *not* a channel failure: the breaker is not
      charged and -- because the gate runs before dispatch -- the re-send
      is safe even for non-idempotent functions, after honoring the
      server's advised ``retry_after``.  An optional shared
      :class:`~repro.core.resilience.RetryBudget` bounds the aggregate
      retry rate (transport *and* rejection retries) so a storm of
      rejections cannot amplify itself; an exhausted budget surfaces the
      typed :class:`~repro.thrift.errors.TRejectedException` immediately.

    Every decision lands in :attr:`faults` (counters) and
    :attr:`fault_trace` (an ordered, replayable list of
    ``(sim_time, kind, function, channel, detail)`` tuples).
    """

    def __init__(self, node, plan: ServicePlan,
                 base_service_id: int = 5000,
                 deadline: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 idempotent: Sequence[str] = (),
                 rng: Optional[random.Random] = None,
                 seqid_cache: int = 4096,
                 trace_attrs: Optional[Mapping[str, Any]] = None,
                 retry_budget: Optional[RetryBudget] = None):
        self.node = node
        self.plan = plan
        self.base_service_id = base_service_id
        self.deadline = deadline
        self.retry_policy = retry_policy or RetryPolicy()
        #: optional shared token bucket bounding this engine's retry rate
        #: (None = unlimited; pass ONE budget to many engines to bound
        #: their sum)
        self.retry_budget = retry_budget
        self.rng = rng or random.Random(0)
        self.idempotent_fns = set(idempotent)
        #: extra attributes stamped onto every call's trace (a shard router
        #: sets {"shard": N} so hint_select stages attribute per shard)
        self.trace_attrs = dict(trace_attrs or {})
        #: optional hook(entry, exc) -> bool consulted when an idempotent
        #: asynchronous call exhausts every channel of THIS engine: a
        #: returns-True taker (e.g. a shard router holding a replica's
        #: engine) assumes ownership of the entry's handle.
        self.sweep_reroute = None
        self.faults = FaultCounters()
        self.fault_trace: List[Tuple[float, str, str, int, str]] = []
        self._channels: Dict[int, Any] = {}
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._failover_order: Dict[int, List[int]] = {}
        self._last_channel: Dict[int, int] = {}   # primary idx -> last used
        self._sent_seqids = BoundedSeqidSet(cap=seqid_cache)
        self._pipelines: Dict[int, ChannelPipeline] = {}
        self._connected = False
        self._closed = False
        self.calls_routed = 0
        #: optional online HintTuner (attach_tuner); None = declared hints
        #: only, and the whole tuner path costs one attribute check.
        self.tuner = None
        self._drain_pending = False
        # -- observability (instruments captured once; None = disabled, so
        # the per-call cost of a disabled run is one attribute check) --
        self._obs = obs.current()
        self._trc = obstrace.current()
        self._chan_metrics: Dict[int, tuple] = {}
        if self._obs is not None:
            # FaultCounters fold in as one probe group; groups with the
            # same name sum across engines at snapshot time.
            self._obs.probe("faults", self.faults.as_dict)
            self._m_calls = self._obs.counter("engine.calls")
            self._m_latency = self._obs.histogram("engine.call_latency")
        else:
            self._m_calls = None
            self._m_latency = None

    # -- lifecycle -----------------------------------------------------------
    def connect(self, remote_node, eager: bool = False):
        """Coroutine: bind to the server; channels open lazily on first use.

        Lazy establishment matters: a channel plan may include connections
        (e.g. a busy-polled latency channel) that a given client never
        exercises -- opening them eagerly would pin server-side polling
        threads for nothing.  Pass ``eager=True`` to pre-open everything
        (connection-setup-sensitive tests).

        A connect-phase failure leaves the engine cleanly closed: any
        channels already opened are torn down and ``is_open()`` is False --
        never a half-open engine holding dangling QPs.
        """
        self._remote_node = remote_node
        self._connected = True
        self._closed = False
        if eager:
            try:
                for ch in self.plan.channels:
                    yield from self._open_channel(ch)
            except BaseException:
                self.close()
                raise
        return self

    def is_open(self) -> bool:
        return self._connected

    def close(self) -> None:
        """Tear down every channel.  Idempotent.

        Resilience state is reset too: stale breakers and routing memory
        from a previous connection would otherwise leak into the next
        ``connect()`` -- e.g. a phantom ``failback`` event on the first
        call of a fresh connection because ``_last_channel`` still recorded
        the old one's failover."""
        if self._closed:
            return
        self._closed = True
        self._connected = False
        err = TTransportException(TTransportException.NOT_OPEN,
                                  "engine closed with calls in flight")
        for pipe in self._pipelines.values():
            for entry in pipe.drain():
                entry.fail(err)
        self._pipelines.clear()
        for chan in self._channels.values():
            chan.close()
        self._channels.clear()
        self._breakers.clear()
        self._last_channel.clear()

    def drain_close(self, poll: float = 1e-6):
        """Coroutine: wait until every in-flight call settles, then close.

        The polite shutdown for topology changes (a resharded-away shard,
        a migrating router): plain :meth:`close` fails whatever is still
        pipelined with NOT_OPEN, while this lets the tail drain first.
        Calls issued *after* drain_close starts extend the wait -- callers
        should stop routing new work to the engine before invoking it."""
        sim = self.node.sim
        while self._connected and any(p.pending
                                      for p in self._pipelines.values()):
            yield sim.timeout(poll)
        self.close()

    def mark_idempotent(self, *fn_names: str) -> None:
        """Register functions that are safe to re-send after a failure."""
        self.idempotent_fns.update(fn_names)

    # -- online tuning -------------------------------------------------------
    def attach_tuner(self, tuner) -> None:
        """Install an online :class:`~repro.core.tuner.HintTuner`.

        The engine starts tagging RDMA requests with the tuner's plan epoch
        and feeding it one (payload, latency) sample per completed call.
        One tuner may be shared by many engines built from the same hint
        map (e.g. every client of a service): samples pool and a switch
        re-routes all of them together.
        """
        self.tuner = tuner
        tuner.bind(self)

    def retarget(self, fn: str, idx: int, choice: ProtocolChoice) -> None:
        """Re-route ``fn`` onto channel ``idx`` (the tuner's switch path).

        The target must already be in the plan -- tunable plans carry
        alternate channels for every reachable choice -- so the server is
        serving it and no wire renegotiation happens; in-flight calls
        complete on their old channel (their epoch tag marks their samples
        stale)."""
        route = self.plan.routes[fn]
        routes = dict(self.plan.routes)
        routes[fn] = replace(route, channel=idx, choice=choice)
        self.plan = replace(self.plan, routes=routes)
        self._drain_pending = True
        self._drain_unrouted()

    def _drain_unrouted(self) -> None:
        """Close channels no route references, once their last call drains.

        A tuner switch leaves the old channel open but unrouted; holding
        it open would keep its server-side poller running (a busy-polled
        connection burns a server core each) -- the exact cost the switch
        was meant to shed.  Channels with calls still in flight are left
        for the next completion to retire; a later re-route (or failover)
        simply reopens a retired channel lazily."""
        used = {r.channel for r in self.plan.routes.values()}
        pending = False
        for idx in list(self._channels):
            if idx in used:
                continue
            pipe = self._pipelines.get(idx)
            if pipe is not None and pipe.pending:
                pending = True
                continue
            self._retire_channel(idx)
        self._drain_pending = pending

    def _retire_channel(self, idx: int) -> None:
        """Close an idle, unrouted channel.  Unlike ``_discard_channel``
        this is not a failure: no fault counters, no breaker charge."""
        pipe = self._pipelines.pop(idx, None)
        if pipe is not None:
            pipe.drain()                   # idle: marks dead, returns []
        chan = self._channels.pop(idx, None)
        if chan is not None:
            chan.close()
            self._trace("tuner_retire", "", idx, "unrouted channel closed")

    # -- channels ------------------------------------------------------------
    def _open_channel(self, ch):
        from repro.core.runtime import RdmaChannel, TcpChannel  # cycle-free
        sid = self.base_service_id + ch.index
        if ch.transport == "tcp":
            chan = TcpChannel(self.node, self._remote_node, sid)
            yield from chan.open()
        else:
            chan = RdmaChannel(self.node, ch)
            yield from chan.open(self._remote_node, sid)
        self._channels[ch.index] = chan
        if self._obs is not None and ch.index not in self._chan_metrics:
            proto = ch.protocol or "tcp"
            self._chan_metrics[ch.index] = (
                self._obs.counter(f"engine.{proto}.ops"),
                self._obs.counter(f"engine.{proto}.req_bytes"),
                self._obs.counter(f"engine.{proto}.resp_bytes"),
                self._obs.gauge(f"engine.ch{ch.index}.inflight"),
                self._obs.gauge(f"engine.ch{ch.index}.window_occupancy"),
            )
            self._obs.counter("engine.channels_opened").inc()
        return chan

    def _breaker(self, idx: int) -> CircuitBreaker:
        br = self._breakers.get(idx)
        if br is None:
            def opened(_br, _idx=idx):
                self.faults.breaker_opens += 1
                self._trace("breaker_open", "", _idx)
            br = CircuitBreaker(self.node.sim, on_open=opened)
            self._breakers[idx] = br
        return br

    def _candidates(self, primary: int) -> List[int]:
        """Failover order for a primary channel: primary first, then
        two-sided eager channels, then other RDMA, then TCP."""
        order = self._failover_order.get(primary)
        if order is None:
            def rank(ch: ChannelPlan) -> tuple:
                if ch.index == primary:
                    tier = 0
                elif ch.transport == "rdma" and ch.protocol == "eager_sendrecv":
                    tier = 1
                elif ch.transport == "rdma":
                    tier = 2
                else:
                    tier = 3
                return (tier, ch.index)
            order = [ch.index for ch in sorted(self.plan.channels, key=rank)]
            self._failover_order[primary] = order
        return order

    def _discard_channel(self, idx: int) -> None:
        pipe = self._pipelines.pop(idx, None)
        if pipe is not None and not pipe.dead:
            # Sweeps the pipeline's in-flight entries through _pipeline_dead
            # (the pipe is popped first, so the re-pop there is a no-op).
            pipe._die(ConnectionError(f"channel {idx} discarded"))
        chan = self._channels.pop(idx, None)
        if chan is not None:
            chan.close()
            self.faults.reconnects += 1

    def _trace(self, kind: str, fn: str, channel: int, detail: str = "",
               ctx=None) -> None:
        now = self.node.sim.now
        self.fault_trace.append((now, kind, fn, channel, detail))
        if self._trc is not None:
            # Mirror the fault event into the distributed trace of the call
            # it happened inside (``ctx``, or the context riding on the sim
            # process; the breaker's on_open fires synchronously in the
            # caller, so it is reachable here too).  Any fault marks the
            # trace for always-commit -- except failback, which is good news.
            if ctx is None:
                ctx = obstrace.active(self.node.sim)
            if ctx is not None:
                ctx.event(kind, now, fault=kind not in _BENIGN_TRACE_KINDS,
                          fn=fn, channel=channel, detail=detail)

    # -- the call path -------------------------------------------------------
    def call(self, fn_name: str, message: bytes, oneway: bool = False,
             seqid: Optional[int] = None,
             deadline: Optional[float] = None,
             ser_start: Optional[float] = None):
        """Coroutine: route one serialized message; returns response bytes.

        ``seqid`` (from the Thrift message header) gates idempotency: a
        non-idempotent (fn, seqid) pair is sent onto the wire at most once,
        ever -- retrying it requires the application to re-issue the call
        under a fresh seqid.  ``deadline`` overrides the engine default for
        this call.  ``ser_start`` is the sim time serialization of
        ``message`` began (TRdma records it at ``write_message_begin``);
        it only feeds the "serialize" trace stage.

        Submit + wait: the call runs the same submission loop as
        :meth:`call_async`.  Without a deadline the caller's own process
        submits it (running it inline when the window is idle); with one,
        a runner process submits it so the wait can time out.
        """
        entry = self._new_entry(fn_name, message, oneway, seqid, None, True)
        sim = self.node.sim
        act = entry.act
        if act is not None:
            act.stage("serialize",
                      sim.now if ser_start is None else ser_start, sim.now,
                      nbytes=len(message))
            # The dynamic-hint path is the route lookup -- cached function
            # type, so it costs no simulated time.
            act.stage("hint_select", sim.now, sim.now,
                      channel=entry.route.channel,
                      rationale=entry.route.choice.rationale,
                      **self.trace_attrs)
        budget = deadline if deadline is not None else self.deadline
        if budget is None:
            entry.owner = sim.active_process
            yield from self._submit_entry(entry)
        else:
            entry.owner = sim.process(self._run_entry(entry),
                                      name=f"call-{fn_name}")
        return (yield from entry.handle.wait(budget))

    def call_async(self, fn_name: str, message: bytes, oneway: bool = False,
                   seqid: Optional[int] = None,
                   channel: Optional[int] = None):
        """Coroutine: post one serialized message without waiting for the
        response; returns a :class:`~repro.core.pipeline.CallHandle`.

        Up to the channel's ``window`` calls overlap on one connection;
        posting the window-plus-first call blocks here until a slot frees
        (the backpressure).  Results -- and failures -- surface at
        ``yield from handle.wait()``.  Channels whose protocol cannot
        pipeline (TCP, rendezvous) still work: the window degrades to one
        call at a time, preserving the API.

        ``channel`` overrides the planned channel for this one call (the
        hot-key cache steers promoted misses onto the hot-read channel
        this way); failover candidates are still ranked from the override.
        """
        entry = self._new_entry(fn_name, message, oneway, seqid, channel,
                                False)
        yield from self._submit_entry(entry)
        return entry.handle

    def _new_entry(self, fn_name: str, message: bytes, oneway: bool,
                   seqid: Optional[int], channel: Optional[int],
                   blocking: bool) -> _PendingCall:
        """Route lookup, the seqid gate, the handle and the trace of one
        call."""
        if not self._connected:
            raise RuntimeError("engine not connected")
        route = self.plan.routes.get(fn_name)
        if route is None:
            raise KeyError(f"function {fn_name!r} not in service plan "
                           f"for {self.plan.service!r}")
        if channel is not None and channel != route.channel:
            if not 0 <= channel < len(self.plan.channels):
                raise KeyError(f"channel override {channel} out of range "
                               f"for {self.plan.service!r}")
            route = replace(route, channel=channel)
        if fn_name not in self.idempotent_fns and seqid is not None \
                and (fn_name, seqid) in self._sent_seqids:
            # The seqid gate: this exact message already reached the wire
            # once; re-sending it could double-apply a write.
            self.faults.blind_retries_prevented += 1
            self._trace("blind_retry_prevented", fn_name, route.channel,
                        f"seqid={seqid}")
            raise TTransportException(
                TTransportException.UNKNOWN,
                f"refusing to re-send non-idempotent {fn_name} seqid={seqid};"
                " re-issue the call under a fresh seqid")
        sim = self.node.sim
        act = None
        if self._trc is not None:
            ch = self.plan.channels[route.channel]
            hints = route.server_hints
            if blocking:
                attrs: Dict[str, Any] = {
                    "perf_goal": hints.perf_goal,
                    "payload_size": hints.payload_size,
                    "concurrency": hints.concurrency,
                    "protocol": ch.protocol or "tcp",
                    "transport": ch.transport,
                    "rationale": route.choice.rationale,
                    "req_bytes": len(message), "oneway": oneway}
            else:
                attrs = {"perf_goal": hints.perf_goal,
                         "protocol": ch.protocol or "tcp",
                         "transport": ch.transport, "window": ch.window,
                         "req_bytes": len(message), "oneway": oneway,
                         "async": True}
            attrs.update(self.trace_attrs)
            act = self._trc.start_call(fn_name, self.node.name,
                                       lambda: sim.now, attrs=attrs)
        handle = CallHandle(sim, fn_name)
        entry = _PendingCall(self, fn_name, route, message, oneway, seqid,
                             handle, act)
        handle._entry = entry
        return entry

    def hot_read_channel(self) -> Optional[int]:
        """Index of the plan's one-sided hot-read channel, if provisioned."""
        for ch in self.plan.channels:
            if ch.hot_read:
                return ch.index
        return None

    def channel_saturated(self, fn_name: str) -> bool:
        """True when ``fn_name``'s planned channel has a full in-flight
        window -- the next call would block for a credit.

        A cheap congestion signal for steering decisions: a one-sided
        hot read costs more round trips than the two-sided RPC, so the
        hot-key cache offloads a promoted miss only when the RPC window
        is already the bottleneck (credits exhausted) and the extra
        trips buy queue relief rather than pure latency."""
        route = self.plan.routes.get(fn_name)
        if route is None:
            return False
        pipe = self._pipelines.get(route.channel)
        return pipe is not None and pipe._credits <= 0

    def call_many(self, calls: Sequence[tuple],
                  return_exceptions: bool = False):
        """Coroutine: issue a batch of calls under the in-flight window and
        gather every result.

        ``calls`` is a sequence of ``(fn_name, message)`` (optionally
        ``(fn_name, message, oneway, seqid)``) tuples.  All requests are
        posted before the first response is awaited, so per-call round-trip
        latency amortizes across the batch.  Results come back in call
        order; with ``return_exceptions`` per-call failures are returned in
        place, otherwise the first failure is raised after the batch
        settles.
        """
        def post():
            handles = []
            for item in calls:
                handles.append((yield from self.call_async(*item[:4])))
            return handles

        results, first_exc = yield from self._gather(
            post(), {"n": len(calls), "service": self.plan.service})
        if first_exc is not None and not return_exceptions:
            raise first_exc
        return results

    def _gather(self, post, attrs: Mapping[str, Any],
               timeout: Optional[float] = None):
        """Coroutine: the one batch path.  Runs ``post`` (a coroutine
        returning handles, every request posted before any wait), then
        waits on each handle in order.  Returns ``(results, first_exc)``
        with per-call failures in place; the batch is traced as one
        ``call_many`` span with ``attrs`` and post / gather stages."""
        sim = self.node.sim
        batch = None
        if self._trc is not None:
            batch = self._trc.start_call("call_many", self.node.name,
                                         lambda: sim.now, attrs=dict(attrs))
        try:
            t0 = sim.now
            handles = yield from post
            if batch is not None:
                batch.stage("post", t0, sim.now, n=len(handles))
            t1 = sim.now
            results: List[Any] = []
            first_exc: Optional[Exception] = None
            for h in handles:
                try:
                    results.append((yield from h.wait(timeout)))
                except Exception as exc:
                    if first_exc is None:
                        first_exc = exc
                    results.append(exc)
            if batch is not None:
                batch.stage("gather", t1, sim.now)
        except BaseException as exc:
            if batch is not None:
                batch.finish(sim.now, status=type(exc).__name__)
            raise
        if batch is not None:
            batch.finish(sim.now, status="ok" if first_exc is None
                         else type(first_exc).__name__)
        return results, first_exc

    # -- the one submission loop ---------------------------------------------
    def _submit_entry(self, entry: _PendingCall):
        """Coroutine: put one pending call on a channel.

        Picks a channel (failover order, breakers), opens it on first use,
        and submits the call to the channel's pipeline -- inline when the
        entry's owner is submitting and the window is idle.  Failures the
        submitting process can retry itself (a failed open, a call or post
        on a dead channel, an inline rejection) back off right here;
        exhaustion *fails* the entry, never raises -- failures surface at
        the handle."""
        sim = self.node.sim
        p = entry.submitter = sim.active_process
        # Fault events recorded while submitting belong to this call.
        prev_ctx = p.trace_ctx if p is not None else None
        if p is not None:
            p.trace_ctx = entry.act
        try:
            while True:
                idx = self._pick_channel(entry.route, len(entry.message))
                if idx is None:   # every candidate's breaker is open
                    entry.fail(entry.error or TTransportException(
                        TTransportException.NOT_OPEN,
                        f"no channel available for {entry.fn}: "
                        "all circuit breakers open"))
                    return
                if entry.act is not None:
                    ch_plan = self.plan.channels[idx]
                    entry.act.begin_attempt(
                        sim.now, attempt=entry.attempt, channel=idx,
                        protocol=ch_plan.protocol or "tcp",
                        transport=ch_plan.transport)
                try:
                    pipe = yield from self._pipeline_for(idx, entry.act)
                except _CHANNEL_ERRORS as exc:
                    # Never reached the wire: safe to retry whatever the
                    # function's idempotency.
                    self._charge_failure([entry], idx, exc)
                    self._discard_channel(idx)
                    self._retry_or_fail(entry, idx, entry.error)
                else:
                    inline = self._prepare_attempt(entry, idx, pipe)
                    try:
                        if (yield from pipe.submit(entry, inline)):
                            entry.mark_inflight(idx)
                            return
                    except PipelineDead as exc:
                        # Died while this entry waited for a window slot:
                        # it never reached the wire (the sweep already
                        # charged the breaker), so re-picking is safe.
                        entry.drop_gauge()
                        if entry.act is not None:
                            entry.act.end_attempt(sim.now, status="error",
                                                  error="PipelineDead")
                        entry.attempt += 1
                        if entry.attempt < self.retry_policy.max_attempts \
                                and self._connected:
                            continue
                        entry.fail(self._map_error(exc))
                        return
                if entry.backoff is None:
                    return        # settled: completed, failed or handed off
                delay, entry.backoff = entry.backoff, None
                yield from self._backoff(entry, delay)
        finally:
            entry.submitter = None
            if p is not None:
                p.trace_ctx = prev_ctx

    def _prepare_attempt(self, entry: _PendingCall, idx: int,
                         pipe: ChannelPipeline) -> bool:
        """Ready ``entry`` for an attempt on channel ``idx``; True when it
        runs inline: its owner submits it and would not share the
        window."""
        if self.tuner is not None and idx not in {
                r.channel for r in self.plan.routes.values()}:
            # The tuner retargeted away from this channel while its
            # handshake was in flight -- the retarget-time drain could not
            # see it.  Run the committed call, then let the
            # completion-side drain retire it.
            self._drain_pending = True
        if entry.seqid is not None:
            # Pinned while in flight: cap pressure from later calls must
            # not evict a live seqid (that would silently re-open the
            # duplicate-send window).
            self._sent_seqids.add((entry.fn, entry.seqid), pinned=True)
        self._note_routing(entry.fn, entry.route, idx)
        entry.epoch = (self.tuner.epoch if self.tuner is not None
                       and self.plan.channels[idx].transport == "rdma"
                       else None)
        inline = (entry.owner is not None and entry.owner is entry.submitter
                  and not (pipe.pipelined and pipe.pending))
        if inline:
            entry.mark_inflight(idx)
        return inline

    def _run_entry(self, entry: _PendingCall, delay: Optional[float] = None):
        """Detached process: submit one call -- a deadline-bound blocking
        call's runner, or, after backing off ``delay``, the re-send of a
        swept or rejected call."""
        try:
            if delay is not None:
                yield from self._backoff(entry, delay)
            yield from self._submit_entry(entry)
        except Interrupt:
            pass               # deadline: _on_deadline settled the entry
        except Exception as exc:
            entry.fail(exc)

    def _backoff(self, entry: _PendingCall, delay: float):
        t_back = self.node.sim.now
        yield self.node.sim.timeout(delay)
        if entry.act is not None:
            entry.act.stage("backoff", t_back, self.node.sim.now,
                            attempt=entry.attempt)

    def _retry_or_fail(self, entry: _PendingCall, idx: int,
                       exc: BaseException,
                       retry_after: Optional[float] = None) -> None:
        """Re-send ``entry`` after its failed attempt on ``idx`` -- after a
        backoff, at least ``retry_after`` for a rejection -- or fail it
        with ``exc`` when attempts or the retry budget are spent or the
        engine closed.  The re-send runs in-process when the running
        process is the one submitting the entry, else from a detached
        process."""
        if entry.attempt >= self.retry_policy.max_attempts \
                or not self._connected \
                or not self._spend_retry(entry.fn, idx):
            entry.fail(exc, reroute=retry_after is None)
            return
        delay = self.retry_policy.backoff(entry.attempt - 1, self.rng)
        if retry_after is None:
            self.faults.retries += 1
            kind = "retry"
        else:
            self.faults.rejected_retries += 1
            kind = "rejected_retry"
            delay = max(retry_after, delay)
        self._trace(kind, entry.fn, idx,
                    f"attempt={entry.attempt} backoff={delay:.2e}")
        if entry.submitter is not None \
                and entry.submitter is self.node.sim.active_process:
            entry.backoff = delay
        else:
            self.node.sim.process(self._run_entry(entry, delay),
                                  name=f"resubmit-{entry.fn}")

    def _charge_failure(self, entries, idx: int, exc: BaseException) -> None:
        """Account one channel failure on ``idx`` that took ``entries``
        with it: close their attempts, feed oversize errors to the tuner,
        charge the breaker once."""
        now = self.node.sim.now
        for entry in entries:
            entry.drop_gauge()
            if self.tuner is not None and isinstance(exc, ProtocolError):
                # Oversize payloads are the tuner's urgent case: the
                # declared payload hint is provably wrong, not merely
                # slow, so it may retarget without the usual dwell.
                self.tuner.observe_error(entry.fn, len(entry.message), idx)
            if entry.act is not None:
                # Close the attempt before recording events so faults read
                # as root-level siblings of the attempt subtrees.
                entry.act.end_attempt(now, status="error",
                                      error=type(exc).__name__)
            entry.attempt += 1
            entry.error = self._map_error(exc)
        self._breaker(idx).record_failure()
        self.faults.channel_failures += 1
        self._trace("channel_error", entries[0].fn if entries else "", idx,
                    type(exc).__name__)

    def _pipeline_for(self, idx: int, act=None):
        """Coroutine: the live pipeline for channel ``idx``, opening the
        channel (and creating the pipeline) on first use."""
        pipe = self._pipelines.get(idx)
        if pipe is not None and not pipe.dead:
            return pipe
        chan = self._channels.get(idx)
        if chan is None:
            t_conn = self.node.sim.now
            chan = yield from self._open_channel(self.plan.channels[idx])
            if act is not None:
                act.stage("connect", t_conn, self.node.sim.now, channel=idx)
        m = self._chan_metrics.get(idx)
        pipe = ChannelPipeline(self.node.sim, chan,
                               window=self.plan.channels[idx].window,
                               index=idx, error_types=_CHANNEL_ERRORS,
                               on_dead=self._pipeline_dead,
                               occupancy=m[4] if m is not None else None)
        self._pipelines[idx] = pipe
        return pipe

    def _pipeline_dead(self, pipe: ChannelPipeline, entries, exc) -> None:
        """A channel died with calls on the wire: charge the breaker,
        discard the connection, then retry idempotent calls elsewhere and
        fail the rest -- one in-flight call's fate never blocks its
        neighbors'."""
        idx = pipe.index
        self._charge_failure(entries, idx, exc)
        self._discard_channel(idx)
        for entry in entries:
            if entry.fn in self.idempotent_fns:
                self._retry_or_fail(entry, idx, entry.error)
                continue
            self.faults.blind_retries_prevented += 1
            self._trace("blind_retry_prevented", entry.fn, idx,
                        f"seqid={entry.seqid}")
            entry.fail(entry.error)

    def _on_rejected(self, entry: _PendingCall, retry_after: float) -> None:
        """A call came back REJECTED.

        Rejection is load, not failure: the channel stays up, the breaker
        is credited, and -- because admission runs before dispatch -- the
        re-send is safe whatever the function's idempotency.  The entry is
        re-submitted after honoring the server's ``retry_after`` (under the
        retry budget), or failed with the typed exception -- never
        rerouted: shifting a rejection onto a replica would move the storm
        sideways instead of shedding it."""
        entry.drop_gauge()
        self._breaker(entry.channel).record_success()
        self.faults.rejections += 1
        self._trace("rejected", entry.fn, entry.channel,
                    f"retry_after={retry_after:.2e}")
        if entry.act is not None:
            entry.act.end_attempt(self.node.sim.now, status="rejected")
        entry.attempt += 1
        self._retry_or_fail(entry, entry.channel,
                            TRejectedException(retry_after), retry_after)

    def _spend_retry(self, fn: str, idx: int) -> bool:
        """One retry decision against the shared budget (None = unlimited).
        A denial is terminal for the call: the typed error surfaces instead
        of another wire attempt."""
        if self.retry_budget is None:
            return True
        if self.retry_budget.try_spend():
            return True
        self.faults.budget_exhausted += 1
        self._trace("retry_budget_exhausted", fn, idx)
        return False

    def _on_deadline(self, entry: _PendingCall,
                     budget: float) -> TTransportException:
        """The one deadline rule; returns the TIMED_OUT error to raise.

        A call that holds its channel alone (inline, or a window-1
        channel's solo slot) -- or whose blocking caller's runner has not
        put it on the wire yet -- is interrupted and settled here; a held
        channel is discarded (its wire state is unknown), so the next call
        reconnects cleanly.  Any other call (posted into a shared window,
        or waiting out a detached retry) is abandoned: the wire is left
        alone, window neighbors keep flowing and the late response is
        dropped on arrival.  Neither charges the breaker, and an
        interrupted call is never re-sent."""
        self.faults.timeouts += 1
        exc = TTransportException(
            TTransportException.TIMED_OUT,
            f"{entry.fn} exceeded its {budget * 1e6:.0f}us deadline")
        pipe = self._pipelines.get(entry.channel)
        held = pipe is not None and pipe.holder[0] is entry
        runner = pipe.holder[1] if held else entry.owner
        if runner is None or not runner.is_alive:
            self._trace("timeout", entry.fn, entry.channel,
                        "abandoned in flight", entry.act)
            return exc
        runner.interrupt("deadline")
        if entry.act is not None:
            # The interrupted runner never reaches its own end_attempt;
            # close the span here so the committed trace has no dangling
            # attempt and stage attribution doesn't miscount the tail.
            entry.act.end_attempt(self.node.sim.now, status="interrupted")
        self._trace("timeout", entry.fn, entry.route.channel,
                    f"budget={budget}", entry.act)
        if held:
            self._discard_channel(entry.channel)
        entry.fail(exc, reroute=False)
        return exc

    def _pick_channel(self, route: FunctionRoute, msg_len: int
                      ) -> Optional[int]:
        for idx in self._candidates(route.channel):
            ch = self.plan.channels[idx]
            if idx != route.channel and msg_len > ch.max_msg:
                continue  # message would not fit the fallback's buffers
            if self._breaker(idx).allow():
                return idx
        return None

    def _note_routing(self, fn_name: str, route: FunctionRoute, idx: int
                      ) -> None:
        prev = self._last_channel.get(route.channel, route.channel)
        if idx != route.channel:
            self.faults.failovers += 1
            self._trace("failover", fn_name, idx,
                        f"primary={route.channel}")
        elif prev != route.channel:
            self.faults.failbacks += 1
            self._trace("failback", fn_name, idx, f"from={prev}")
        self._last_channel[route.channel] = idx

    @staticmethod
    def _map_error(exc: Exception) -> Exception:
        """Normalize transport failures onto the Thrift error taxonomy."""
        if isinstance(exc, WCError):
            return transport_exception_from_wc(exc.status)
        if isinstance(exc, TTransportException):
            return exc
        if isinstance(exc, ConnectionError):
            return TTransportException(TTransportException.NOT_OPEN,
                                       str(exc))
        return TTransportException(TTransportException.UNKNOWN, str(exc))
