"""The engine's one call path: blocking ``call`` is submit + wait over the
same pending-call state machine as ``call_async``.

Covers the equivalence of the two entry points under faults on a window-1
plan, the stub seqid check under concurrent blocking + async calls on one
client, the tuner hearing about a ProtocolError that kills a channel with
a call on it, the inline blocking call (no process spawned) versus a
blocking call sharing a busy window, and the one deadline rule: window-1
through ``call_async``, idle versus shared pipelined windows, and a call
timing out while queued for a held slot.
"""

import random

import pytest

from repro import obs
from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.core.tuner import HintTuner, TunerConfig
from repro.faults import FaultInjector, FaultPlan, QPError
from repro.idl import load_idl
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException

# an obs registry installed after earlier modules built engines warns
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

KV_IDL = """
service PathKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
}
"""


class KVHandler:
    def __init__(self, tb, slow=10 * ms):
        self.tb = tb
        self.slow = slow
        self.store = {"k": "v"}

    def Get(self, k):
        return self.store.get(k, "")

    def Put(self, k, v):
        self.store[k] = v

    def Slow(self, k):
        yield self.tb.sim.timeout(self.slow)
        return k


@pytest.fixture(scope="module")
def gen():
    return load_idl(KV_IDL, "call_path_gen")


def connect(tb, gen, node=1, **kw):
    kw.setdefault("rng", random.Random(42))
    return hatrpc_connect(tb.node(node), tb.node(0), gen, "PathKV", **kw)


# -- equivalence: window 1, blocking == async + wait -------------------------

def run_faulted_gets(gen, use_async):
    """Twenty Gets from node1 against an admission-gated server while a
    neighbor on node2 keeps the gate busy and node1's QPs are errored
    mid-run.  Returns (results, faults, [(kind, channel)...])."""
    tb = Testbed(n_nodes=3)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb, slow=300 * us),
                 admission=AdmissionConfig(capacity=1,
                                           retry_after_base=40 * us)).start()
    FaultInjector(tb, FaultPlan(seed=4, events=(
        QPError("node1", at=700 * us),))).arm()

    def occupier():
        stub = yield from connect(tb, gen, node=2, rng=random.Random(1),
                                  retry_policy=RetryPolicy(max_attempts=50))
        for _ in range(6):
            yield from stub.Slow("x")

    def client():
        stub = yield from connect(
            tb, gen, idempotent=("Get",),
            retry_policy=RetryPolicy(max_attempts=20, base_backoff=20 * us))
        engine = stub._hatrpc.engine
        caller = stub._hatrpc.async_caller()
        out = []
        for _ in range(20):
            try:
                if use_async:
                    h = yield from caller.call_async("Get", "k")
                    out.append((yield from h.wait()))
                else:
                    out.append((yield from stub.Get("k")))
            except TTransportException as exc:
                out.append(("error", exc.type))
            yield tb.sim.timeout(60 * us)
        return out, engine

    tb.sim.process(occupier())
    out, engine = tb.sim.run(tb.sim.process(client()))
    kinds = [(kind, ch) for _, kind, _fn, ch, _d in engine.fault_trace]
    return out, engine.faults.as_dict(), kinds


def test_window1_blocking_and_async_wait_are_equivalent_under_faults(gen):
    blocking = run_faulted_gets(gen, use_async=False)
    async_ = run_faulted_gets(gen, use_async=True)
    out, faults, kinds = blocking
    # the plan really exercised rejection and channel-failure recovery
    assert faults["rejections"] > 0 and faults["rejected_retries"] > 0
    assert faults["channel_failures"] > 0 and faults["retries"] > 0
    assert out == ["v"] * 20
    assert async_ == blocking


# -- satellite: stub seqid race ----------------------------------------------

@pytest.mark.parametrize("pipeline", [False, True])
def test_blocking_stub_call_survives_concurrent_async_call(gen, pipeline):
    """An async call on the same client advances the shared seqid counter
    while a blocking call is in flight; the blocking call must still
    accept its own reply (and the async call must wait for the window the
    blocking call holds instead of overlapping it)."""
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb),
                 pipeline=pipeline).start()
    out = {}

    def run():
        stub = yield from connect(tb, gen, pipeline=pipeline)
        caller = stub._hatrpc.async_caller()

        def side():
            yield tb.sim.timeout(1 * ms)          # Slow is in flight
            h = yield from caller.call_async("Get", "k")
            out["get"] = yield from h.wait()

        tb.sim.process(side())
        out["slow"] = yield from stub.Slow("x")

    tb.sim.run(tb.sim.process(run()))
    tb.sim.run()                                  # let the async Get land
    assert out == {"slow": "x", "get": "v"}


# -- satellite: a ProtocolError killing a channel reaches the tuner ----------

SIZED_IDL = """
service Sized {
    hint: tunable = true;
    binary Echo(1: binary blob) [
        hint: perf_goal = throughput, concurrency = 64, payload_size = 512;
    ]
}
"""

LARGE = 131072


def test_channel_killing_protocol_error_reaches_tuner():
    sized = load_idl(SIZED_IDL, "call_path_sized_gen")
    tb = Testbed(n_nodes=2)

    class Echo:
        def Echo(self, blob):
            return blob

    HatRpcServer(tb.node(1), sized, "Sized", Echo()).start()
    tuner = HintTuner(TunerConfig())
    out = {}

    def run():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), sized,
                                         "Sized", tuner=tuner)
        engine = stub._hatrpc.engine
        declared = engine.plan.routes["Echo"].channel
        assert engine.plan.channels[declared].max_msg < LARGE
        # The oversize request fails inside the channel's call and takes
        # the channel down with it (the async path's solo process).
        h = yield from stub._hatrpc.async_caller().call_async(
            "Echo", b"y" * LARGE)
        with pytest.raises(TTransportException):
            yield from h.wait()
        out["faults"] = engine.faults.as_dict()
        out["moved"] = engine.plan.routes["Echo"].channel != declared
        # re-issued under the retargeted plan, the call fits
        out["echo"] = yield from stub.Echo(b"z" * LARGE)

    tb.sim.run(tb.sim.process(run()))
    assert out["faults"]["channel_failures"] == 1
    assert tuner.urgent_switches == 1
    assert out["moved"]
    assert out["echo"] == b"z" * LARGE


# -- the inline blocking call -------------------------------------------------

def test_blocking_call_on_idle_window_spawns_no_process(gen):
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb),
                 pipeline=True).start()
    spawned = []

    def run():
        stub = yield from connect(tb, gen, pipeline=True)
        yield from stub.Get("k")                 # opens the channel
        real = tb.sim.process

        def counting(g, name=""):
            spawned.append(name)
            return real(g, name)

        tb.sim.process = counting
        try:
            value = yield from stub.Get("k")
        finally:
            tb.sim.process = real
        return value, stub._hatrpc.engine

    value, engine = tb.sim.run(tb.sim.process(run()))
    assert value == "v"
    assert not any(n.startswith(("solo-call", "pipeline-recv", "call-"))
                   for n in spawned), spawned
    pipe = engine._pipelines[engine.plan.routes["Get"].channel]
    assert pipe.pipelined and pipe.posted == 0 and pipe.pending == 0


# -- the one deadline rule, reached through call_async -----------------------

def test_async_wait_deadline_on_window1_discards_the_held_channel(gen):
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb)).start()

    def run():
        stub = yield from connect(tb, gen)
        engine = stub._hatrpc.engine
        h = yield from stub._hatrpc.async_caller().call_async("Slow", "x")
        with pytest.raises(TTransportException) as ei:
            yield from h.wait(200 * us)
        assert ei.value.type == TTransportException.TIMED_OUT
        assert h.done and engine._pipelines == {}
        # the channel was discarded: the next call reconnects
        value = yield from stub.Get("k")
        return value, engine

    value, engine = tb.sim.run(tb.sim.process(run()))
    tb.sim.run()
    assert value == "v"
    assert engine.faults.timeouts == 1
    assert engine.faults.reconnects == 1
    assert engine.faults.channel_failures == 0
    assert engine.faults.retries == 0


def test_blocking_call_shares_a_busy_window(gen):
    """With calls already in flight on a pipelined window, a blocking call
    is posted into the window next to them instead of running inline."""
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb),
                 pipeline=True).start()

    def run():
        stub = yield from connect(tb, gen, pipeline=True)
        engine = stub._hatrpc.engine
        slow = yield from stub._hatrpc.async_caller().call_async("Slow", "s")
        pipe = engine._pipelines[engine.plan.routes["Get"].channel]
        posted = pipe.posted
        assert pipe.pending == 1
        value = yield from stub.Get("k")
        assert pipe.posted == posted + 1        # framed, not inline
        return value, (yield from slow.wait())

    assert tb.sim.run(tb.sim.process(run())) == ("v", "s")


@pytest.mark.parametrize("busy", [False, True])
def test_blocking_deadline_on_pipelined_window(gen, busy):
    """One deadline rule for blocking calls on a multi-slot window: alone
    on an idle window the call holds the channel inline, so expiry
    discards it; posted next to an in-flight neighbor it is abandoned and
    the neighbor still completes on the same channel."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=2)
        HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb),
                     pipeline=True).start()

        def run():
            stub = yield from connect(tb, gen, pipeline=True,
                                      deadline=200 * us)
            yield from stub.Get("k")                 # open the channel
            neighbor = None
            if busy:                                 # async: no deadline
                neighbor = yield from stub._hatrpc.async_caller().call_async(
                    "Slow", "n")
            with pytest.raises(TTransportException) as ei:
                yield from stub.Slow("x")
            assert ei.value.type == TTransportException.TIMED_OUT
            if neighbor is not None:
                assert (yield from neighbor.wait()) == "n"
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        tb.sim.run()
        assert engine.faults.timeouts == 1
        assert engine.faults.channel_failures == 0
        assert engine.faults.reconnects == (0 if busy else 1)
        for ch in engine.plan.channels:
            assert reg.gauge(f"engine.ch{ch.index}.inflight").value == 0


def test_deadline_while_queued_for_a_held_slot(gen):
    """A blocking call whose deadline expires while it waits for a
    window-1 slot held by another call leaves the holder and the channel
    alone, and the slot still passes on to the call queued behind it."""
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "PathKV", KVHandler(tb)).start()
    out = {}

    def run():
        stub = yield from connect(tb, gen, deadline=200 * us)
        caller = stub._hatrpc.async_caller()
        holder = yield from caller.call_async("Slow", "h")

        def behind():                         # queues after the timed call
            yield tb.sim.timeout(100 * us)
            h = yield from caller.call_async("Get", "k")
            out["behind"] = yield from h.wait()

        tb.sim.process(behind())
        with pytest.raises(TTransportException) as ei:
            yield from stub.Get("k")
        assert ei.value.type == TTransportException.TIMED_OUT
        out["holder"] = yield from holder.wait()
        return stub._hatrpc.engine

    engine = tb.sim.run(tb.sim.process(run()))
    tb.sim.run()
    assert out == {"holder": "h", "behind": "v"}
    assert engine.faults.timeouts == 1
    assert engine.faults.reconnects == 0
    assert engine.faults.channel_failures == 0
