"""End-to-end: an installed registry sees every instrumented layer."""

import pytest

from repro import obs
from repro.bench.proto_runner import ProtoBenchSpec, run_protocol_bench
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.testbed import Testbed

IDL = """
service ObsSvc {
    hint: concurrency = 1;

    string Echo(1: string x) [ hint: perf_goal = latency; ]
}
"""


@pytest.fixture
def registry():
    with obs.installed() as reg:
        yield reg


def test_protocol_bench_populates_all_layers(registry):
    spec = ProtoBenchSpec(protocol="eager_sendrecv", payload=256,
                          n_clients=2, iters=8, warmup=3)
    run_protocol_bench(spec)
    ncalls = spec.n_clients * (spec.iters + spec.warmup)  # warmup included
    flat = registry.flat_values()
    # proto layer
    assert flat["proto.eager_sendrecv.ops"] == ncalls
    assert flat["proto.eager_sendrecv.server_requests"] >= ncalls
    assert flat["proto.eager_sendrecv.latency.count"] == ncalls
    assert flat["proto.eager_sendrecv.doorbells"] > 0
    assert flat["proto.eager_sendrecv.req_bytes"] == ncalls * 256
    # verbs datapath
    assert flat["verbs.doorbells"] > 0
    assert flat["verbs.wrs_posted"] >= flat["verbs.doorbells"]
    assert flat["cq.completions"] > 0
    assert flat["cq.wait_busy"] > 0
    # netfab probe
    assert flat["netfab.messages_sent"] > 0
    assert flat["netfab.bytes_sent"] > 0


def test_engine_metrics_and_fault_probe(registry):
    gen = load_idl(IDL, "obs_itest_gen")
    tb = Testbed(n_nodes=2)

    class H:
        def Echo(self, x):
            return x

    HatRpcServer(tb.node(0), gen, "ObsSvc", H()).start()

    def run():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                         "ObsSvc")
        for _ in range(5):
            yield from stub.Echo("hello")
        return stub._hatrpc.engine

    engine = tb.sim.run(tb.sim.process(run()))
    flat = registry.flat_values()
    assert flat["engine.calls"] == 5
    assert flat["engine.call_latency.count"] == 5
    assert flat["engine.channels_opened"] >= 1
    proto = engine.plan.channels[0].protocol
    assert flat[f"engine.{proto}.ops"] == 5
    # Selector decision counters were recorded at plan-build time.
    assert any(k.startswith("selector.") and v >= 1
               for k, v in flat.items())
    # FaultCounters fold in as a probe group (all zero on a clean run).
    snap = registry.snapshot()
    assert snap["probes"]["faults"]["retries"] == 0
    assert snap["probes"]["faults"]["timeouts"] == 0
    # The per-channel inflight gauge drained to zero but saw traffic.
    idx = engine.plan.routes["Echo"].channel
    assert flat[f"engine.ch{idx}.inflight.value"] == 0
    assert flat[f"engine.ch{idx}.inflight.high_water"] >= 1


def test_verbs_memory_probe_sums_devices(registry):
    """Every device reports registered and resident bytes; the probe
    group is their sum across the testbed."""
    gen = load_idl(IDL, "obs_mem_probe_gen")
    tb = Testbed(n_nodes=2)

    class H:
        def Echo(self, x):
            return x

    HatRpcServer(tb.node(0), gen, "ObsSvc", H()).start()

    def run():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                         "ObsSvc")
        for _ in range(5):
            yield from stub.Echo("hello")

    tb.sim.run(tb.sim.process(run()))
    group = registry.probe_values()["verbs.memory"]
    nics = [tb.node(i).nic for i in range(2)]
    assert group["registered_bytes"] == sum(n.registered_bytes
                                            for n in nics)
    assert group["resident_bytes"] == sum(n.mem.resident_bytes
                                          for n in nics)
    assert all(n.mem.resident_bytes > 0 for n in nics)
    assert group["resident_bytes"] < group["registered_bytes"]


def test_counters_safe_across_sim_processes(registry):
    """N interleaved sim coroutines all update shared instruments."""
    tb = Testbed(n_nodes=1)
    c = registry.counter("shared")
    g = registry.gauge("depth")

    def worker():
        for _ in range(100):
            c.inc()
            g.inc()
            yield tb.sim.timeout(1e-7)
            g.dec()

    procs = [tb.sim.process(worker()) for _ in range(8)]
    for p in procs:
        tb.sim.run(p)
    assert c.value == 800
    assert g.value == 0
    assert g.high_water >= 1


def test_disabled_components_carry_no_instruments():
    assert obs.current() is None
    tb = Testbed(n_nodes=2)
    assert tb.node(0).nic._m_doorbells is None
    from repro.core.engine import HatRpcEngine, pinned_plan
    from repro.sim.units import KiB
    from repro.verbs.cq import PollMode
    plan = pinned_plan("Svc", ["Echo"], "direct_writeimm", PollMode.BUSY,
                       max_msg=8 * KiB)
    engine = HatRpcEngine(tb.node(1), plan)
    assert engine._obs is None and engine._m_calls is None
