"""One repetition of one workload, through the repo's public API only.

A repetition builds its testbed from nothing, runs a PhasedRun
(PREPARING -> WARMUP -> MEASUREMENT -> COOLDOWN on the simulated clock),
checks every reply it got, and returns its figures as a JSON-able dict.
Three modes:

* ``plain``   -- obs off: what the end-to-end metrics are measured on;
* ``counted`` -- a metrics registry installed, no tracing: per-op counts;
* ``traced``  -- registry + a head-sampled trace collector + the
  deterministic profiler over the MEASUREMENT window: stage times and
  per-package host shares.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import random
import re
import resource
import time

from benchmarks.oracle import OracleStub, StaleOracle
from repro import obs
from repro.atb import load_atb_module
from repro.atb.harness import connect_stub, start_server
from repro.bench import LatencyStats, Phase, PhasedRun, percentile
from repro.hatkv import ShardedKVCluster, load_hatkv_module
from repro.hatkv.client import cache_for
from repro.obs import hint_attribution
from repro.sim import AllOf
from repro.sim.units import us
from repro.testbed import Testbed
from repro.thrift.errors import TException
from repro.ycsb import run_ycsb_phased
from repro.ycsb.workload import OpType, WorkloadSpec

from spec import PACKAGES, TRACE_SAMPLE_RATE, WORKLOADS

MODES = ("plain", "counted", "traced")
KV_OPS = ("get", "put", "multi_get", "multi_put")
#: bytes of keyed digest that close every value the benchmark stores
SEAL = 16


def tail_percentile(samples) -> "tuple[int, float] | None":
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, percentile(samples, p)
    return None


def seal(key: bytes, value: bytes) -> bytes:
    """``value`` with its last SEAL bytes replaced by a digest of the key
    and the rest, so a read can tell a whole value of the right key."""
    body = value[:-SEAL]
    return body + hashlib.blake2b(key + body, digest_size=SEAL).digest()


def intact(key: bytes, value: bytes) -> bool:
    """A sealed value of ``key``, behind the stale-read oracle's sequence
    stamp or not."""
    if value[12:13] == b"|" and value[:12].isdigit():
        value = value[13:]
    return len(value) > SEAL and seal(key, value) == value


class SealedLoad:
    """The cluster as the YCSB driver sees it, sealing bulk-loaded values."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.nodes = cluster.nodes

    def load(self, items) -> None:
        self.cluster.load((k, seal(k, v)) for k, v in items)


class Tally:
    """Ops issued and failed, attributed like PhasedRun.record (by start
    time), plus a digest of the whole op stream."""

    def __init__(self, run: PhasedRun):
        self.run = run
        self.attempted = 0
        self.failed = 0
        self.missing = 0
        self.corrupt = 0
        self.mismatched = 0
        self.digest = hashlib.sha256()

    def issue(self, op: str, *parts: bytes) -> bool:
        """Record one issued op; True when it counts toward MEASUREMENT."""
        self.digest.update(op.encode())
        for part in parts:
            self.digest.update(part)
        measured = self.run.phase_of(self.run.sim.now) is Phase.MEASUREMENT
        self.attempted += measured
        return measured


class TallyStub:
    """A KV stub that counts every op, and every failure, into a Tally,
    seals every value it writes, and checks every value it reads: each key
    was bulk-loaded and none is deleted, so each read must find a sealed
    value of its own key."""

    def __init__(self, stub, tally: Tally):
        self._stub = stub
        self._tally = tally

    def _call(self, measured, fn, *args):
        try:
            return (yield from fn(*args))
        except TException:
            self._tally.failed += measured
            raise

    def Get(self, key):
        measured = self._tally.issue("get", key)
        res = yield from self._call(measured, self._stub.Get, key)
        self._read(key, res.value if res.found else b"")
        return res

    def Put(self, key, value):
        measured = self._tally.issue("put", key)
        return (yield from self._call(measured, self._stub.Put, key,
                                      seal(key, value)))

    def MultiGet(self, keys):
        measured = self._tally.issue("multi_get", *keys)
        values = yield from self._call(measured, self._stub.MultiGet, keys)
        self._tally.missing += len(keys) - len(values)
        for key, value in zip(keys, values):
            self._read(key, value)
        return values

    def MultiPut(self, keys, values):
        measured = self._tally.issue("multi_put", *keys)
        return (yield from self._call(
            measured, self._stub.MultiPut, keys,
            [seal(k, v) for k, v in zip(keys, values)]))

    def _read(self, key, value) -> None:
        if not value:
            self._tally.missing += 1
        elif not intact(key, value):
            self._tally.corrupt += 1


class MixHandler:
    """ATBench server: replies with the payload reversed after
    payload-proportional checksum work, so each reply is checkable."""

    def __init__(self, node, checksum_rate: float):
        self.node = node
        self.checksum_rate = checksum_rate

    def _work(self, payload):
        yield self.node.compute(len(payload) / self.checksum_rate)
        return payload[::-1]

    def LatCall(self, payload):
        return (yield from self._work(payload))

    def TputCall(self, payload):
        return (yield from self._work(payload))


class Probe:
    """Host- and sim-clock marks taken at the PhasedRun edges.  The
    profiler, when there is one, covers exactly the MEASUREMENT window."""

    def __init__(self, tb: Testbed, server_nodes, reg, profiler):
        self.tb = tb
        self.server_nodes = server_nodes
        self.reg = reg
        self.profiler = profiler
        self.marks = {}

    def _mark(self, host: float) -> dict:
        mark = {"host": host, "sim": self.tb.sim.now,
                "events": self.tb.sim.events_executed}
        if self.reg is not None:
            mark["busy"] = sum(n.cpu.busy_core_seconds
                               for n in self.server_nodes)
            mark["reg"] = self.reg.flat_values()
        return mark

    def on_phase(self, phase: Phase, _t: float) -> None:
        host = time.perf_counter()
        if phase is Phase.COOLDOWN and self.profiler is not None:
            self.profiler.disable()
        self.marks[phase] = self._mark(host)
        if phase is Phase.MEASUREMENT and self.profiler is not None:
            self.profiler.enable()


class Rep:
    """What one repetition builds and observes, whatever the workload."""

    def __init__(self, params: dict, seed: int, mode: str, t_start: float):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.seed = seed
        self.mode = mode
        self.t_start = t_start
        # Install before anything is built: components capture obs once.
        self.reg = obs.install() if mode != "plain" else None
        self.col = obs.trace.install(sample_rate=TRACE_SAMPLE_RATE,
                                     seed=seed) if mode == "traced" else None
        self.profiler = cProfile.Profile() if mode == "traced" else None
        self.oracle = None

    def compile(self, load, **kw):
        t0 = time.perf_counter()
        gen = load(**kw)
        self.idl_s = time.perf_counter() - t0
        return gen

    def build(self) -> None:
        p = self.params
        self.tb = Testbed(n_nodes=p["server_nodes"] + p["client_nodes"])
        self.server_nodes = self.tb.nodes[:p["server_nodes"]]
        self.run = PhasedRun(self.tb.sim, name="perfbench",
                             warmup=p["warmup_us"] * us,
                             measurement=p["measure_us"] * us,
                             cooldown=p["cooldown_us"] * us)
        self.probe = Probe(self.tb, self.server_nodes, self.reg,
                           self.profiler)
        self.run.on_phase.append(self.probe.on_phase)
        self.tally = Tally(self.run)


def _run_mix(rep: Rep) -> None:
    p = rep.params
    gen = rep.compile(load_atb_module, goal="throughput",
                      payload=p["tput_payload"], concurrency=p["clients"],
                      mix_lat_payload=p["lat_payload"],
                      mix_tput_payload=p["tput_payload"])
    n_clients = p["clients"]
    max_msg = p["tput_payload"] + 8 * 1024
    rep.build()
    tb, run, tally, sim = rep.tb, rep.run, rep.tally, rep.tb.sim
    start_server(tb, gen, MixHandler(tb.node(0), p["checksum_rate"]),
                 "hatrpc", n_clients, max_msg)
    client_nodes = tb.nodes[p["server_nodes"]:]
    procs = []

    def client(i, stub):
        rng = random.Random(rep.seed * 1_000_003 + i)
        while not run.stopped:
            is_lat = rng.random() < p["lat_ratio"]
            op = "LatCall" if is_lat else "TputCall"
            payload = rng.randbytes(p["lat_payload"] if is_lat
                                    else p["tput_payload"])
            measured = tally.issue(op, payload)
            t0 = sim.now
            try:
                reply = yield from getattr(stub, op)(payload)
            except TException:
                tally.failed += measured
                continue
            tally.mismatched += reply != payload[::-1]
            run.record(op, sim.now - t0, start=t0)

    def prepare():
        for i in range(n_clients):
            node = client_nodes[i % len(client_nodes)]
            stub = yield from connect_stub(tb, node, gen, "hatrpc",
                                           n_clients, max_msg)
            procs.append(sim.process(client(i, stub), name=f"mix-{i}"))

    driver = sim.process(run.drive(prepare=prepare()), name="phase-driver")
    sim.run(until=driver)
    sim.run(until=AllOf(sim, procs))
    for proc in procs:
        proc.value  # surface a client crash instead of undercounting
    run.stop()
    sim.run()


def _run_kv(rep: Rep) -> None:
    p = rep.params
    gen = rep.compile(load_hatkv_module, variant="function", cacheable={
        "ttl": p["ttl_us"] * us, "hot_promote": p["hot_promote"]})
    rep.build()
    cluster = ShardedKVCluster(rep.tb, p["server_nodes"],
                               gen_module=gen,
                               server_nodes=rep.server_nodes).start()
    rep.oracle = oracle = StaleOracle(rep.tb.sim)
    node_caches = {}

    def connect(node):
        # One cache per client node: every client on a machine reads
        # through, and invalidates, the same cache.
        cache = node_caches.get(node.name)
        if cache is None:
            cache = node_caches[node.name] = cache_for(node, gen)
        router = yield from cluster.connect(node, cache=cache)
        return TallyStub(OracleStub(router, oracle), rep.tally)

    spec = WorkloadSpec(
        "perfbench", tuple((OpType(op), w) for op, w in p["mix"].items()),
        record_count=p["record_count"], theta=p["theta"],
        field_length=p["field_length"])
    run_ycsb_phased(SealedLoad(cluster), connect, spec, testbed=rep.tb,
                    run=rep.run, n_clients=p["clients"],
                    n_client_nodes=p["client_nodes"], seed=rep.seed)


# -- figures ------------------------------------------------------------------

def _package_shares(profiler) -> dict:
    """Self time per ``repro.<package>`` over the profiled window, as a
    share of all self time in it."""
    pat = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
    total = 0.0
    per = dict.fromkeys(PACKAGES, 0.0)
    for (path, _line, _fn), row in pstats.Stats(profiler).stats.items():
        self_time = row[2]
        total += self_time
        m = pat.search(path)
        if m and m.group(1) in per:
            per[m.group(1)] += self_time
    return {k: v / total if total else 0.0 for k, v in per.items()}


def _measured_spans(col, t0: float, t1: float, root_name) -> list:
    """Committed spans of the traces whose client root started inside
    [t0, t1) -- the MEASUREMENT window -- optionally only those of one
    function."""
    keep = {s.trace_id for s in col.spans
            if s.kind == "client" and not s.parent_span_id
            and t0 <= s.start < t1 and root_name in (None, s.name)}
    return [s for s in col.spans if s.trace_id in keep]


#: per-layer metric -> trace stage whose mean simulated time it reports
STAGES = {
    "protocols.post.mean_us": "post",
    "protocols.network.mean_us": "network",
    "protocols.cq_wait.mean_us": "cq_wait",
    "thrift.serialize.mean_us": "serialize",
    "thrift.deserialize.mean_us": "deserialize",
    "core.hint_select.mean_us": "hint_select",
    "core.dispatch.mean_us": "dispatch",
    "hatkv.handler.mean_us": "handler",
    "lmdb.backend.mean_us": "backend",
}


def _stage_means(spans) -> "tuple[dict, dict]":
    """Mean simulated us per stage span, pooled exactly over every hint
    tuple (sum of totals / sum of counts), and the sample counts."""
    totals, counts = {}, {}
    for per_stage in hint_attribution(spans).values():
        for stage, st in per_stage.items():
            totals[stage] = totals.get(stage, 0.0) + st.total
            counts[stage] = counts.get(stage, 0) + st.count
    means = {name: totals[stage] / counts[stage] / us
             if counts.get(stage) else 0.0
             for name, stage in STAGES.items()}
    return means, {name: counts.get(stage, 0)
                   for name, stage in STAGES.items()}


def _figures(rep: Rep) -> dict:
    run, probe = rep.run, rep.probe
    m0, m1 = probe.marks[Phase.MEASUREMENT], probe.marks[Phase.COOLDOWN]
    stats = run.stats[Phase.MEASUREMENT]
    headline = rep.params.get("headline_op")
    lat = LatencyStats()
    for op, st in sorted(stats.items()):
        if headline in (None, op):
            lat = lat.merge(st)
    ops = run.ops(Phase.MEASUREMENT)
    oracle = rep.oracle
    out = {
        "host": {
            "host_ops_per_s": ops / (m1["host"] - m0["host"]),
            "setup_s": probe.marks[Phase.WARMUP]["host"] - rep.t_start,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "sim": {
            "ops": ops,
            "sim_s": m1["sim"] - m0["sim"],
            "events": m1["events"] - m0["events"],
            "latencies": lat.samples,
        },
        "checks": {
            "completed": ops,
            "attempted": rep.tally.attempted,
            "failed": rep.tally.failed,
            "missing": rep.tally.missing,
            "corrupt": rep.tally.corrupt,
            "mismatched": rep.tally.mismatched,
            "unattributed": run.unattributed,
            "stale": oracle.stale if oracle else 0,
            "checked": oracle.checked if oracle else 0,
            "first_stale": repr(oracle.first_stale) if oracle else None,
            "drops": sum(port.drops
                         for port in rep.tb.fabric.ports.values()),
        },
        "digest": rep.tally.digest.hexdigest(),
    }
    if rep.mode != "plain":
        out["layers"], out["notes"] = _layers(rep, stats, ops, m0, m1)
    return out


def _layers(rep: Rep, stats, ops, m0, m1) -> "tuple[dict, dict]":
    r0, r1 = m0["reg"], m1["reg"]

    def delta(name):
        return r1.get(name, 0) - r0.get(name, 0)

    def per_op(name, scale=1.0):
        return delta(name) * scale / ops

    def total(suffix):
        return sum(delta(k) for k in r1 if k.endswith(suffix))

    sim_s = m1["sim"] - m0["sim"]
    lookups = delta("hatkv.cache.hits") + delta("hatkv.cache.misses")
    cq_waits = delta("cq.wait_event") + delta("cq.wait_busy")
    cores = sum(n.cpu.cores for n in rep.server_nodes)
    layers = {
        "sim.events_per_op": (m1["events"] - m0["events"]) / ops,
        "sim.server_cpu_util": (m1["busy"] - m0["busy"]) / (sim_s * cores),
        "verbs.wrs_per_op": per_op("verbs.wrs_posted"),
        "verbs.doorbells_per_op": per_op("verbs.doorbells"),
        "verbs.cq_event_wait_frac": delta("cq.wait_event") / cq_waits
        if cq_waits else 0.0,
        "verbs.registered_mib": sum(n.nic.registered_bytes
                                    for n in rep.tb.nodes) / 2**20,
        "netfab.bytes_per_op": per_op("netfab.bytes_sent"),
        "netfab.messages_per_op": per_op("netfab.messages_sent"),
        "netfab.drops": delta("netfab.drops"),
        # requests a server handed to a Thrift processor, on any transport
        "thrift.requests_per_op": (delta("thrift.requests")
                                   + total(".server_requests")) / ops,
        "core.engine_calls_per_op": per_op("engine.calls"),
        "core.retries_per_kop": per_op("faults.retries", 1e3),
        "hatkv.cache.hit_ratio": delta("hatkv.cache.hits") / lookups
        if lookups else 0.0,
        "hatkv.server_requests_per_op": sum(
            delta(f"hatkv.{op}") for op in KV_OPS + ("delete", "scan")) / ops,
        "hatkv.cache.invalidations_per_kop": per_op(
            "hatkv.cache.invalidations", 1e3),
        "hatkv.lease.write_stalls_per_kop": per_op(
            "hatkv.lease.write_stalls", 1e3),
        "idl.compile_s": rep.idl_s,
    }
    notes = {}
    for op in KV_OPS:
        tail = tail_percentile(stats[op].samples) if op in stats else None
        layers[f"ycsb.{op}.p99_us"] = tail[1] / us if tail else 0.0
        notes[f"ycsb.{op}.p99_us"] = f"p{tail[0]}" if tail else "no samples"
    if rep.col is not None:
        spans = _measured_spans(rep.col, m0["sim"], m1["sim"],
                                rep.params.get("headline_op"))
        means, counts = _stage_means(spans)
        layers.update(means)
        for name, n in counts.items():
            notes[name] = f"{n} spans" + (
                "; the simulator charges this stage no time"
                if n and not means[name] else "")
        layers["obs.spans_per_op"] = len(_measured_spans(
            rep.col, m0["sim"], m1["sim"], None)) / ops
        layers["obs.spans_kept"] = len(rep.col.spans)
        layers["obs.sample_rate"] = rep.col.sample_rate
        for pkg, share in _package_shares(rep.profiler).items():
            layers[f"{pkg}.host_share"] = share
    if rep.oracle is None:
        # No KV server here: the "handler" stage is the ATB handler's.
        for name in layers:
            if name.startswith(("hatkv.", "lmdb.", "ycsb.")):
                layers[name] = 0.0
                notes[name] = "not produced: no KV op on this workload"
    return layers, notes


def run_rep(workload: str, seed: int, mode: str, t_start: float) -> dict:
    """Run one repetition; ``t_start`` is the host time the interpreter
    began the workload, before it imported the program."""
    rep = Rep(WORKLOADS[workload], seed, mode, t_start)
    (_run_mix if workload == "rpc-mix" else _run_kv)(rep)
    return _figures(rep)
