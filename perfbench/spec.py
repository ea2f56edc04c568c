"""What the benchmark runs and reports, in one place.

``BENCHMARK.json`` holds only each metric's name, unit, direction and
bound, and each workload's one-line reason.  Everything else a later
change cites by name lives here: the workload parameters, the load shape,
which end-to-end metric each per-layer metric should move on which
workload, and what is out of scope.  ``selftest.py`` checks that the two
files agree.
"""

from __future__ import annotations

KiB = 1024

#: How load is offered, for every workload.
LOAD_SHAPE = {
    "loop": "closed",
    "detail": ("each simulated client issues its next op only after the "
               "previous reply arrived, as the paper's ATB and YCSB "
               "clients do"),
    "host_threads": 1,
    "host_detail": ("the simulated clients are coroutines inside one "
                    "single-threaded Python process per repetition; "
                    "repetitions run one after another, each in a fresh "
                    "interpreter"),
}

#: Covered by the figure suite and BENCH_BASELINE.json, not by this
#: benchmark.
OUT_OF_SCOPE = ("live migration / resharding", "admission control and "
                "overload storms", "the online hint tuner",
                "fault injection", "TPC-H")

#: Simulated-time windows are fixed, so op counts and every sim-clock
#: figure are a function of the workload seed alone.
WORKLOADS = {
    "rpc-mix": {
        "why": ("ATB mix, 32 clients on 9 nodes, 50/50 LatCall 64 B / "
                "TputCall 16 KiB: the only workload on the engine's "
                "blocking call path; per-message and per-byte cost show"),
        "shape": "Figs 13-14 function-hint mix over one HatRPC server",
        "server_nodes": 1,
        "clients": 32,
        "client_nodes": 9,
        "lat_ratio": 0.5,
        "lat_payload": 64,
        "tput_payload": 16 * KiB,
        # bytes per CPU-second of server checksum work (the ATB mix's)
        "checksum_rate": 5e9,
        "warmup_us": 200.0,
        "measure_us": 1500.0,
        "cooldown_us": 50.0,
        "headline_op": "LatCall",
    },
    "kv-read-hot": {
        "why": ("YCSB 95/5 get/put zipf 1.2, 48 clients on 2 nodes, 2 "
                "shards, node-shared hot-key cache: async router path; "
                "cache and server-CPU contention do the work"),
        "shape": "skewed YCSB-B get/put, cacheable Get (benchmarks/"
                 "test_cache.py shape)",
        "server_nodes": 2,
        "clients": 48,
        "client_nodes": 2,
        "mix": {"get": 0.95, "put": 0.05},
        "theta": 1.2,
        "field_length": 100,
        "record_count": 1000,
        "ttl_us": 50.0,
        "hot_promote": 4,
        "warmup_us": 400.0,
        "measure_us": 400.0,
        "cooldown_us": 50.0,
    },
    "kv-write-batch": {
        "why": ("YCSB-A 25% each get/put/multiget/multiput, 10-key batches "
                "of 1000 B, zipf 0.99, same cluster: lease barriers, shard "
                "fan-out, LMDB writes, big registered buffers"),
        "shape": "the paper's YCSB-A on the kv-read-hot cluster and hint",
        "server_nodes": 2,
        "clients": 48,
        "client_nodes": 2,
        "mix": {"get": 0.25, "put": 0.25, "multi_get": 0.25,
                "multi_put": 0.25},
        "theta": 0.99,
        "field_length": 100,
        "record_count": 1000,
        "ttl_us": 50.0,
        "hot_promote": 4,
        "warmup_us": 300.0,
        "measure_us": 800.0,
        "cooldown_us": 50.0,
    },
}

#: (name, unit, better, bound, definition).  Bounds are the share of the
#: parent's median a metric may worsen by.  Host-clock metrics are medians
#: over a run's repetitions, host times scaled to the reference host's
#: speed by a calibration loop timed in the same repetitions.  Sim-clock
#: metrics (unit ``sim_us`` for simulated microseconds) pool the run's
#: sub-seeds and are exact for a seed; their bound covers the spread
#: between seeds.
END_TO_END = (
    ("host_ops_per_s", "ops/s", "higher", 0.25,
     "ops completed in MEASUREMENT / host seconds the simulator spent on "
     "that window"),
    ("setup_s", "s", "lower", 0.25,
     "host seconds from the start of the workload to WARMUP: imports, IDL "
     "compile, testbed, servers, bulk load, client connects"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak resident set of the repetition's own interpreter"),
    ("sim_kops", "kops", "higher", 0.15,
     "completed ops per simulated second in MEASUREMENT"),
    ("sim_mean_us", "sim_us", "lower", 0.15,
     "mean simulated latency: LatCall on rpc-mix, all ops on kv workloads"),
    ("sim_p99_us", "sim_us", "lower", 0.2,
     "simulated p99 latency of the same samples (>= 10 samples beyond)"),
)

#: (name, unit, better, end-to-end metric it should move, workloads where
#: its layer does the most / least work).  Stage times are mean simulated
#: us per stage span over the MEASUREMENT window's traces (LatCall's only
#: on rpc-mix); counts are registry deltas over that window per client op.
PER_LAYER = (
    ("sim.events_per_op", "events/op", "lower", "host_ops_per_s",
     "kv-read-hot / rpc-mix"),
    ("sim.host_share", "frac", "lower", "host_ops_per_s",
     "kv-read-hot / rpc-mix"),
    ("sim.server_cpu_util", "frac", "lower",
     "sim_p99_us under contention", "kv-read-hot / rpc-mix"),
    ("verbs.wrs_per_op", "wrs/op", "lower", "sim_mean_us on rpc-mix",
     "kv-write-batch / rpc-mix"),
    ("verbs.doorbells_per_op", "doorbells/op", "lower",
     "sim_mean_us on rpc-mix", "kv-write-batch / rpc-mix"),
    ("verbs.cq_event_wait_frac", "frac", "lower", "sim_mean_us on rpc-mix",
     "kv-write-batch / rpc-mix"),
    ("verbs.registered_mib", "MiB", "lower",
     "peak_rss_mb and setup_s on kv-write-batch",
     "kv-write-batch / rpc-mix"),
    ("verbs.host_share", "frac", "lower", "host_ops_per_s",
     "kv-write-batch / rpc-mix"),
    ("netfab.bytes_per_op", "B/op", "lower",
     "sim_mean_us on rpc-mix; sim_kops on kv-write-batch",
     "rpc-mix / kv-read-hot"),
    ("netfab.messages_per_op", "msgs/op", "lower",
     "sim_mean_us on rpc-mix; sim_kops on kv-write-batch",
     "rpc-mix / kv-read-hot"),
    ("netfab.drops", "count", "lower", "none: must stay 0", "all"),
    ("protocols.post.mean_us", "sim_us", "lower", "sim_mean_us",
     "rpc-mix / kv-read-hot"),
    ("protocols.network.mean_us", "sim_us", "lower", "sim_mean_us",
     "rpc-mix / kv-read-hot"),
    ("protocols.cq_wait.mean_us", "sim_us", "lower", "sim_mean_us",
     "rpc-mix / kv-read-hot"),
    ("protocols.host_share", "frac", "lower", "host_ops_per_s",
     "rpc-mix / kv-read-hot"),
    ("thrift.serialize.mean_us", "sim_us", "lower", "host_ops_per_s",
     "rpc-mix, kv-write-batch / kv-read-hot"),
    ("thrift.deserialize.mean_us", "sim_us", "lower", "host_ops_per_s",
     "rpc-mix, kv-write-batch / kv-read-hot"),
    ("thrift.requests_per_op", "req/op", "lower", "host_ops_per_s",
     "rpc-mix, kv-write-batch / kv-read-hot"),
    ("thrift.host_share", "frac", "lower", "host_ops_per_s",
     "rpc-mix, kv-write-batch / kv-read-hot"),
    ("core.hint_select.mean_us", "sim_us", "lower", "host_ops_per_s",
     "all"),
    ("core.dispatch.mean_us", "sim_us", "lower", "host_ops_per_s", "all"),
    ("core.engine_calls_per_op", "calls/op", "lower", "host_ops_per_s",
     "all"),
    ("core.retries_per_kop", "1/kop", "lower", "none: must stay 0", "all"),
    ("core.host_share", "frac", "lower", "host_ops_per_s", "all"),
    ("hatkv.cache.hit_ratio", "frac", "higher", "sim_kops on kv-read-hot",
     "kv / rpc-mix (none)"),
    ("hatkv.server_requests_per_op", "req/op", "lower",
     "sim_kops on kv-read-hot", "kv / rpc-mix (none)"),
    ("hatkv.cache.invalidations_per_kop", "1/kop", "lower",
     "sim_p99_us on kv-write-batch", "kv / rpc-mix (none)"),
    ("hatkv.lease.write_stalls_per_kop", "1/kop", "lower",
     "sim_p99_us on kv-write-batch", "kv / rpc-mix (none)"),
    ("hatkv.handler.mean_us", "sim_us", "lower",
     "sim_p99_us on kv-write-batch", "kv / rpc-mix (none)"),
    ("hatkv.host_share", "frac", "lower", "sim_kops on kv-read-hot",
     "kv / rpc-mix (none)"),
    ("lmdb.backend.mean_us", "sim_us", "lower",
     "sim_mean_us and host_ops_per_s on kv-write-batch",
     "kv-write-batch / kv-read-hot"),
    ("lmdb.host_share", "frac", "lower",
     "host_ops_per_s on kv-write-batch", "kv-write-batch / kv-read-hot"),
    ("idl.compile_s", "s", "lower", "setup_s", "all"),
    ("obs.trace_overhead_pct", "%", "lower",
     "none: the observer effect on sim_mean_us", "all"),
    ("obs.spans_per_op", "spans/op", "lower", "none: the observer effect",
     "all"),
    ("obs.sample_rate", "frac", "higher",
     "none: head-sampling rate of the traced run", "all"),
    ("obs.spans_kept", "count", "higher",
     "none: spans the traced run's collector holds", "all"),
    ("obs.host_share", "frac", "lower", "none: the observer effect", "all"),
    ("bench.latency_samples", "count", "higher",
     "samples behind sim_mean_us and sim_p99_us (one sub-seed)", "all"),
    ("bench.latency_p50_us", "sim_us", "lower",
     "sim_mean_us (bimodal on kv-read-hot: cache hit or server trip)",
     "all"),
    ("ycsb.get.p99_us", "sim_us", "lower", "sim_p99_us", "kv / rpc-mix"),
    ("ycsb.put.p99_us", "sim_us", "lower", "sim_p99_us", "kv / rpc-mix"),
    ("ycsb.multi_get.p99_us", "sim_us", "lower", "sim_p99_us",
     "kv-write-batch / kv-read-hot"),
    ("ycsb.multi_put.p99_us", "sim_us", "lower", "sim_p99_us",
     "kv-write-batch / kv-read-hot"),
)

#: Repo packages whose host self time the traced run attributes.
PACKAGES = ("sim", "verbs", "netfab", "protocols", "thrift", "core",
            "hatkv", "lmdb", "idl", "obs")

#: Head-sampling rate of the traced run's collector: bounds span memory
#: while keeping hundreds of samples behind every stage p50.
TRACE_SAMPLE_RATE = 0.25
