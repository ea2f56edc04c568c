"""The repo benchmark: one workload on both clocks, every metric by name.

    python3 perfbench/run.py --workload kv-read-hot --seed 1 --seconds 35 \\
        --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), one at a time.

``--trace 0`` runs the SUB_SEEDS repetitions the seed derives, then
repeats them in order while ``--seconds`` lasts.  Host-clock metrics are
medians over every repetition, scaled to the reference host's speed by
the calibration loop each repetition times; sim-clock metrics pool the
SUB_SEEDS distinct ones, so they are exact for a seed.  A repeated
repetition must reproduce its first run bit for bit.

``--trace 1`` runs sub-seed 0 twice: once with a metrics registry (per-op
counts) and once traced and profiled (stage times, host shares, the
observer effect).

Every repetition's replies are checked; a failed check exits non-zero
without printing a result.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: distinct workload seeds behind every sim-clock figure of one run
SUB_SEEDS = 5
#: nominal seconds of rep.calibrate() (about its time on the 2-vCPU
#: 2.1 GHz Xeon VM the benchmark was sized on): host-clock metrics are
#: scaled to a host where the loop takes exactly this long
CAL_REF_S = 0.2
#: a run starts no repetition it expects to end past this many seconds,
#: and kills one still running at DEADLINE_S
STOP_S = 120.0
DEADLINE_S = 170.0


class CheckFailed(Exception):
    """The program produced a wrong or unaccounted result."""


def sub_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def spawn(workload: str, seed: int, mode: str, hashseed: int,
          deadline: float) -> dict:
    """One checked repetition in a fresh interpreter, killed if it is
    still running at ``deadline`` (a time.monotonic() value)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
         workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise CheckFailed(f"{mode} repetition (seed {seed}) exited "
                          f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    check(rep, workload, seed, mode)
    return rep


def check(rep: dict, workload: str, seed: int, mode: str) -> None:
    c = rep["checks"]
    where = f"{workload} seed {seed} ({mode})"
    problems = []
    if c["attempted"] != c["completed"] + c["failed"]:
        problems.append(f"attempted {c['attempted']} != completed "
                        f"{c['completed']} + failed {c['failed']}")
    for key in ("missing", "corrupt", "mismatched", "stale", "drops",
                "unattributed"):
        if c[key]:
            problems.append(f"{key} = {c[key]}")
    if c["stale"]:
        problems.append(f"first stale read: {c['first_stale']}")
    if "kv" in workload and not c["checked"]:
        problems.append("the stale-read oracle checked no read")
    if not c["completed"]:
        problems.append("no op completed in MEASUREMENT")
    retries = rep.get("layers", {}).get("core.retries_per_kop", 0)
    if retries:
        problems.append(f"core.retries_per_kop = {retries}")
    if problems:
        raise CheckFailed(f"{where}: " + "; ".join(problems))


def latency_us(samples, p: float) -> float:
    """Nearest-rank percentile of simulated seconds, in microseconds."""
    from repro.bench import percentile
    return percentile(samples, p) * 1e6


def sim_metrics(reps) -> dict:
    lat = [x for r in reps for x in r["sim"]["latencies"]]
    if len(lat) * 0.01 < 10:
        raise CheckFailed(f"{len(lat)} latency samples: fewer than 10 "
                          "beyond p99")
    ops = sum(r["sim"]["ops"] for r in reps)
    sim_s = sum(r["sim"]["sim_s"] for r in reps)
    return {"sim_kops": ops / sim_s / 1e3,
            "sim_mean_us": statistics.fmean(lat) * 1e6,
            "sim_p99_us": latency_us(lat, 99),
            "samples": len(lat)}


def run_untraced(workload: str, seed: int, seconds: float, start: float):
    reps = []
    while True:
        j = len(reps)
        reps.append(spawn(workload, sub_seed(seed, j % SUB_SEEDS), "plain",
                          hashseed=j, deadline=start + DEADLINE_S))
        elapsed = time.monotonic() - start
        if len(reps) >= SUB_SEEDS and \
                elapsed * (1 + 1 / len(reps)) > min(seconds, STOP_S):
            break
    first = reps[:SUB_SEEDS]
    for j, rep in enumerate(reps[SUB_SEEDS:], SUB_SEEDS):
        same = first[j % SUB_SEEDS]
        for key in ("sim", "checks", "digest"):
            if rep[key] != same[key]:
                raise CheckFailed(f"repetition {j} of sub-seed "
                                  f"{sub_seed(seed, j % SUB_SEEDS)} differs "
                                  f"from its first run in {key!r}")
    if len({r["digest"] for r in first}) != SUB_SEEDS:
        raise CheckFailed("two sub-seeds produced the same op stream")
    sim = sim_metrics(first)
    raw = {name: statistics.median(r["host"][name] for r in reps)
           for name in ("host_ops_per_s", "setup_s", "peak_rss_mb")}
    # This host's speed relative to the reference host, from the
    # calibration loop timed before and after every repetition: host
    # figures scaled by it move with the program, not with the box.
    speed = CAL_REF_S / statistics.median(
        c for r in reps for c in r["host"]["cal_s"])
    metrics = {"host_ops_per_s": raw["host_ops_per_s"] / speed,
               "setup_s": raw["setup_s"] * speed,
               "peak_rss_mb": raw["peak_rss_mb"]}
    metrics.update({k: v for k, v in sim.items() if k != "samples"})
    print(f"# {workload} seed {seed}: {len(reps)} repetitions over "
          f"{time.monotonic() - start:.1f} s; sim figures pool sub-seeds "
          f"{[sub_seed(seed, j) for j in range(SUB_SEEDS)]}, "
          f"{sim['samples']} latency samples")
    print(f"# host speed {speed:.4f} x reference; unscaled medians: "
          f"host_ops_per_s {raw['host_ops_per_s']:.6g}, "
          f"setup_s {raw['setup_s']:.6g}")
    for name in ("host_ops_per_s", "setup_s", "peak_rss_mb", "cal_s"):
        print(f"#   {name} per repetition: " + " ".join(
            f"{v:.4g}" for r in reps for v in
            (r["host"][name] if name == "cal_s" else [r["host"][name]])))
    return metrics, reps, END_TO_END


def run_traced(workload: str, seed: int, start: float):
    s0 = sub_seed(seed, 0)
    counted = spawn(workload, s0, "counted", hashseed=0,
                    deadline=start + DEADLINE_S)
    traced = spawn(workload, s0, "traced", hashseed=1,
                   deadline=start + DEADLINE_S)
    metrics = dict(counted["layers"])
    for name, value in traced["layers"].items():
        metrics.setdefault(name, value)
    base = statistics.fmean(counted["sim"]["latencies"])
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.fmean(traced["sim"]["latencies"]) - base) / base
    metrics["bench.latency_samples"] = len(counted["sim"]["latencies"])
    metrics["bench.latency_p50_us"] = latency_us(
        counted["sim"]["latencies"], 50)
    notes = {**counted["notes"], **traced["notes"]}
    print(f"# {workload} sub-seed {s0}: per-layer figures; counts from the "
          "registry-only run, stage times and host shares from the traced "
          "and profiled run")
    for name, note in sorted(notes.items()):
        print(f"#   {name}: {note}")
    return metrics, [counted, traced], PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps
    # the repetition it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for need in ("src/repro/__init__.py", "benchmarks/oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        if args.trace:
            metrics, reps, table = run_traced(args.workload, args.seed,
                                              start)
        else:
            metrics, reps, table = run_untraced(args.workload, args.seed,
                                                args.seconds, start)
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {}
    for row in table:
        name, unit = row[0], row[1]
        result[name] = {"value": metrics[name], "unit": unit}
        print(f"{name:36s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["checks"]["attempted"] for r in reps),
        "failed": sum(r["checks"]["failed"] for r in reps),
        "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
