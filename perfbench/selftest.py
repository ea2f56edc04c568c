"""Determinism self-test of the benchmark; exits non-zero on any failure.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload it checks that

* the same seed under two PYTHONHASHSEED values gives bit-identical
  sim-clock figures, op stream and checks, with obs off and with a
  metrics registry (and the registry changes no sim-clock figure);
* two traced runs of one seed give identical per-layer figures, host-clock
  ones aside;
* another seed changes the op stream;

and that BENCHMARK.json states what spec.py defines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEADLINE_S, CheckFailed, spawn  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: per-layer figures read off the host clock, so free to differ
HOST_CLOCK = ("idl.compile_s",)


def benchmark_json() -> dict:
    """BENCHMARK.json as spec.py defines it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 35,
        "workloads": [{"name": name, "why": w["why"]}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


def sim_clock(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k not in HOST_CLOCK and not k.endswith(".host_share")}


def same(label: str, a, b) -> None:
    if a != b:
        raise CheckFailed(f"{label} differs between two runs")
    print(f"ok  {label}")


def check_workload(workload: str, seed: int) -> None:
    def rep(mode, hashseed, s=seed):
        return spawn(workload, s, mode, hashseed,
                     deadline=time.monotonic() + DEADLINE_S)

    plain = [rep("plain", 0), rep("plain", 1)]
    for key in ("sim", "checks", "digest"):
        same(f"{workload}: plain {key} across PYTHONHASHSEED", plain[0][key],
             plain[1][key])
    counted = [rep("counted", 0), rep("counted", 1)]
    same(f"{workload}: per-layer counts across PYTHONHASHSEED",
         sim_clock(counted[0]["layers"]), sim_clock(counted[1]["layers"]))
    same(f"{workload}: sim figures with and without a registry",
         plain[0]["sim"], counted[0]["sim"])
    traced = [rep("traced", 0), rep("traced", 1)]
    same(f"{workload}: traced per-layer figures",
         sim_clock(traced[0]["layers"]), sim_clock(traced[1]["layers"]))
    other = rep("plain", 0, seed + 1)
    if other["digest"] == plain[0]["digest"]:
        raise CheckFailed(f"{workload}: seeds {seed} and {seed + 1} issued "
                          "the same op stream")
    print(f"ok  {workload}: seed {seed + 1} changes the op stream")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            same("BENCHMARK.json against spec.py", json.load(f),
                 benchmark_json())
        for workload in [args.workload] if args.workload else WORKLOADS:
            check_workload(workload, args.seed)
    except (CheckFailed, OSError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
