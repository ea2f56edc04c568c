"""Run one repetition of one workload and print its figures as JSON.

    python3 perfbench/rep.py --workload kv-read-hot --seed 1 --mode plain

``run.py`` starts one of these per repetition, so every repetition has a
fresh interpreter: the obs registry and trace collector are process-wide,
and ``ru_maxrss`` is per process.
"""

import argparse
import heapq
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def calibrate(n: int = 120_000) -> float:
    """Host seconds for fixed standard-library work shaped like an event
    loop (heap, generators, dicts, small buffers).  It shares no code with
    the program, so it tracks how fast this host runs Python right now."""
    t0 = time.perf_counter()

    def proc():
        buf = bytearray(256)
        while True:
            t = yield
            buf[t & 255] ^= 1

    procs = [proc() for _ in range(256)]
    for p in procs:
        next(p)
    heap, table, blobs = [], {}, []
    for k in range(n):
        heapq.heappush(heap, ((k * 2654435761) % 1_000_003, k, k & 255))
        if len(heap) > 512:
            t, seq, i = heapq.heappop(heap)
            procs[i].send(t)
            table[t & 8191] = (t, seq, i)
            if not k & 63:
                blobs.append(bytes(4096))
                if len(blobs) > 256:
                    blobs.pop(0)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", default="plain")
    args = ap.parse_args()
    cal_before = calibrate()
    t_start = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, HERE]
    from workloads import run_rep
    out = run_rep(args.workload, args.seed, args.mode, t_start)
    out["host"]["cal_s"] = [cal_before, calibrate()]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
