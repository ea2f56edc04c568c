"""Golden trace of the GPS CPU model, pinned as exact floats.

The figures this repo reproduces are bit-identical run to run, so any change
to the simulation kernel must keep the order and the arithmetic of every
float operation in the CPU model.  This scenario -- seeded spinners,
staggered jobs and oversubscription on 1 and 4 cores -- records every job's
completion time and the node's ``busy_core_seconds`` as ``float.hex``
strings.  A reordered addition anywhere in ``_advance``/``_reschedule`` moves
at least one of them by an ulp and fails here, in well under a second.
"""

import random

import pytest

from repro.sim import CpuScheduler, Simulator


def scenario(cores: int, seed: int) -> dict:
    """Run the mixed workload; return exact completion times and busy time."""
    rng = random.Random(seed)
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    done: dict[int, float] = {}

    def job(i, start, works):
        yield sim.timeout(start)
        for w in works:
            yield cpu.compute(w)
        done[i] = sim.now

    def spinner(start, length):
        yield sim.timeout(start)
        tok = cpu.spin_begin()
        yield sim.timeout(length)
        cpu.spin_end(tok)

    n_jobs = 12 * cores
    for i in range(n_jobs):
        # Several jobs share a start instant, so same-time ties are covered.
        start = rng.choice([0.0, 1e-5, 2.5e-5]) if i % 4 == 0 \
            else rng.uniform(0.0, 2e-4)
        works = [rng.uniform(1e-7, 3e-5) for _ in range(rng.randint(1, 3))]
        sim.process(job(i, start, works))
    for _ in range(cores + 2):
        sim.process(spinner(rng.uniform(0.0, 1.5e-4), rng.uniform(1e-6, 8e-5)))
    sim.run()
    assert cpu.runnable == 0
    return {"done": [done[i].hex() for i in range(n_jobs)],
            "busy": cpu.busy_core_seconds.hex(),
            "end": sim.now.hex()}


# Recorded from the kernel before the cancellable-wake rewrite.
GOLDEN = {
    (1, 11): {
        "done": [
            "0x1.841723c21e0dbp-12", "0x1.db1d37fb0e964p-13", "0x1.79ed0bbca0307p-12",
            "0x1.762b5c343a4eap-12", "0x1.3abb85899c045p-12", "0x1.0076362aa5b38p-12",
            "0x1.4606bd5bc4578p-15", "0x1.0b64a041986e1p-12", "0x1.7a1f3633df230p-13",
            "0x1.5997fcf6f0f01p-12", "0x1.5930eea02f52bp-12", "0x1.645d81aad66acp-12",
        ],
        "busy": "0x1.72b3a7ab8eb41p-12",
        "end": "0x1.841723c21e0dbp-12",
    },
    (4, 42): {
        "done": [
            "0x1.e48274802c53cp-16", "0x1.455266aa915eep-14", "0x1.2705cf0bedbe9p-12",
            "0x1.4d2a659935da2p-16", "0x1.e484cbf194b50p-14", "0x1.6ac390dcf9781p-12",
            "0x1.43008ad7e83dcp-12", "0x1.dad92fc41e95dp-14", "0x1.143a637b4f4bep-16",
            "0x1.24c8b3f9bb73dp-12", "0x1.5eea89e562c88p-12", "0x1.7263d3e82408bp-12",
            "0x1.09bf32f3a050fp-15", "0x1.67c6fb256246cp-12", "0x1.583278a79575fp-12",
            "0x1.2a49b01ce7affp-12", "0x1.34c8d287aaea4p-12", "0x1.06b0e673d1774p-12",
            "0x1.3778ba9aaaf32p-12", "0x1.b394cc24a6107p-13", "0x1.88a5d52afa7e1p-16",
            "0x1.7fb2cd79d4955p-12", "0x1.27d3c110c9f81p-12", "0x1.5576a8cc4b48fp-12",
            "0x1.29a7462b75b90p-12", "0x1.8d79353e560efp-15", "0x1.304662b961920p-12",
            "0x1.83ba854667ecbp-12", "0x1.3722f185e2d46p-12", "0x1.bea0c3cff9438p-13",
            "0x1.04b0f38704ba9p-12", "0x1.a200acc4f0112p-13", "0x1.779f910090a81p-13",
            "0x1.6ab355b05b457p-12", "0x1.5105cf6664dbdp-12", "0x1.b68fecc03d799p-14",
            "0x1.376c75e9b1854p-15", "0x1.375d4ce34da9cp-12", "0x1.171d19e5a9516p-13",
            "0x1.5901c37a71e28p-12", "0x1.4ff48bcbb7843p-12", "0x1.67873093cfd0ap-12",
            "0x1.136d6cd50d9fap-15", "0x1.9c41c918bcce9p-15", "0x1.d98613a0bbfcbp-15",
            "0x1.07f071b42a0dbp-12", "0x1.0975b8aa7b5c9p-12", "0x1.68a0a01d7c42ap-12",
        ],
        "busy": "0x1.6ccf820f57d98p-10",
        "end": "0x1.83ba854667ecbp-12",
    },
}


@pytest.mark.parametrize("cores,seed", sorted(GOLDEN))
def test_cpu_model_trace_is_bit_identical(cores, seed):
    assert scenario(cores, seed) == GOLDEN[(cores, seed)]
