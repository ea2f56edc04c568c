"""Host-RAM footprint of multi-slot direct-write windows.

The slot index is ``seq mod window``, so it rotates through every slot even
with one message in flight.  Registered memory is sized for the largest
message; resident memory must track only the bytes actually written.
"""

import random

from repro.protocols import ProtoConfig
from repro.protocols.base import HDR_BYTES

from tests.protocols.conftest import make_pair, reverse_handler

WINDOW = 64
MAX_MSG = 9216
SMALL = 200


def test_rotating_slots_stay_sparse(tb):
    cfg = ProtoConfig(window=WINDOW, max_msg=MAX_MSG)
    _server, connect = make_pair(tb, "direct_writeimm", cfg,
                                 handler=reverse_handler)
    rng = random.Random(7)
    payloads = [rng.randbytes(rng.randint(0, SMALL)) for _ in range(256)]

    def client():
        c = yield from connect()
        for p in payloads:
            assert (yield from c.call(p, resp_hint=len(p))) == p[::-1]

    tb.sim.run(tb.sim.process(client()))
    tb.sim.run()
    # Per side: outbound staging + inbound buffer, each one written header
    # plus at most SMALL payload bytes per slot; the notify receive ring
    # (one HDR_BYTES MR per pre-posted WQE) on top.
    bound = 2 * WINDOW * (HDR_BYTES + SMALL) + cfg.ring_slots * HDR_BYTES
    for node in (tb.node(0), tb.node(1)):
        mem = node.nic.mem
        assert mem.resident_bytes <= bound, (node.name, mem.resident_bytes)
        # ... while the whole window stays registered.
        assert node.nic.registered_bytes >= 2 * WINDOW * (HDR_BYTES + MAX_MSG)
