"""Flat per-node virtual memory with a segment allocator.

Memory regions (MRs) are windows over this space; RDMA ops move real bytes
between nodes' Memory objects, so payload contents survive end-to-end --
which lets the upper layers (Thrift serialization, HatKV) be tested for
actual data correctness, not just timing.

Registered is not resident.  Each allocation is a *segment* that stores
only the byte ranges actually written, as a sorted extent map: disjoint,
non-touching ``bytearray`` chunks found by bisection.  Unwritten bytes read
as zeros, like freshly mapped pages.  A segment costs host RAM in
proportion to what was written into it, not to its size: a direct-write
window of 64 slots x 9 KiB that carries 200-byte messages holds about
64 x 232 bytes, however the slot index rotates.  A segment that was never
written holds no extent lists at all.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.verbs.errors import MemoryAccessError

__all__ = ["Memory"]

_ALIGN = 64  # cache-line alignment for all allocations


class _Segment:
    """One allocation's written bytes: ``chunks[i]`` holds the bytes at
    offsets ``[starts[i], starts[i] + len(chunks[i]))``.  Extents are
    sorted, disjoint and never touch (a write that touches merges)."""

    __slots__ = ("base", "size", "starts", "chunks")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self.starts: Optional[List[int]] = None    # allocated on first write
        self.chunks: Optional[List[bytearray]] = None

    def write(self, off: int, payload: bytes) -> int:
        """Store ``payload`` at ``off``; returns the resident-byte growth."""
        n = len(payload)
        if n == 0:
            return 0
        end = off + n
        starts, chunks = self.starts, self.chunks
        if starts is None or chunks is None:
            self.starts = [off]
            self.chunks = [bytearray(payload)]
            return n
        i = bisect.bisect_right(starts, off) - 1
        if i >= 0:
            s = starts[i]
            chunk = chunks[i]
            if end <= s + len(chunk):          # inside one extent
                chunk[off - s:end - s] = payload
                return 0
            if s + len(chunk) < off:           # ends before us: no merge
                i += 1
        else:
            i = 0
        # Extents i..j-1 overlap or touch [off, end]; their union with the
        # write is one contiguous range.
        j = bisect.bisect_right(starts, end)
        old = sum(len(c) for c in chunks[i:j])
        if i < j and starts[i] <= off:
            new_start = starts[i]
            buf = chunks[i]
            buf[off - new_start:end - new_start] = payload
        else:
            new_start = off
            buf = bytearray(payload)
        if j > i and chunks[j - 1] is not buf:
            last_s = starts[j - 1]
            last = chunks[j - 1]
            if last_s + len(last) > end:       # keep the last extent's tail
                buf += last[end - last_s:]
        starts[i:j] = [new_start]
        chunks[i:j] = [buf]
        return len(buf) - old

    def resident(self) -> int:
        return sum(len(c) for c in self.chunks) if self.chunks else 0

    def read(self, off: int, length: int) -> bytes:
        starts, chunks = self.starts, self.chunks
        if starts is None or chunks is None or length == 0:
            return bytes(length)
        end = off + length
        i = bisect.bisect_right(starts, off) - 1
        if i >= 0:
            s = starts[i]
            if end <= s + len(chunks[i]):      # inside one extent
                return bytes(chunks[i][off - s:end - s])
            if s + len(chunks[i]) <= off:
                i += 1
        else:
            i = 0
        out = bytearray(length)
        n_ext = len(starts)
        while i < n_ext and starts[i] < end:
            s = starts[i]
            c = chunks[i]
            lo = max(s, off)
            hi = min(s + len(c), end)
            out[lo - off:hi - off] = c[lo - s:hi - s]
            i += 1
        return bytes(out)


class Memory:
    """Sparse byte store; allocations are bounds-checked segments."""

    def __init__(self, initial: int = 0):
        # ``initial`` is accepted for API compatibility; segments are lazy.
        self._brk = _ALIGN  # keep address 0 invalid, like NULL
        self._bases: List[int] = []
        self._segs: Dict[int, _Segment] = {}
        self._resident = 0

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError(f"alloc size must be positive, got {size}")
        addr = self._brk
        self._brk += (size + _ALIGN - 1) // _ALIGN * _ALIGN
        seg = _Segment(addr, size)
        bisect.insort(self._bases, addr)
        self._segs[addr] = seg
        return addr

    def free(self, addr: int) -> None:
        if addr not in self._segs:
            raise MemoryAccessError(f"free of unallocated address {addr:#x}")
        self._resident -= self._segs.pop(addr).resident()
        self._bases.remove(addr)

    @property
    def live_bytes(self) -> int:
        return sum(s.size for s in self._segs.values())

    @property
    def resident_bytes(self) -> int:
        """Distinct bytes ever written to live segments -- a host-RAM gauge."""
        return self._resident

    def _segment(self, addr: int, length: int) -> _Segment:
        if length < 0:
            raise MemoryAccessError("negative access length")
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            seg = self._segs.get(self._bases[i])
            if seg is not None and addr + length <= seg.base + seg.size:
                return seg
        raise MemoryAccessError(
            f"access [{addr:#x}, {addr + length:#x}) outside any allocation")

    def write(self, addr: int, data: bytes) -> None:
        seg = self._segment(addr, len(data))
        self._resident += seg.write(addr - seg.base, data)

    def read(self, addr: int, length: int) -> bytes:
        seg = self._segment(addr, length)
        return seg.read(addr - seg.base, length)

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        seg = self._segment(addr, length)
        self._resident += seg.write(addr - seg.base, bytes([byte]) * length)
