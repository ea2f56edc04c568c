"""Tests for the per-node memory model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.verbs import Memory, MemoryAccessError


def test_alloc_distinct_regions():
    mem = Memory()
    a = mem.alloc(100)
    b = mem.alloc(100)
    assert a != b
    mem.write(a, b"A" * 100)
    mem.write(b, b"B" * 100)
    assert mem.read(a, 100) == b"A" * 100
    assert mem.read(b, 100) == b"B" * 100


def test_address_zero_never_allocated():
    mem = Memory()
    assert mem.alloc(16) != 0


def test_auto_grow_beyond_initial():
    mem = Memory(initial=1024)
    addr = mem.alloc(1 << 20)
    mem.write(addr + (1 << 20) - 4, b"tail")
    assert mem.read(addr + (1 << 20) - 4, 4) == b"tail"


def test_out_of_bounds_read_rejected():
    mem = Memory()
    addr = mem.alloc(64)
    with pytest.raises(MemoryAccessError):
        mem.read(addr + 1 << 22, 10)


def test_zero_alloc_rejected():
    with pytest.raises(ValueError):
        Memory().alloc(0)


def test_free_accounting():
    mem = Memory()
    a = mem.alloc(100)
    mem.alloc(50)
    assert mem.live_bytes == 150
    mem.free(a)
    assert mem.live_bytes == 50
    with pytest.raises(MemoryAccessError):
        mem.free(a)


def test_fill():
    mem = Memory()
    a = mem.alloc(10)
    mem.fill(a, 10, 0xAB)
    assert mem.read(a, 10) == b"\xab" * 10


# -- the extent map against a flat reference ---------------------------------

_SEG = 256

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("w"), st.integers(0, _SEG),
                  st.binary(min_size=0, max_size=64)),
        st.tuples(st.just("r"), st.integers(0, _SEG),
                  st.integers(0, _SEG))),
    max_size=60)


def _extents(mem, addr):
    seg = mem._segs[addr]
    if seg.starts is None:
        return []
    return [(s, s + len(c)) for s, c in zip(seg.starts, seg.chunks)]


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_extent_map_matches_flat_reference(ops):
    """Sparse writes and reads agree byte for byte with a flat bytearray;
    extents stay sorted, disjoint and non-touching; ``resident_bytes``
    counts exactly the distinct bytes written."""
    mem = Memory()
    mem.alloc(64)                       # a neighbour that must stay zero
    addr = mem.alloc(_SEG)
    ref = bytearray(_SEG)
    written = set()
    for kind, off, arg in ops:
        if kind == "w":
            data = arg[:_SEG - off]
            mem.write(addr + off, data)
            ref[off:off + len(data)] = data
            written.update(range(off, off + len(data)))
        else:
            length = min(arg, _SEG - off)
            assert mem.read(addr + off, length) == bytes(ref[off:off + length])
        ext = _extents(mem, addr)
        for (_s0, e0), (s1, _e1) in zip(ext, ext[1:]):
            assert e0 < s1              # sorted, disjoint, not touching
        assert all(s < e for s, e in ext)
        assert mem.resident_bytes == len(written)
    assert mem.read(addr, _SEG) == bytes(ref)


def test_unwritten_segment_holds_no_extent_lists():
    mem = Memory()
    addr = mem.alloc(1 << 16)
    assert mem.read(addr + 100, 8) == bytes(8)
    mem.write(addr + 100, b"")
    assert mem._segs[addr].starts is None
    assert mem.resident_bytes == 0


def test_free_releases_resident_bytes():
    mem = Memory()
    a = mem.alloc(4096)
    b = mem.alloc(4096)
    mem.write(a + 10, b"x" * 100)
    mem.write(a + 1000, b"y" * 50)
    mem.write(b, b"z" * 7)
    assert mem.resident_bytes == 157
    mem.free(a)
    assert mem.resident_bytes == 7
