"""CRC32C primitives: known vectors, incremental use, combine, and the
vectorized many-region path the integrity layer leans on."""

import importlib
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.crc32c import crc32c, crc32c_combine, crc32c_many

kernel = importlib.import_module("repro.faults.crc32c")

CHECK_VECTOR = 0xE3069283  # iSCSI/ext4 Castagnoli check value


class TestSingleBuffer:
    def test_known_vector(self):
        assert crc32c(b"123456789") == CHECK_VECTOR

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_empty_continues_previous(self):
        assert crc32c(b"", crc=0xDEADBEEF) == 0xDEADBEEF

    def test_incremental_matches_whole(self):
        a, b = b"12345", b"6789"
        assert crc32c(b, crc=crc32c(a)) == CHECK_VECTOR

    def test_accepts_numpy_views(self):
        data = np.arange(1000, dtype=np.float32)
        assert crc32c(data) == crc32c(data.tobytes())

    def test_strip_parallel_path_matches_byte_loop(self):
        """A buffer hashed whole must equal a plain incremental CRC over
        1000-byte chunks."""
        rng = np.random.default_rng(3)
        big = rng.integers(0, 256, size=40_000, dtype=np.uint8).tobytes()
        incremental = 0
        for lo in range(0, len(big), 1000):  # chunks below the threshold
            incremental = crc32c(big[lo : lo + 1000], crc=incremental)
        assert crc32c(big) == incremental

    def test_single_byte_flip_always_detected(self):
        data = bytearray(b"the quick brown fox jumps over the lazy dog")
        ref = crc32c(bytes(data))
        for i in range(len(data)):
            data[i] ^= 0x40
            assert crc32c(bytes(data)) != ref
            data[i] ^= 0x40


class TestCombine:
    def test_combine_matches_concatenation(self):
        a, b = b"hello, ", b"world"
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

    def test_combine_with_empty_suffix(self):
        assert crc32c_combine(0x12345678, 0, 0) == 0x12345678

    def test_combine_various_lengths(self):
        rng = np.random.default_rng(7)
        blob = rng.integers(0, 256, size=700, dtype=np.uint8).tobytes()
        for cut in (1, 63, 64, 65, 255, 256, 511):
            a, b = blob[:cut], blob[cut:]
            assert crc32c_combine(
                crc32c(a), crc32c(b), len(b)
            ) == crc32c(blob)


class TestManyRegions:
    def test_matches_per_region_scalar(self):
        rng = np.random.default_rng(11)
        buf = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        starts = np.array([0, 10, 100, 300, 511])
        lengths = np.array([10, 90, 200, 211, 1])
        got = crc32c_many(buf, starts, lengths)
        want = [
            crc32c(buf[s : s + n])
            for s, n in zip(starts.tolist(), lengths.tolist())
        ]
        assert got.tolist() == want

    def test_zero_length_regions(self):
        got = crc32c_many(b"abcdef", [0, 3], [0, 0])
        assert got.tolist() == [0, 0]

    def test_init_seeds_split_coverage(self):
        """init= continues each region from a prior CRC — the exact shape
        the v3 group CRC uses (fl slice ++ record slice)."""
        buf = b"AAAABBBBCCCCDDDD"
        fl = [crc32c(buf[0:2]), crc32c(buf[4:6])]
        got = crc32c_many(buf, [8, 12], [4, 4], init=fl)
        assert got.tolist() == [
            crc32c(buf[0:2] + buf[8:12]),
            crc32c(buf[4:6] + buf[12:16]),
        ]

    def test_region_overrun_raises(self):
        with pytest.raises(ValueError, match="extends"):
            crc32c_many(b"abc", [0], [4])

    def test_negative_region_raises(self):
        with pytest.raises(ValueError, match="negative"):
            crc32c_many(b"abc", [0], [-1])

    def test_empty_region_list(self):
        assert crc32c_many(b"abc", [], []).size == 0


# -- differential test against a scalar byte loop ------------------------------

def _oracle_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
        table.append(crc)
    return table


_ORACLE_TABLE = _oracle_table()


def oracle_crc32c(data: bytes, crc: int = 0) -> int:
    """Textbook one-byte-at-a-time CRC32C, independent of the kernel."""
    reg = crc ^ 0xFFFFFFFF
    for byte in data:
        reg = _ORACLE_TABLE[(reg ^ byte) & 0xFF] ^ (reg >> 8)
    return reg ^ 0xFFFFFFFF


def _as_input(raw: bytes, kind: str):
    if kind == "bytes":
        return raw
    if kind == "memoryview":
        return memoryview(bytearray(raw))
    # strided ndarray: every other element of a twice-as-long array
    wide = np.zeros(2 * len(raw), dtype=np.uint8)
    wide[::2] = np.frombuffer(raw, dtype=np.uint8)
    return wide[::2]


@st.composite
def region_sets(draw):
    """A buffer plus (starts, lengths, init) regions over it: either a
    tiling of a contiguous span or free regions that may overlap, come
    unsorted, or be empty."""
    n = draw(st.integers(0, 3000))
    raw = draw(st.binary(min_size=n, max_size=n))
    m = draw(st.integers(0, 12))
    if draw(st.booleans()) and n:
        lo = draw(st.integers(0, n))
        cuts = sorted(draw(st.lists(st.integers(lo, n), min_size=m + 1,
                                    max_size=m + 1)))
        starts = cuts[:-1]
        lengths = [b - a for a, b in zip(cuts[:-1], cuts[1:])]
    else:
        starts = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
        lengths = [draw(st.integers(0, n - s)) for s in starts]
    init = draw(st.none() | st.lists(st.integers(0, 0xFFFFFFFF),
                                     min_size=m, max_size=m))
    return raw, starts, lengths, init


class TestDifferential:
    @given(
        case=region_sets(),
        kind=st.sampled_from(["bytes", "memoryview", "ndarray"]),
        slab=st.sampled_from([256, 512, 1024, kernel._SLAB]),
    )
    @settings(max_examples=300, deadline=None)
    def test_many_matches_oracle(self, case, kind, slab):
        """Small slabs put regions across slab edges and make regions
        longer than one slab without megabyte buffers."""
        raw, starts, lengths, init = case
        with mock.patch.object(kernel, "_SLAB", slab):
            got = crc32c_many(_as_input(raw, kind), starts, lengths,
                              init=init)
        seeds = init if init is not None else [0] * len(starts)
        want = [
            oracle_crc32c(raw[s : s + n], c)
            for s, n, c in zip(starts, lengths, seeds)
        ]
        assert got.tolist() == want

    @given(
        raw=st.binary(max_size=2000),
        crc=st.integers(0, 0xFFFFFFFF),
        kind=st.sampled_from(["bytes", "memoryview", "ndarray"]),
        slab=st.sampled_from([256, 768, kernel._SLAB]),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_matches_oracle(self, raw, crc, kind, slab):
        with mock.patch.object(kernel, "_SLAB", slab):
            assert crc32c(_as_input(raw, kind), crc) == oracle_crc32c(raw, crc)

    def test_regions_across_real_slab_edges(self):
        """At the shipped slab size: one region longer than a slab, and
        tiled and gathered regions that straddle both slab edges."""
        slab = kernel._SLAB
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, 2 * slab + 777, dtype=np.uint8).tobytes()
        starts = [0, slab - 300, slab + 5, 2 * slab - 1]
        lengths = [slab - 300, slab + 305, 0, 778]  # first three tile
        init = [0, 0x1234ABCD, 7, 0xFFFFFFFF]
        want = [oracle_crc32c(raw[s : s + n], c)
                for s, n, c in zip(starts, lengths, init)]
        assert crc32c_many(raw, starts, lengths, init=init).tolist() == want
        order = [3, 1, 0, 2]  # unsorted: the gather path
        got = crc32c_many(raw, [starts[i] for i in order],
                          [lengths[i] for i in order],
                          init=[init[i] for i in order])
        assert got.tolist() == [want[i] for i in order]
        assert crc32c(raw) == oracle_crc32c(raw)


class TestConcurrentFirstUse:
    def test_threads_racing_to_build_tables(self):
        """The shard pool hashes from several threads; threads that find
        the lazy tables unbuilt, and need different numbers of powers,
        must all read complete tables."""
        rng = np.random.default_rng(13)
        raw = rng.integers(0, 256, 1 << 15, dtype=np.uint8).tobytes()
        lengths = [(1 << j) + 1 for j in range(15)] * 2
        want = [oracle_crc32c(raw[:n]) for n in lengths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                with mock.patch.object(kernel, "_POWERS",
                                       kernel._POWERS[:1]), \
                        mock.patch.object(kernel, "_SHIFT_TABLE", None), \
                        ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(crc32c_many, raw, [0], [n])
                               for n in lengths]
                    got = [int(f.result(timeout=60)[0]) for f in futures]
                assert got == want
        finally:
            sys.setswitchinterval(interval)
