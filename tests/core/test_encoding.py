"""Tests for fixed-length encoding: the paper's step 3 and Fig 8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import CERESZ_HEADER_BYTES, SZP_HEADER_BYTES
from repro.errors import CompressionError, FormatError
from repro.core.encoding import (
    block_fixed_lengths,
    decode_blocks,
    encode_blocks,
    index_record_offsets,
    pack_block_index,
    pack_records,
    record_sizes,
    scan_record_offsets,
    transpose8,
    unpack_block_index,
)


class TestFixedLengths:
    def test_matches_bit_length(self):
        blocks = np.array([[0, 1, 2, 3, 8, -8, 5, 7]], dtype=np.int64)
        assert block_fixed_lengths(blocks)[0] == 4  # max |.| = 8 -> 4 bits

    def test_paper_fig5_example(self):
        """Fig 5(b): max abs 8 -> fixed length 4."""
        residuals = np.array([[4, 2, -3, 0, 1, 8, -6, 2]], dtype=np.int64)
        assert block_fixed_lengths(residuals)[0] == 4

    def test_zero_block_length_zero(self):
        assert block_fixed_lengths(np.zeros((1, 8), dtype=np.int64))[0] == 0

    def test_exact_powers_of_two(self):
        for k in range(1, 45):
            blocks = np.array([[2**k] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(blocks)[0] == k + 1, k
            blocks = np.array([[2**k - 1] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(blocks)[0] == k

    def test_per_block_independence(self):
        blocks = np.array([[1] * 8, [255] * 8, [0] * 8], dtype=np.int64)
        assert block_fixed_lengths(blocks).tolist() == [1, 8, 0]

    def test_float64_log2_boundaries(self):
        """Regression: the old float64-log2 width scan rounded across
        binades — ``log2(2**k - 1)`` for k >= 49 evaluates to exactly
        ``k`` in float64, inflating the width by one bit. The exact
        integer bit-length scan must hold at every boundary up to and
        beyond the 2**53 float64 integer precision cliff."""
        for k in range(45, 63):
            lo = np.array([[2**k - 1] + [0] * 7], dtype=np.int64)
            assert block_fixed_lengths(lo)[0] == k, k
            if k < 62:
                hi = np.array([[2**k] + [0] * 7], dtype=np.int64)
                assert block_fixed_lengths(hi)[0] == k + 1, k
        cliff = np.array([[2**53 + 1] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(cliff)[0] == 54
        imax = np.array([[2**63 - 1] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(imax)[0] == 63

    def test_int64_min_rejected_not_wrapped(self):
        """Regression: |int64 min| wraps to itself under int64 abs; the
        width scan must report 64 bits (via the uint64 view) and the
        encoder must refuse the block rather than emit a wrapped record."""
        blocks = np.array([[-(2**63)] + [0] * 7], dtype=np.int64)
        assert block_fixed_lengths(blocks)[0] == 64
        with pytest.raises(FormatError):
            encode_blocks(blocks)

    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 10), st.integers(8, 8)),
            elements=st.integers(-(2**45), 2**45),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_python_bit_length(self, blocks):
        fls = block_fixed_lengths(blocks)
        for row, fl in zip(blocks, fls):
            assert fl == int(np.max(np.abs(row))).bit_length()


class TestRecordSizes:
    def test_zero_block_is_header_only(self):
        sizes = record_sizes(np.array([0]), 32, CERESZ_HEADER_BYTES)
        assert sizes[0] == 4

    def test_nonzero_block_layout(self):
        # header + signs (L/8) + fl * L/8
        sizes = record_sizes(np.array([5]), 32, CERESZ_HEADER_BYTES)
        assert sizes[0] == 4 + 4 + 5 * 4

    def test_szp_header_width(self):
        sizes = record_sizes(np.array([0, 3]), 32, SZP_HEADER_BYTES)
        assert sizes.tolist() == [1, 1 + 4 + 12]

    def test_format_ratio_caps(self):
        """The 31.99x / 127.94x ceilings of the paper's Table 5."""
        raw = 32 * 4
        assert raw / record_sizes(np.array([0]), 32, 4)[0] == 32.0
        assert raw / record_sizes(np.array([0]), 32, 1)[0] == 128.0


class TestEncodeDecode:
    def test_paper_fig5_byte_count(self):
        """Fig 5: 8 floats (32 B) -> 6 B with a 1-byte header.

        Header 1 + signs 1 + 4 bits x 8 elements = 4 payload bytes.
        """
        residuals = np.array([[4, 2, -3, 0, 1, 8, -6, 2]], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        assert len(stream) == 6

    def test_round_trip_basic(self):
        residuals = np.array(
            [[4, 2, -3, 0, 1, 8, -6, 2], [0] * 8, [-1] * 8], dtype=np.int64
        )
        stream = encode_blocks(residuals)
        out = decode_blocks(stream, 3, 8)
        assert np.array_equal(out, residuals)

    def test_round_trip_szp_header(self):
        residuals = np.array([[100, -100] * 16], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        out = decode_blocks(stream, 1, 32, SZP_HEADER_BYTES)
        assert np.array_equal(out, residuals)

    def test_zero_blocks_store_header_only(self):
        residuals = np.zeros((10, 32), dtype=np.int64)
        stream = encode_blocks(residuals)
        assert len(stream) == 10 * 4

    def test_mixed_fixed_lengths(self):
        rng = np.random.default_rng(0)
        residuals = np.concatenate(
            [
                rng.integers(-3, 4, size=(5, 32)),
                rng.integers(-1000, 1001, size=(5, 32)),
                np.zeros((5, 32), dtype=np.int64),
            ]
        )
        stream = encode_blocks(residuals)
        assert np.array_equal(decode_blocks(stream, 15, 32), residuals)

    def test_large_magnitudes(self):
        residuals = np.array([[2**44, -(2**44)] + [0] * 30], dtype=np.int64)
        stream = encode_blocks(residuals)
        assert np.array_equal(decode_blocks(stream, 1, 32), residuals)

    def test_bit_shuffle_layout(self):
        """Byte group k holds bit k of all elements (paper Fig 8)."""
        # One block of 8 where only element 3 is nonzero, value 1 (fl=1):
        residuals = np.zeros((1, 8), dtype=np.int64)
        residuals[0, 3] = 1
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        # [header=1][signs=0][bit0 byte: element 3 -> bit 3 = 0x08]
        assert stream == bytes([1, 0, 0x08])

    def test_sign_bit_layout(self):
        residuals = np.zeros((1, 8), dtype=np.int64)
        residuals[0, 5] = -1
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        # [header=1][signs: bit 5 -> 0x20][payload bit0: element 5 -> 0x20]
        assert stream == bytes([1, 0x20, 0x20])

    def test_empty_block_array(self):
        residuals = np.zeros((0, 32), dtype=np.int64)
        assert encode_blocks(residuals) == b""
        assert decode_blocks(b"", 0, 32).shape == (0, 32)

    def test_rejects_non_integer(self):
        with pytest.raises(CompressionError):
            encode_blocks(np.zeros((1, 8), dtype=np.float32))

    def test_rejects_1d(self):
        with pytest.raises(CompressionError):
            encode_blocks(np.zeros(8, dtype=np.int64))

    def test_rejects_bad_header_width(self):
        with pytest.raises(FormatError):
            encode_blocks(np.zeros((1, 8), dtype=np.int64), header_bytes=2)

    def test_szp_header_overflow(self):
        # fl 256 cannot fit a single byte... but fl > 63 is rejected first.
        residuals = np.array([[2**60] + [0] * 7], dtype=np.int64)
        stream = encode_blocks(residuals)  # 4-byte header handles fl=61
        assert np.array_equal(decode_blocks(stream, 1, 8), residuals)

    @given(
        blocks=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 12), st.sampled_from([8, 16, 32])),
            elements=st.integers(-(2**45), 2**45),
        ),
        header=st.sampled_from([1, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, blocks, header):
        stream = encode_blocks(blocks, header)
        out = decode_blocks(
            stream, blocks.shape[0], blocks.shape[1], header
        )
        assert np.array_equal(out, blocks)


class TestScanAndErrors:
    def test_scan_offsets(self):
        residuals = np.array([[0] * 8, [1] * 8, [0] * 8], dtype=np.int64)
        stream = encode_blocks(residuals, SZP_HEADER_BYTES)
        offsets, fls = scan_record_offsets(stream, 3, 8, SZP_HEADER_BYTES)
        assert offsets.tolist() == [0, 1, 4]
        assert fls.tolist() == [0, 1, 0]

    def test_truncated_header_raises(self):
        with pytest.raises(FormatError, match="truncated|cannot hold"):
            decode_blocks(b"\x01", 1, 8)  # CereSZ header needs 4 bytes

    def test_block_count_beyond_stream_raises(self):
        """The pre-allocation guard against corrupt block counts."""
        with pytest.raises(FormatError, match="cannot hold"):
            decode_blocks(b"\x00" * 16, 10**9, 8)

    def test_truncated_payload_raises(self):
        residuals = np.array([[7] * 8], dtype=np.int64)
        stream = encode_blocks(residuals)
        with pytest.raises(FormatError, match="truncated"):
            decode_blocks(stream[:-1], 1, 8)

    def test_corrupt_fixed_length_raises(self):
        bad = bytes([200, 0, 0, 0])  # fl = 200 > 63
        with pytest.raises(FormatError, match="invalid fixed length"):
            decode_blocks(bad, 1, 8)

    def test_missing_second_block_raises(self):
        residuals = np.array([[1] * 8], dtype=np.int64)
        stream = encode_blocks(residuals)
        with pytest.raises(FormatError):
            decode_blocks(stream, 2, 8)

    def test_start_offset(self):
        residuals = np.array([[3] * 8], dtype=np.int64)
        stream = b"\xde\xad" + encode_blocks(residuals)
        out = decode_blocks(stream, 1, 8, start=2)
        assert np.array_equal(out, residuals)


class TestPackRecords:
    """The fused path's packing core against the encode_blocks oracle."""

    def test_matches_encode_blocks_mixed_lengths(self):
        rng = np.random.default_rng(11)
        residuals = rng.integers(-(2**20), 2**20, size=(16, 32), dtype=np.int64)
        residuals[3] = 0  # zero block in the middle
        residuals[15] = 0  # and at the tail
        mags = np.abs(residuals).astype(np.uint64)
        negs = residuals < 0
        fl = block_fixed_lengths(residuals)
        packed = pack_records(mags, negs, fl)
        assert packed.tobytes() == encode_blocks(residuals)

    def test_negative_fixed_length_rejected(self):
        with pytest.raises(FormatError, match="negative fixed length"):
            pack_records(
                np.zeros((1, 8), dtype=np.uint64),
                np.zeros((1, 8), dtype=bool),
                np.array([-1], dtype=np.int64),
            )

    def test_overwide_fixed_length_rejected(self):
        with pytest.raises(FormatError, match="exceeds 63"):
            pack_records(
                np.zeros((1, 8), dtype=np.uint64),
                np.zeros((1, 8), dtype=bool),
                np.array([64], dtype=np.int64),
            )


class TestWordShuffleKernel:
    """``pack_records`` and ``decode_blocks`` share the uint64 8x8 bit
    transpose; hold both against the shift-and-mask ``encode_blocks``
    oracle at every lane edge, block size and header width."""

    LANE_EDGE_FLS = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 56, 63)

    @staticmethod
    def _blocks(rng, fls, L):
        """Residual blocks whose fixed lengths are exactly ``fls``."""
        out = np.zeros((len(fls), L), dtype=np.int64)
        for i, f in enumerate(fls):
            if f:
                mags = rng.integers(0, 2 ** (f - 1), size=L, dtype=np.uint64)
                mags[rng.integers(L)] |= np.uint64(1 << (f - 1))
                signs = rng.choice(np.array([-1, 1]), size=L)
                out[i] = mags.astype(np.int64) * signs
        return out

    def _check(self, residuals, header):
        num_blocks, L = residuals.shape
        fl = block_fixed_lengths(residuals)
        packed = pack_records(
            np.abs(residuals).view(np.uint64), residuals < 0, fl, header
        )
        stream = encode_blocks(residuals, header)
        assert packed.tobytes() == stream
        out = decode_blocks(stream, num_blocks, L, header)
        assert np.array_equal(out, residuals)

    @pytest.mark.parametrize("L", [8, 16, 24, 32, 64, 256])
    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    def test_lane_edges(self, L, header):
        rng = np.random.default_rng(L * 10 + header)
        fls = self.LANE_EDGE_FLS
        residuals = self._blocks(rng, fls, L)
        assert block_fixed_lengths(residuals).tolist() == list(fls)
        self._check(residuals, header)
        # Each fixed length alone: one lane count per call.
        for f in fls:
            self._check(self._blocks(rng, [f, f, 0], L), header)

    @pytest.mark.parametrize("L", [8, 32, 256])
    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    def test_mostly_zero_chunk(self, L, header):
        """97 % zero blocks, the smooth-field regime: the zero-block skip
        must still interleave every header-only record in order."""
        rng = np.random.default_rng(L + header)
        fls = np.zeros(400, dtype=np.int64)
        live = rng.choice(400, size=12, replace=False)
        fls[live] = rng.choice(self.LANE_EDGE_FLS[1:], size=12)
        self._check(self._blocks(rng, fls.tolist(), L), header)

    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    def test_all_zero_and_empty(self, header):
        self._check(np.zeros((5, 32), dtype=np.int64), header)
        empty = pack_records(
            np.zeros((0, 32), dtype=np.uint64),
            np.zeros((0, 32), dtype=bool),
            np.zeros(0, dtype=np.int64),
            header,
        )
        assert empty.size == 0
        assert encode_blocks(np.zeros((0, 32), dtype=np.int64), header) == b""
        assert decode_blocks(b"", 0, 32, header).shape == (0, 32)

    @given(
        L=st.sampled_from([8, 16, 24, 32, 64, 256]),
        header=st.sampled_from([SZP_HEADER_BYTES, CERESZ_HEADER_BYTES]),
        fls=st.lists(st.integers(0, 63), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_lengths_property(self, L, header, fls, seed):
        self._check(self._blocks(np.random.default_rng(seed), fls, L), header)

    def test_transpose8_is_an_involution(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        back = transpose8(transpose8(words.copy()))
        assert np.array_equal(back, words)
        # Bit i of byte j moves to bit j of byte i.
        one = np.array([1 << (8 * 2 + 5)], dtype=np.uint64)
        assert int(transpose8(one)[0]) == 1 << (8 * 5 + 2)


class TestBlockIndex:
    """The container-v2 fl table and its vectorized offset computation."""

    def _stream_and_fls(self, rng, blocks=40, L=32):
        residuals = rng.integers(-500, 500, size=(blocks, L)).astype(np.int64)
        residuals[::3] = 0  # mix in zero blocks
        fls = block_fixed_lengths(residuals)
        return encode_blocks(residuals), fls, residuals

    def test_pack_unpack_round_trip(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        table = pack_block_index(fls)
        assert len(table) == len(fls)
        out, pos = unpack_block_index(table, len(fls))
        assert pos == len(table)
        assert np.array_equal(out, fls)

    def test_unpack_with_start(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        buf = b"\xab\xcd" + pack_block_index(fls)
        out, pos = unpack_block_index(buf, len(fls), 2)
        assert pos == 2 + len(fls)
        assert np.array_equal(out, fls)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            pack_block_index(np.array([64], dtype=np.int64))
        with pytest.raises(FormatError):
            pack_block_index(np.array([-1], dtype=np.int64))

    def test_unpack_rejects_truncated_table(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        with pytest.raises(FormatError, match="truncated"):
            unpack_block_index(pack_block_index(fls)[:-1], len(fls))

    def test_unpack_rejects_invalid_fl(self):
        with pytest.raises(FormatError, match="fixed length"):
            unpack_block_index(bytes([64]), 1)

    def test_index_offsets_match_scan(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        scanned, scanned_fls = scan_record_offsets(stream, len(fls), 32)
        indexed = index_record_offsets(fls, 32, stream_size=len(stream))
        assert np.array_equal(indexed, scanned)
        assert np.array_equal(scanned_fls, fls)

    def test_index_offsets_respect_start(self, rng):
        _, fls, _ = self._stream_and_fls(rng)
        base = index_record_offsets(fls, 32)
        shifted = index_record_offsets(fls, 32, start=7)
        assert np.array_equal(shifted, base + 7)

    def test_index_offsets_reject_overrun(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        with pytest.raises(FormatError, match="outside|truncated"):
            index_record_offsets(fls, 32, stream_size=len(stream) - 1)

    def test_decode_with_explicit_layout(self, rng):
        stream, fls, residuals = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32, stream_size=len(stream))
        out = decode_blocks(
            stream, len(fls), 32, offsets=offsets, fls=fls
        )
        assert np.array_equal(out, residuals)

    def test_decode_rejects_layout_shape_mismatch(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32)
        with pytest.raises(FormatError, match="mismatch"):
            decode_blocks(
                stream, len(fls), 32, offsets=offsets[:-1], fls=fls
            )

    def test_decode_rejects_layout_out_of_bounds(self, rng):
        stream, fls, _ = self._stream_and_fls(rng)
        offsets = index_record_offsets(fls, 32) + len(stream)
        with pytest.raises(FormatError, match="outside"):
            decode_blocks(stream, len(fls), 32, offsets=offsets, fls=fls)


def _scan_oracle(stream, num_blocks, block_size, header_bytes, start):
    """The scalar header walk ``scan_record_offsets`` replaced: one NumPy
    scalar read per header byte. Kept as the walk's oracle."""
    buf = np.frombuffer(stream, dtype=np.uint8)
    if num_blocks * header_bytes > max(0, buf.size - start):
        raise FormatError(
            f"stream of {buf.size} bytes cannot hold {num_blocks} block "
            f"records"
        )
    sign_bytes = block_size // 8
    offsets = np.empty(num_blocks, dtype=np.int64)
    fls = np.empty(num_blocks, dtype=np.int64)
    pos = start
    n = buf.size
    for i in range(num_blocks):
        if pos + header_bytes > n:
            raise FormatError(
                f"stream truncated in header of block {i} "
                f"(offset {pos}, stream {n} bytes)"
            )
        f = 0
        for byte in range(header_bytes):
            f |= int(buf[pos + byte]) << (8 * byte)
        if f > 63:
            raise FormatError(f"block {i}: invalid fixed length {f}")
        offsets[i] = pos
        fls[i] = f
        pos += header_bytes
        if f:
            pos += sign_bytes + f * sign_bytes
    if pos > n:
        raise FormatError(
            f"stream truncated in payload of final block (need {pos}, have {n})"
        )
    return offsets, fls


def _outcome(fn, *args):
    """``("ok", offsets, fls)`` or ``("error", message)``."""
    try:
        offsets, fls = fn(*args)
    except FormatError as exc:
        return ("error", str(exc))
    return ("ok", offsets.dtype, offsets.tolist(), fls.dtype, fls.tolist())


class TestRecordWalkOracle:
    """``scan_record_offsets`` against the scalar walk it replaced: the
    same offsets and fixed lengths on every layout, and the same
    ``FormatError`` message (block index included) on every truncation
    and every bad header."""

    @staticmethod
    def _stream(fls, L, header, start, seed=0):
        """``start`` junk bytes, then records with fixed lengths ``fls``.

        Headers and sizes are all the walk reads, so the payload bytes are
        random rather than a real encoding."""
        rng = np.random.default_rng(seed)
        parts = [rng.integers(0, 256, size=start, dtype=np.uint8).tobytes()]
        for f in fls:
            parts.append(int(f).to_bytes(header, "little"))
            if f:
                body = (1 + f) * (L // 8)
                parts.append(rng.integers(0, 256, size=body, dtype=np.uint8).tobytes())
        return b"".join(parts)

    def _same(self, stream, nb, L, header, start):
        want = _outcome(_scan_oracle, stream, nb, L, header, start)
        got = _outcome(scan_record_offsets, stream, nb, L, header, start)
        assert got == want
        return want

    @given(
        fls=st.lists(st.integers(0, 63), max_size=24),
        L=st.sampled_from([8, 16, 24, 32, 64, 256]),
        header=st.sampled_from([SZP_HEADER_BYTES, CERESZ_HEADER_BYTES]),
        start=st.integers(0, 9),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_walk(self, fls, L, header, start, data):
        stream = self._stream(fls, L, header, start)
        nb = len(fls)
        assert self._same(stream, nb, L, header, start)[0] == "ok"
        offsets, _ = _scan_oracle(stream, nb, L, header, start)

        # Truncations: inside every header, at and around every record
        # boundary, and one drawn anywhere.
        cuts = {data.draw(st.integers(0, len(stream)))}
        for b in [*offsets.tolist(), len(stream)]:
            cuts.update(range(b - 1, b + header + 1))
        for cut in sorted(c for c in cuts if 0 <= c < len(stream)):
            assert self._same(stream[:cut], nb, L, header, start)[0] == "error"
        # One block too many reads past the end.
        assert self._same(stream, nb + 1, L, header, start)[0] == "error"

        if nb:
            i = data.draw(st.integers(0, nb - 1))
            bad = [64, 200] + ([2**24, 2**24 + 5, 2**32 - 1] if header == 4 else [])
            for value in bad:
                raw = bytearray(stream)
                at = int(offsets[i])
                raw[at : at + header] = value.to_bytes(header, "little")
                got = self._same(bytes(raw), nb, L, header, start)
                assert got == ("error", f"block {i}: invalid fixed length {value}")

    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    @pytest.mark.parametrize("L", [8, 32])
    @pytest.mark.parametrize("start", [0, 3])
    def test_every_truncation_length(self, header, L, start):
        fls = [0, 5, 0, 0, 63, 1, 0, 9]
        stream = self._stream(fls, L, header, start, seed=L + header)
        for cut in range(len(stream) + 1):
            self._same(stream[:cut], len(fls), L, header, start)

    def test_empty_and_start_past_end(self):
        for header in (SZP_HEADER_BYTES, CERESZ_HEADER_BYTES):
            assert self._same(b"", 0, 32, header, 0)[0] == "ok"
            assert self._same(b"\x00" * 3, 0, 32, header, 3)[0] == "ok"
            assert self._same(b"\x00" * 3, 0, 32, header, 5)[0] == "error"

    def test_word_walk_without_native_little_endian_words(self, monkeypatch):
        """The big-endian branch reads the words through a byteswapping
        NumPy copy instead of a native ``memoryview`` cast."""
        from repro.core import encoding

        fls = [0, 7, 63, 0, 1]
        stream = self._stream(fls, 32, CERESZ_HEADER_BYTES, 3)
        monkeypatch.setattr(encoding.sys, "byteorder", "big")
        self._same(stream, len(fls), 32, 4, 3)
        self._same(stream[:-5], len(fls), 32, 4, 3)

    def test_accepts_arrays_and_views(self):
        fls = [3, 0, 7]
        stream = self._stream(fls, 32, CERESZ_HEADER_BYTES, 2)
        want = _scan_oracle(stream, 3, 32, 4, 2)
        for src in (np.frombuffer(stream, np.uint8), bytearray(stream), memoryview(stream)):
            offsets, got = scan_record_offsets(src, 3, 32, 4, 2)
            assert offsets.tolist() == want[0].tolist()
            assert got.tolist() == want[1].tolist() == fls


class TestOnePassDecode:
    """``decode_blocks`` decodes every record of a call in one gather;
    hold it against the ``encode_blocks`` input on mixed fixed lengths,
    record subsets, reused output buffers and multi-pass calls."""

    _blocks = staticmethod(TestWordShuffleKernel._blocks)

    def _every_length(self, L, seed=0, reps=2):
        rng = np.random.default_rng(seed)
        fls = np.repeat(np.arange(64), reps)
        rng.shuffle(fls)
        return self._blocks(rng, fls.tolist(), L)

    @pytest.mark.parametrize("L", [8, 16, 24, 32, 64, 256])
    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    def test_every_fixed_length_in_one_call(self, L, header):
        residuals = self._every_length(L, seed=L + header)
        stream = encode_blocks(residuals, header)
        out = decode_blocks(stream, residuals.shape[0], L, header)
        assert np.array_equal(out, residuals)

    @pytest.mark.parametrize("header", [SZP_HEADER_BYTES, CERESZ_HEADER_BYTES])
    def test_record_subsets(self, header):
        residuals = self._every_length(32, seed=5)
        residuals[::5] = 0
        stream = encode_blocks(residuals, header)
        nb = residuals.shape[0]
        offsets, fls = scan_record_offsets(stream, nb, 32, header)
        # Nonzero blocks only (the fused decoder), intact groups of 8
        # (salvage), and arbitrary subsets.
        groups = np.arange(nb) // 8
        rng = np.random.default_rng(1)
        subsets = [
            np.flatnonzero(fls),
            np.flatnonzero(np.isin(groups, [0, 3, 4, 11, 15])),
            np.sort(rng.choice(nb, size=37, replace=False)),
            np.array([nb - 1]),
            # The widest record widens every row: the last record's row
            # then runs past the end of the stream.
            np.array([int(np.argmax(fls)), nb - 1]),
            rng.permutation(nb)[:50],  # any order
            np.array([6, 6, 2]),  # the same record twice
        ]
        for idx in subsets:
            out = decode_blocks(
                stream, idx.size, 32, header, offsets=offsets[idx], fls=fls[idx]
            )
            assert np.array_equal(out, residuals[idx])

    def test_out_with_stale_contents(self):
        residuals = self._every_length(32, seed=7)
        residuals[1::3] = 0
        stream = encode_blocks(residuals)
        nb = residuals.shape[0]
        offsets, fls = scan_record_offsets(stream, nb, 32)
        stale = np.full((nb, 32), -12345, dtype=np.int64)
        out = decode_blocks(stream, nb, 32, offsets=offsets, fls=fls, out=stale)
        assert out is stale
        assert np.array_equal(out, residuals)
        # No zero block: the records decode straight into ``out``.
        live = np.flatnonzero(fls)
        stale = np.full((live.size, 32), 777, dtype=np.int64)
        decode_blocks(
            stream, live.size, 32, offsets=offsets[live], fls=fls[live], out=stale
        )
        assert np.array_equal(stale, residuals[live])

    def test_calls_larger_than_one_pass(self, monkeypatch):
        from repro.core import encoding

        residuals = self._every_length(32, seed=9, reps=3)
        residuals[::4] = 0
        stream = encode_blocks(residuals)
        want = decode_blocks(stream, residuals.shape[0], 32)
        # 5 blocks per pass: the pass edges fall everywhere in the call.
        monkeypatch.setattr(encoding, "_DECODE_SLAB_ELEMS", 5 * 32)
        got = decode_blocks(stream, residuals.shape[0], 32)
        assert np.array_equal(want, residuals)
        assert np.array_equal(got, residuals)
