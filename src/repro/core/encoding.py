"""Fixed-length encoding (compression step 3) and its decoder.

Per block the encoder runs the four sub-stages of the paper's Table 3:

``Sign``
    split residuals into sign bits and magnitudes;
``Max``
    find the maximum magnitude;
``GetLength``
    its effective bit count *f* — the block's "fixed length";
``Bit-shuffle``
    transpose the low *f* bits of all magnitudes into *f* groups of
    ``L/8`` bytes: byte group *k* holds bit *k* of every element
    (paper Figure 8).

The on-stream record for a block is::

    [ header: fixed length f ][ L/8 sign bytes ][ f * L/8 payload bytes ]

where the header is 4 bytes for CereSZ (the wafer's 32-bit message
granularity, Section 5.1.1) or 1 byte for the SZp/cuSZp baselines. A zero
block (f = 0) stores the header only — no signs, no payload — capping the
best-case ratio at 32x for CereSZ and 128x for SZp (visible as the 31.99 /
127.94 ceilings in the paper's Table 5).

Two encoders emit the same bytes. :func:`encode_blocks` is the reference:
it groups blocks by fixed length and transcribes the bit-shuffle as shift
and mask over uint64 magnitudes, so it needs O(distinct fixed lengths)
numpy passes rather than one per block. :func:`pack_records`, the fused
path's core, shuffles machine words instead: lane *b* (bits 8b..8b+7) of 8
consecutive magnitudes is one uint64, and the 8x8 bit-matrix transpose
:func:`transpose8` turns it into the payload bytes of bit planes 8b..8b+7
for that element group. It builds every record of a chunk in one pass
whatever the fixed lengths, and zero blocks cost only their header.

A bare v1 stream has no index, so record offsets come from walking the
headers in order (record sizes are data dependent).
:func:`scan_record_offsets` keeps that walk sequential but makes each step
cheap: one native read of a 32-bit word (or byte) through a
``memoryview`` and one lookup in a 64-entry size table per block, ~16 ms
for 131,072 blocks on a 2-vCPU Xeon where NumPy scalar reads took ~0.2 s.
Indexed (container v2) streams ship the fixed lengths up front, so
:func:`index_record_offsets` replaces the walk with one ``cumsum``.

:func:`decode_blocks` then decodes every record of a call in one pass,
whatever the fixed lengths: one row gather from a sliding-window view of
the stream puts all record bodies into one ``(k, width)`` array (the
inverse of the encoder's ``rows[keep]``), one ``unpackbits`` recovers the
signs and one :func:`transpose8` (the transpose is its own inverse)
unshuffles every lane. The gather indexes one int64 per record — not the
``(k, record_len)`` int64 fancy index a byte gather would need, which
costs 8x the payload it moves — and large calls are cut into passes of
:data:`_DECODE_SLAB_ELEMS` elements.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import CERESZ_HEADER_BYTES, SZP_HEADER_BYTES
from repro.errors import CompressionError, FormatError

#: Residual magnitudes must fit below 2**63 for the sign/magnitude split;
#: the quantizer's MAX_QUANT_BITS guard keeps us far away from this anyway.
_MAX_FL = 63

#: Elements :func:`decode_blocks` decodes per pass. Its transients cost at
#: most ~30 bytes per element of the pass (rows, words, signs, lanes), so a
#: large call (a whole-stream reference decode) is cut into passes of this
#: many elements; the fused decoder's chunk of ``fastpath.CHUNK_ELEMS`` is
#: one pass.
_DECODE_SLAB_ELEMS = 1 << 18

#: Power-of-two table driving the exact bit-length computation: for a
#: uint64 magnitude m >= 1, the number of table entries <= m is exactly
#: ``m.bit_length()`` (and 0 for m == 0, since no power is <= 0).
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: ``_LOW_BYTES[n]`` keeps the low ``n`` bytes of a uint64 (``n`` in 0..8).
_LOW_BYTES = np.array(
    [(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64
)

#: ``(shift, mask)`` of the three swap steps of :func:`transpose8`.
_TRANSPOSE8_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    )
)


def exact_bit_lengths(mags: np.ndarray) -> np.ndarray:
    """Exact integer bit length of each uint64 magnitude, vectorized.

    ``floor(log2(float64(m))) + 1`` is wrong at the float64 rounding edge:
    ``log2(2**k - 1)`` rounds up to exactly ``k`` once ``k >= 49`` (and all
    integers at or above ``2**53`` lose bits in the cast), misreporting the
    fixed length by one. A binary search against the power-of-two table is
    exact over the full uint64 range and still one vectorized call.
    """
    mags = np.asarray(mags, dtype=np.uint64)
    return np.searchsorted(_POW2, mags, side="right").astype(np.int64)


def block_fixed_lengths(residuals: np.ndarray) -> np.ndarray:
    """The per-block fixed length: effective bits of the max |residual|.

    Returns an int64 array of shape ``(num_blocks,)``; zero blocks get 0.
    Exact for every int64 residual: magnitudes are compared as uint64 (so
    even ``|int64 min| = 2**63`` reports 64 bits and is rejected downstream
    rather than silently encoding as a zero block).
    """
    arr = _as_blocks(residuals)
    # abs(int64 min) wraps to itself; the uint64 view reads that bit
    # pattern as the true magnitude 2**63, and every other magnitude
    # unchanged — no value range is silently misreported.
    mags = np.abs(arr).view(np.uint64)
    maxima = (
        mags.max(axis=1) if arr.size else np.zeros(arr.shape[0], dtype=np.uint64)
    )
    return exact_bit_lengths(maxima)


def record_sizes(
    fl: np.ndarray, block_size: int, header_bytes: int
) -> np.ndarray:
    """Stream bytes of each block record given its fixed length."""
    fl = np.asarray(fl, dtype=np.int64)
    sign_bytes = block_size // 8
    sizes = np.full(fl.shape, header_bytes, dtype=np.int64)
    nz = fl > 0
    sizes[nz] += sign_bytes + fl[nz] * (block_size // 8)
    return sizes


def pack_block_index(fl: np.ndarray) -> bytes:
    """Pack per-block fixed lengths into the container-v2 index table.

    One byte per block: fl <= 63 always fits (``_MAX_FL`` is enforced at
    encode time), and at block size 32 the table costs 1/128 of the raw
    data — cheaper than the 4-byte record headers it duplicates.
    """
    fl = np.asarray(fl, dtype=np.int64)
    if fl.size and (int(fl.min()) < 0 or int(fl.max()) > _MAX_FL):
        raise FormatError("fixed length outside [0, 63]; cannot build index")
    return fl.astype(np.uint8).tobytes()


def unpack_block_index(
    stream: bytes | np.ndarray, num_blocks: int, start: int = 0
) -> tuple[np.ndarray, int]:
    """Read the v2 fl table; returns (fixed lengths, offset past the table)."""
    buf = _as_u8(stream)
    if num_blocks < 0:
        raise FormatError(f"negative block count {num_blocks}")
    if start + num_blocks > buf.size:
        raise FormatError(
            f"stream truncated in block index (need {num_blocks} bytes at "
            f"offset {start}, stream {buf.size} bytes)"
        )
    fls = buf[start : start + num_blocks].astype(np.int64)
    if fls.size and int(fls.max()) > _MAX_FL:
        raise FormatError("invalid fixed length in block index")
    return fls, start + num_blocks


def index_record_offsets(
    fls: np.ndarray,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
    stream_size: int | None = None,
) -> np.ndarray:
    """Vectorized counterpart of :func:`scan_record_offsets`.

    Given the fixed lengths from a container-v2 index table, every record
    offset is one ``cumsum`` away — no per-block Python loop. When
    ``stream_size`` is supplied the computed extent is bounds-checked, so
    downstream decoding can trust the offsets without re-validating.
    """
    _check_header_bytes(header_bytes)
    fls = np.asarray(fls, dtype=np.int64)
    if fls.size and (int(fls.min()) < 0 or int(fls.max()) > _MAX_FL):
        raise FormatError("invalid fixed length in block index")
    sizes = record_sizes(fls, block_size, header_bytes)
    ends = start + np.cumsum(sizes)
    if stream_size is not None and fls.size and int(ends[-1]) > stream_size:
        raise FormatError(
            f"stream truncated: indexed records need {int(ends[-1])} bytes, "
            f"have {stream_size}"
        )
    return ends - sizes


def transpose8(words: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix held in each uint64 word, in place.

    Byte ``j`` of a little-endian word is row ``j``, its bit ``i`` column
    ``i``; afterwards bit ``i`` of byte ``j`` holds what was bit ``j`` of
    byte ``i``. Three shift-and-mask swaps (Hacker's Delight
    ``transpose8``) exchange 1x1, 2x2 and then 4x4 sub-blocks across the
    diagonal. The transpose is its own inverse, so the encoder's shuffle
    and the decoder's unshuffle are the same call. Returns ``words``.
    """
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE8_STEPS:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    return words


def pack_records(
    mags: np.ndarray,
    negs: np.ndarray,
    fl: np.ndarray,
    header_bytes: int = CERESZ_HEADER_BYTES,
) -> np.ndarray:
    """Pack prepared sign/magnitude blocks into fixed-length record bytes.

    The optimized packing core of the fused fast path
    (``core.fastpath``). It emits records byte-identical to
    :func:`encode_blocks`, but the two deliberately do *not* share the
    bit-shuffle implementation: ``encode_blocks`` stays the readable
    shift-and-mask reference that serves as the independent oracle, while
    this core shuffles whole machine words with :func:`transpose8`. The
    equivalence is enforced by the property suites in
    ``tests/core/test_encoding.py`` and ``tests/core/test_fastpath.py``.

    ``mags`` is the ``(num_blocks, L)`` uint64 magnitude array, ``negs``
    the matching sign mask (bool or uint8), ``fl`` the per-block fixed
    lengths. Returns the packed uint8 record array (records laid out back
    to back).
    """
    mags = np.ascontiguousarray(mags, dtype=np.uint64)
    fl = np.asarray(fl, dtype=np.int64)
    _check_header_bytes(header_bytes)
    num_blocks, block_size = mags.shape
    if block_size % 8:
        raise CompressionError("block size must be a multiple of 8")
    if header_bytes == SZP_HEADER_BYTES and int(fl.max(initial=0)) > 0xFF:
        raise FormatError("fixed length does not fit the 1-byte SZp header")
    if int(fl.max(initial=0)) > _MAX_FL:
        raise FormatError(f"fixed length exceeds {_MAX_FL} bits")
    if int(fl.min(initial=0)) < 0:
        raise FormatError("negative fixed length")

    groups = block_size // 8  # sign bytes, and bytes per bit plane
    nlanes = (int(fl.max(initial=0)) + 7) // 8
    # One row per block, wide enough for the longest record of the chunk:
    # header, sign bytes, then 8 * nlanes bit planes of ``groups`` bytes.
    width = header_bytes + groups + 8 * nlanes * groups
    rows = np.empty((num_blocks, width), dtype=np.uint8)
    rows[:, :header_bytes] = (
        fl.astype("<u4").view(np.uint8).reshape(num_blocks, 4)[:, :header_bytes]
    )

    # Zero blocks -- the majority on well-compressed fields -- are
    # header-only records: only nonzero blocks reach the shuffle.
    nz = np.flatnonzero(fl)
    k = int(nz.size)
    if k:
        # With no zero block (payload-heavy fields) the rows are filled in
        # place, saving a gather of the inputs and a scatter of the rows.
        every = k == num_blocks
        body = rows if every else np.empty((k, width), dtype=np.uint8)
        # Sign bytes: element j -> bit j%8 of sign byte j//8. Blocks are
        # whole bytes of signs, so one flat pack covers every block.
        body[:, header_bytes : header_bytes + groups] = np.packbits(
            np.ascontiguousarray(negs if every else negs[nz]).reshape(-1),
            bitorder="little",
        ).reshape(k, groups)
        # Lane b of 8 consecutive magnitudes as one little-endian word:
        # byte j holds bits 8b..8b+7 of element j of the group.
        lanes = (
            (mags if every else mags[nz])
            .astype("<u8", copy=False)
            .view(np.uint8)
            .reshape(k, groups, 8, 8)
        )
        words = np.ascontiguousarray(
            lanes[:, :, :, :nlanes].transpose(0, 3, 1, 2)
        ).view("<u8")  # (k, nlanes, groups)
        # After the transpose, byte i of a word is the Fig 8 payload byte
        # of bit plane 8b+i for that element group; regroup plane-major.
        planes = body[:, header_bytes + groups :].reshape(k, nlanes, 8, groups)
        planes[...] = (
            transpose8(words)
            .view(np.uint8)
            .reshape(k, nlanes, groups, 8)
            .transpose(0, 1, 3, 2)
        )
        if not every:
            rows[nz, header_bytes:] = body[:, header_bytes:]

    # Each record is the leading ``record_sizes`` bytes of its row; one
    # boolean-mask gather lays them out back to back.
    sizes = record_sizes(fl, block_size, header_bytes)
    col = np.min_scalar_type(width)
    keep = np.arange(width, dtype=col) < sizes.astype(col)[:, None]
    return rows[keep]


def encode_blocks(
    residuals: np.ndarray, header_bytes: int = CERESZ_HEADER_BYTES
) -> bytes:
    """Fixed-length-encode a ``(num_blocks, L)`` residual array.

    ``header_bytes`` selects the CereSZ (4) or SZp (1) header width.
    This is the reference encoder — a direct shift-and-mask transcription
    of the paper's bit-shuffle, kept independent of the fast path's
    :func:`pack_records` so each can serve as the other's oracle.
    """
    arr = _as_blocks(residuals)
    _check_header_bytes(header_bytes)
    num_blocks, block_size = arr.shape
    if block_size % 8:
        raise CompressionError("block size must be a multiple of 8")
    fl = block_fixed_lengths(arr)
    if header_bytes == SZP_HEADER_BYTES and int(fl.max(initial=0)) > 0xFF:
        raise FormatError("fixed length does not fit the 1-byte SZp header")
    if int(fl.max(initial=0)) > _MAX_FL:
        raise FormatError(f"fixed length exceeds {_MAX_FL} bits")

    sizes = record_sizes(fl, block_size, header_bytes)
    offsets = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)

    # Headers (vectorized little-endian write).
    for byte in range(header_bytes):
        out[offsets[:-1] + byte] = (fl >> (8 * byte)).astype(np.uint8)

    mags = np.abs(arr).view(np.uint64)
    negs = (arr < 0).astype(np.uint8)
    sign_bytes = block_size // 8

    for f in np.unique(fl):
        f = int(f)
        if f == 0:
            continue
        idx = np.nonzero(fl == f)[0]
        # Sign bytes: element j -> bit j%8 of sign byte j//8.
        packed_signs = np.packbits(
            negs[idx].reshape(len(idx), sign_bytes, 8), axis=-1, bitorder="little"
        ).reshape(len(idx), sign_bytes)
        # Bit-shuffle: byte group k carries bit k of all elements (Fig 8).
        shifts = np.arange(f, dtype=np.uint64)[None, :, None]
        bits = ((mags[idx][:, None, :] >> shifts) & 1).astype(np.uint8)
        payload = np.packbits(
            bits.reshape(len(idx), f, sign_bytes, 8), axis=-1, bitorder="little"
        ).reshape(len(idx), f * sign_bytes)

        body = np.concatenate([packed_signs, payload], axis=1)
        # Column-wise scatter: the loop is bounded by the record length
        # (<= 256 iterations at block size 32), not the block count.
        starts = offsets[idx] + header_bytes
        for col in range(body.shape[1]):
            out[starts + col] = body[:, col]

    return out.tobytes()


def scan_record_offsets(
    stream: bytes | np.ndarray,
    num_blocks: int,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the headers and return (offsets, fixed lengths) per block.

    This is the sequential part of decoding: record sizes depend on the
    headers, so each record is found from the one before it — but it is
    the *only* sequential part, and it reads headers, not payloads.

    The walk steps through a ``memoryview`` of the record area, so every
    header read is one native index rather than a NumPy scalar. With
    4-byte headers and ``L`` a multiple of 32 (the CereSZ default) every
    record is a whole number of little-endian 32-bit words and the walk
    steps a word view, one read per header; other layouts step bytes. A
    64-entry table maps each fixed length to its record size, and the
    fixed lengths go straight into a preallocated uint8 array; the offsets
    are then one ``cumsum`` of the walked sizes.
    """
    _check_header_bytes(header_bytes)
    buf = _as_u8(stream)
    if num_blocks < 0:
        raise FormatError(f"negative block count {num_blocks}")
    # Every block record is at least one header wide; a block count that
    # cannot fit the stream indicates corruption and must be rejected
    # before any O(num_blocks) allocation happens.
    if num_blocks * header_bytes > max(0, buf.size - start):
        raise FormatError(
            f"stream of {buf.size} bytes cannot hold {num_blocks} block "
            f"records"
        )
    n = buf.size
    area = buf[start:]
    whole_words = header_bytes == CERESZ_HEADER_BYTES and block_size % 32 == 0
    if not whole_words:
        unit, view = 1, memoryview(area)
    elif sys.byteorder == "little":
        unit = 4
        view = memoryview(area[: area.size - area.size % 4]).cast("I")
    else:
        unit = 4
        view = memoryview(
            area[: area.size - area.size % 4].view("<u4").astype(np.uint32)
        )
    # Record size in view units, indexed by fixed length: an out-of-range
    # header fails the lookup, and a header past the end fails its read.
    table = record_sizes(np.arange(_MAX_FL + 1), block_size, header_bytes)
    step = (table // unit).tolist()
    fls = np.zeros(num_blocks, dtype=np.uint8)
    out = memoryview(fls)
    pos = 0
    try:
        if unit == 1 and header_bytes == CERESZ_HEADER_BYTES:
            for i in range(num_blocks):
                f = (view[pos + 3] << 24 | view[pos + 2] << 16
                     | view[pos + 1] << 8 | view[pos])
                pos += step[f]
                out[i] = f
        else:
            for i in range(num_blocks):
                f = view[pos]
                pos += step[f]
                out[i] = f
    except IndexError:
        at = start + pos * unit
        if at + header_bytes > n:
            raise FormatError(
                f"stream truncated in header of block {i} "
                f"(offset {at}, stream {n} bytes)"
            ) from None
        raw = area[pos * unit : pos * unit + header_bytes].tobytes()
        f = int.from_bytes(raw, "little")
        raise FormatError(f"block {i}: invalid fixed length {f}") from None
    end = start + pos * unit
    if end > n:
        raise FormatError(
            f"stream truncated in payload of final block (need {end}, have {n})"
        )
    fls = fls.astype(np.int64)
    sizes = record_sizes(fls, block_size, header_bytes)
    return start + np.cumsum(sizes) - sizes, fls


def decode_blocks(
    stream: bytes | np.ndarray,
    num_blocks: int,
    block_size: int,
    header_bytes: int = CERESZ_HEADER_BYTES,
    start: int = 0,
    *,
    offsets: np.ndarray | None = None,
    fls: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a fixed-length-encoded stream back to int64 residuals.

    Without ``offsets``/``fls`` the record layout is discovered by the
    sequential header walk of :func:`scan_record_offsets`. Callers holding
    a container-v2 index pass both (from :func:`unpack_block_index` and
    :func:`index_record_offsets`) and skip the walk entirely.

    ``out`` accepts a preallocated ``(num_blocks, block_size)`` int64
    buffer (the fused decoder reuses one scratch chunk across the whole
    stream); rows of zero blocks are cleared, so stale contents are safe.

    The records need not be contiguous: the fused decoder passes nonzero
    blocks only, salvage the intact groups.
    """
    buf = _as_u8(stream)
    if offsets is None or fls is None:
        offsets, fls = scan_record_offsets(
            buf, num_blocks, block_size, header_bytes, start
        )
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        fls = np.asarray(fls, dtype=np.int64)
        if offsets.shape != (num_blocks,) or fls.shape != (num_blocks,):
            raise FormatError(
                f"block index shape mismatch: {num_blocks} blocks, "
                f"{offsets.shape[0]} offsets, {fls.shape[0]} fixed lengths"
            )
        if fls.size and (int(fls.min()) < 0 or int(fls.max()) > _MAX_FL):
            raise FormatError("invalid fixed length in block index")
        ends = offsets + record_sizes(fls, block_size, header_bytes)
        if num_blocks and (
            int(offsets.min()) < 0 or int(ends.max()) > buf.size
        ):
            raise FormatError("block index points outside the stream")
    if out is None:
        out = np.zeros((num_blocks, block_size), dtype=np.int64)
    else:
        if out.shape != (num_blocks, block_size) or out.dtype != np.int64:
            raise FormatError(
                f"decode buffer must be int64 {(num_blocks, block_size)}, "
                f"got {out.dtype} {out.shape}"
            )
        zero_rows = fls == 0
        if zero_rows.any():
            out[zero_rows] = 0

    groups = block_size // 8  # sign bytes, and bytes per bit plane
    nz = np.flatnonzero(fls)
    # With no zero block the records decode straight into ``out``.
    every = nz.size == num_blocks
    slab = max(_DECODE_SLAB_ELEMS // max(block_size, 1), 1)
    for s0 in range(0, nz.size, slab):
        idx = nz[s0 : s0 + slab]
        k = idx.size
        f = fls[idx]
        nlanes = (int(f.max()) + 7) // 8
        width = groups * (1 + 8 * nlanes)
        # Gather every record body of the pass into one (k, width) row
        # array, the inverse of pack_records' rows[keep]: rows of a
        # sliding-window view over the stream span, indexed by body start,
        # so the only index is one int64 per record. A row runs past a
        # short record into whatever follows; those bit planes are masked
        # off below. The span is zero-padded when a row would run past
        # the end of the stream.
        first = offsets[idx] + header_bytes
        lo, end = int(first.min()), int(first.max()) + width
        span = buf[lo:end]
        if span.size < end - lo:
            span = np.concatenate([span, np.zeros(end - lo - span.size, np.uint8)])
        rows = sliding_window_view(span, width)[first - lo]

        # Signs as 0 / -1: two's complement negation is (m ^ s) - s.
        sign = np.unpackbits(rows[:, :groups], axis=1, bitorder="little").view(np.int8)
        np.negative(sign, out=sign)
        # Unshuffle: the word of bit planes 8b..8b+7 of one element group
        # transposes back into lane b of its 8 magnitudes (Fig 8 in
        # reverse); lane b of element e is then byte e of lane row b.
        words = np.ascontiguousarray(
            rows[:, groups:].reshape(k, nlanes, 8, groups).transpose(0, 1, 3, 2)
        ).view("<u8").reshape(k, nlanes, groups)  # byte i: bit plane 8b+i
        planes = np.clip(f[:, None] - 8 * np.arange(nlanes), 0, 8)
        words &= _LOW_BYTES[planes][:, :, None]
        lanes = transpose8(words).view(np.uint8).reshape(k, nlanes, block_size)
        # The lanes are disjoint bit fields, so xor-ing them in one by one
        # assembles the magnitude and applies the sign mask at once.
        vals = out[s0 : s0 + k] if every else np.empty((k, block_size), np.int64)
        np.bitwise_xor(lanes[:, 0], sign, out=vals, dtype=np.int64)
        if nlanes > 1:
            shifted = np.empty((k, block_size), dtype=np.int64)
            for b in range(1, nlanes):
                np.left_shift(lanes[:, b], 8 * b, out=shifted, dtype=np.int64)
                vals ^= shifted
        np.subtract(vals, sign, out=vals, dtype=np.int64)
        if not every:
            out[idx] = vals

    return out


def _as_u8(stream: bytes | np.ndarray) -> np.ndarray:
    if isinstance(stream, (bytes, bytearray, memoryview)):
        return np.frombuffer(stream, dtype=np.uint8)
    return np.asarray(stream, dtype=np.uint8)


def _as_blocks(residuals: np.ndarray) -> np.ndarray:
    arr = np.asarray(residuals)
    if arr.ndim != 2:
        raise CompressionError(
            f"expected a (num_blocks, block_size) array, got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise CompressionError(f"residuals must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _check_header_bytes(header_bytes: int) -> None:
    if header_bytes not in (CERESZ_HEADER_BYTES, SZP_HEADER_BYTES):
        raise FormatError(
            f"header width must be {CERESZ_HEADER_BYTES} (CereSZ) or "
            f"{SZP_HEADER_BYTES} (SZp), got {header_bytes}"
        )
