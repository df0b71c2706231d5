"""The CereSZ container format.

A compressed stream is a small self-describing global header followed by the
per-block records of :mod:`repro.core.encoding`::

    [ magic "CSZ1" ][ version ][ header_width ][ block_size u16 ]
    [ ndim u8 ][ dims u64 * ndim ][ eps f64 ][ flags u8 ]
    ( [ constant value f64 ]  when flags & CONSTANT )
    ( [ crc_group u16 ]  when flags & CHECKSUM, version 3 )
    ( [ predictor tag u8 ]  when flags & PREDICTOR_ID )
    ( [ fl table: u8 * num_blocks ]  when flags & INDEXED, version 2 )
    [ block records ... ]

The global header exists only on the host side — on the wafer each PE sees
naked block records — but a usable library needs streams that decompress
without out-of-band metadata. ``header_width`` is the per-block header size:
4 bytes for CereSZ proper, 1 byte when the container carries the SZp-format
baseline payload.

A *constant* stream handles the zero-value-range corner: a REL error bound
on a constant field is undefined (range 0), so the field is stored exactly
as a single f64 and the flag short-circuits both directions.

Version 2 ("indexed") streams additionally carry a packed table of every
block's fixed length right after the global header. Record sizes are a pure
function of the fixed length, so the table turns the otherwise sequential
offset scan into one vectorized ``cumsum``, the same trick cuSZ/cuSZp play
with partition metadata. On the host that is no longer much of a speed
argument: the v1 walk costs one native word read per block (~16 ms for
131,072 blocks on a 2-vCPU Xeon, against ~1 ms for the ``cumsum``). What
the table still buys is layout without reading the records: every offset
is known even when an earlier record header is corrupt, which is what the
v3 CRC groups and group-exact salvage build on. It costs one byte per
block of ratio. The per-block records themselves are byte-identical to v1
(each still carries its own header), so a v2 payload remains scannable by
a v1 record walker and random access never needs the table to be trusted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.config import BLOCK_SIZE, CERESZ_HEADER_BYTES
from repro.core.predictors import get_predictor, predictor_from_tag
from repro.errors import CompressionError, FormatError

CERESZ_MAGIC = b"CSZ1"
FORMAT_VERSION = 1
#: Container v2: the global header is followed by a packed per-block
#: fixed-length table, making decode offsets a vectorized cumsum.
FORMAT_VERSION_INDEXED = 2
#: Container v3 ("checksummed"): v2 plus CRC32C integrity metadata. The fl
#: table is followed by a per-group table of ``(record_bytes u32, crc u32)``
#: — one entry per ``crc_group`` consecutive blocks, each CRC covering the
#: group's fl-table slice and its record bytes — and a final ``meta_crc
#: u32`` over the packed header and the group table. Records stay
#: byte-identical to v1/v2, so corruption localizes to one group and every
#: intact group remains independently decodable (the salvage path).
FORMAT_VERSION_CHECKSUM = 3
SUPPORTED_VERSIONS = (
    FORMAT_VERSION, FORMAT_VERSION_INDEXED, FORMAT_VERSION_CHECKSUM
)

#: Default blocks per CRC group: 8 bytes of integrity metadata per 64
#: blocks keeps the overhead near 0.1 % on realistic streams (< 2 % even
#: on degenerate all-zero-block streams) while losing at most 64 blocks to
#: one flipped byte.
DEFAULT_CRC_GROUP = 64

FLAG_CONSTANT = 0x01
#: Legacy 1-bit predictor flag: residuals come from the N-D Lorenzo
#: predictor over the full array (the paper's "higher dimensional
#: Lorenzo" extension) instead of the default block-local 1-D
#: difference. Kept so pre-registry ``nd`` streams decode unchanged;
#: every other non-default predictor uses :data:`FLAG_PREDICTOR_ID`.
FLAG_ND_PREDICTOR = 0x02
#: The reconstructed field is float64 (the stream was built from a float64
#: input; SDRBench distributes several datasets in double precision).
FLAG_F64 = 0x04
#: A packed per-block fixed-length table follows the global header
#: (container v2 only; see the module docstring).
FLAG_INDEXED = 0x08
#: CRC32C integrity metadata follows the fl table (container v3; implies
#: FLAG_INDEXED).
FLAG_CHECKSUM = 0x10
#: The header carries an explicit predictor-tag byte (after the
#: crc_group field, when present). The registry's tag space replaces the
#: single legacy nd bit; the two default-able predictors keep their
#: pre-registry encodings (``lorenzo1d`` -> no bits, ``nd`` ->
#: FLAG_ND_PREDICTOR) so existing streams stay byte-identical.
FLAG_PREDICTOR_ID = 0x20

_FIXED = struct.Struct("<4sBBHB")  # magic, version, header_width, block, ndim
_EPS_FLAGS = struct.Struct("<dB")
_DIM = struct.Struct("<Q")
_CONST = struct.Struct("<d")
_CRC_GROUP = struct.Struct("<H")  # blocks per CRC group (v3 only)
_PREDICTOR = struct.Struct("<B")  # predictor tag (FLAG_PREDICTOR_ID only)


@dataclass(frozen=True)
class StreamHeader:
    """Decoded global header of a CereSZ stream."""

    header_width: int
    block_size: int
    shape: tuple[int, ...]
    eps: float
    constant: float | None = None
    #: Canonical registry name (see :mod:`repro.core.predictors`).
    predictor: str = "lorenzo1d"
    dtype: str = "f4"  # "f4" or "f8": reconstruction precision
    indexed: bool = False
    version: int = FORMAT_VERSION
    #: v3 integrity metadata: when True the fl table is followed by a
    #: per-group CRC32C table and a meta CRC (see the module docstring).
    checksum: bool = False
    #: Blocks per CRC group (v3 only; 0 on v1/v2 streams).
    crc_group: int = 0

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n if self.shape else 0

    @property
    def num_blocks(self) -> int:
        return -(-self.num_elements // self.block_size)

    @property
    def num_groups(self) -> int:
        """CRC groups in a v3 stream (0 when not checksummed)."""
        if not self.checksum or self.crc_group <= 0:
            return 0
        return -(-self.num_blocks // self.crc_group)

    @property
    def index_bytes(self) -> int:
        """Bytes between the packed header and the first block record.

        v2: the fl table. v3: fl table + group table (8 bytes per group)
        + the 4-byte meta CRC.
        """
        if not self.indexed:
            return 0
        extra = 8 * self.num_groups + 4 if self.checksum else 0
        return self.num_blocks + extra

    def _expected_version(self) -> int:
        if self.checksum:
            return FORMAT_VERSION_CHECKSUM
        return FORMAT_VERSION_INDEXED if self.indexed else FORMAT_VERSION

    def pack(self) -> bytes:
        if not (1 <= len(self.shape) <= 255):
            raise FormatError(f"unsupported ndim {len(self.shape)}")
        if self.checksum and not self.indexed:
            raise FormatError(
                "checksummed streams are always indexed (group CRCs cover "
                "the fl table)"
            )
        if self.version != self._expected_version():
            raise FormatError(
                f"indexed={self.indexed} checksum={self.checksum} requires "
                f"stream version {self._expected_version()}, "
                f"got {self.version}"
            )
        if self.checksum and not (1 <= self.crc_group <= 0xFFFF):
            raise FormatError(
                f"crc_group must be in [1, 65535], got {self.crc_group}"
            )
        if self.indexed and self.constant is not None:
            raise FormatError(
                "constant streams carry no block records to index"
            )
        parts = [
            _FIXED.pack(
                CERESZ_MAGIC,
                self.version,
                self.header_width,
                self.block_size,
                len(self.shape),
            )
        ]
        parts.extend(_DIM.pack(d) for d in self.shape)
        flags = FLAG_CONSTANT if self.constant is not None else 0
        try:
            pred = get_predictor(self.predictor)
        except CompressionError as exc:
            raise FormatError(str(exc)) from None
        predictor_tag: int | None = None
        if pred.name == "nd":
            flags |= FLAG_ND_PREDICTOR
        elif pred.name != "lorenzo1d":
            flags |= FLAG_PREDICTOR_ID
            predictor_tag = pred.tag
        if self.dtype == "f8":
            flags |= FLAG_F64
        elif self.dtype != "f4":
            raise FormatError(f"unknown dtype {self.dtype!r}")
        if self.indexed:
            flags |= FLAG_INDEXED
        if self.checksum:
            flags |= FLAG_CHECKSUM
        parts.append(_EPS_FLAGS.pack(self.eps, flags))
        if self.constant is not None:
            parts.append(_CONST.pack(self.constant))
        if self.checksum:
            parts.append(_CRC_GROUP.pack(self.crc_group))
        if predictor_tag is not None:
            parts.append(_PREDICTOR.pack(predictor_tag))
        return b"".join(parts)

    @classmethod
    def unpack(cls, stream: bytes | memoryview) -> tuple["StreamHeader", int]:
        """Parse the header; returns (header, offset of first block record)."""
        buf = bytes(stream[: _FIXED.size])
        if len(buf) < _FIXED.size:
            raise FormatError("stream shorter than the fixed header")
        magic, version, header_width, block_size, ndim = _FIXED.unpack(buf)
        if magic != CERESZ_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CERESZ_MAGIC!r}")
        if version not in SUPPORTED_VERSIONS:
            raise FormatError(f"unsupported stream version {version}")
        if block_size <= 0 or block_size % 8 or block_size > 8192:
            # 8192 elements = 32 KB of raw data, already beyond what a
            # 48 KB-SRAM PE could stage; larger values indicate corruption.
            raise FormatError(f"corrupt block size {block_size}")
        pos = _FIXED.size
        dims = []
        for _ in range(ndim):
            chunk = bytes(stream[pos : pos + _DIM.size])
            if len(chunk) < _DIM.size:
                raise FormatError("stream truncated in shape dims")
            dims.append(_DIM.unpack(chunk)[0])
            pos += _DIM.size
        chunk = bytes(stream[pos : pos + _EPS_FLAGS.size])
        if len(chunk) < _EPS_FLAGS.size:
            raise FormatError("stream truncated before eps/flags")
        eps, flags = _EPS_FLAGS.unpack(chunk)
        pos += _EPS_FLAGS.size
        constant = None
        if flags & FLAG_CONSTANT:
            chunk = bytes(stream[pos : pos + _CONST.size])
            if len(chunk) < _CONST.size:
                raise FormatError("stream truncated in constant value")
            constant = _CONST.unpack(chunk)[0]
            pos += _CONST.size
        indexed = bool(flags & FLAG_INDEXED)
        checksum = bool(flags & FLAG_CHECKSUM)
        if checksum != (version == FORMAT_VERSION_CHECKSUM):
            raise FormatError(
                f"checksum flag {checksum} inconsistent with stream "
                f"version {version}"
            )
        if checksum and not indexed:
            raise FormatError("checksummed streams must carry a block index")
        if not checksum and indexed != (version == FORMAT_VERSION_INDEXED):
            raise FormatError(
                f"index flag {indexed} inconsistent with stream version "
                f"{version}"
            )
        if indexed and constant is not None:
            raise FormatError("constant streams cannot carry a block index")
        crc_group = 0
        if checksum:
            chunk = bytes(stream[pos : pos + _CRC_GROUP.size])
            if len(chunk) < _CRC_GROUP.size:
                raise FormatError("stream truncated in crc_group field")
            crc_group = _CRC_GROUP.unpack(chunk)[0]
            pos += _CRC_GROUP.size
            if crc_group < 1:
                raise FormatError(f"corrupt crc_group {crc_group}")
        if flags & FLAG_PREDICTOR_ID and flags & FLAG_ND_PREDICTOR:
            raise FormatError(
                "both the legacy nd flag and the predictor-id flag are set"
            )
        if flags & FLAG_PREDICTOR_ID:
            chunk = bytes(stream[pos : pos + _PREDICTOR.size])
            if len(chunk) < _PREDICTOR.size:
                raise FormatError("stream truncated in predictor tag")
            tag = _PREDICTOR.unpack(chunk)[0]
            pos += _PREDICTOR.size
            try:
                pred = predictor_from_tag(tag)
            except CompressionError:
                raise FormatError(
                    f"unknown predictor tag {tag}; the stream needs a "
                    "newer decoder"
                ) from None
            if pred.name in ("lorenzo1d", "nd"):
                raise FormatError(
                    f"predictor {pred.name!r} must use its legacy flag "
                    "encoding, not an explicit tag"
                )
            predictor = pred.name
        elif flags & FLAG_ND_PREDICTOR:
            predictor = "nd"
        else:
            predictor = "lorenzo1d"
        header = cls(
            header_width=header_width,
            block_size=block_size,
            shape=tuple(int(d) for d in dims),
            eps=eps,
            constant=constant,
            predictor=predictor,
            dtype="f8" if flags & FLAG_F64 else "f4",
            indexed=indexed,
            version=version,
            checksum=checksum,
            crc_group=crc_group,
        )
        return header, pos


def make_header(
    shape: tuple[int, ...],
    eps: float,
    *,
    header_width: int = CERESZ_HEADER_BYTES,
    block_size: int = BLOCK_SIZE,
    constant: float | None = None,
    predictor: str = "lorenzo1d",
    dtype: str = "f4",
    indexed: bool = False,
    checksum: bool = False,
    crc_group: int = DEFAULT_CRC_GROUP,
) -> StreamHeader:
    """Convenience constructor used by the compressors."""
    arr_shape = tuple(int(d) for d in np.atleast_1d(np.asarray(shape)).tolist())
    try:
        predictor = get_predictor(predictor).name
    except CompressionError as exc:
        raise FormatError(str(exc)) from None
    if checksum:
        indexed = True
        version = FORMAT_VERSION_CHECKSUM
    else:
        version = FORMAT_VERSION_INDEXED if indexed else FORMAT_VERSION
    return StreamHeader(
        header_width=header_width,
        block_size=block_size,
        shape=arr_shape,
        eps=float(eps),
        constant=constant,
        predictor=predictor,
        dtype=dtype,
        indexed=indexed,
        version=version,
        checksum=checksum,
        crc_group=crc_group if checksum else 0,
    )
