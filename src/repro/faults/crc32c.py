"""Pure-NumPy CRC32C (Castagnoli) with a loop-free many-region kernel.

The container integrity layer checksums two very different shapes of data:
one large contiguous header blob, and *many* small variable-length record
groups inside a single stream buffer. Both go through one kernel, with no
Python loop over bytes or byte columns:

- :func:`crc32c_many` — one CRC per (start, length) region of a shared
  buffer;
- :func:`crc32c` — the one-region call of the same kernel;
- :func:`crc32c_combine` — concatenate two CRCs without touching bytes
  (the zlib ``crc32_combine`` construction, Castagnoli polynomial).

The kernel rests on CRC being linear over GF(2). With ``A`` the operator
that advances a register across one zero byte, a region ``b_0 .. b_{n-1}``
read from register ``reg`` ends in ``A^n(reg) ^ XOR_i A^{d_i}(T[b_i])``,
where ``d_i = n - 1 - i`` counts the bytes after ``b_i``. Splitting
``d = q*256 + r``:

1. one gather from the 256x256 table ``S[r, b] = A^r(T[b])`` gives every
   byte's term up to a factor ``A^{256 q}``;
2. one ``bitwise_xor.reduceat`` folds each (region, q) run of <= 256
   bytes;
3. each run is advanced by ``A^{256 q}`` and each init register by
   ``A^n``, using binary powers ``A^{2^k}`` applied as four byte-lookup
   tables each;
4. a second ``reduceat`` folds the runs of each region.

Regions that tile a contiguous span (fl-table slices, group bodies) are
read as one slice; other region sets are gathered. Bytes are processed in
slabs of :data:`_SLAB` so the transient index and term arrays stay small.

CRC32C (not zlib's CRC32) is the checksum used by iSCSI/ext4/leveldb and
the cuSZ-adjacent GPU codecs; reflected polynomial ``0x82F63B78``, init and
final XOR ``0xFFFFFFFF``. Test vector: ``crc32c(b"123456789") == 0xE3069283``.
"""

from __future__ import annotations

import threading

import numpy as np

_POLY = 0x82F63B78
_MASK = np.uint32(0xFFFFFFFF)

#: Bytes per kernel pass; bounds the transient arrays (about 15 bytes of
#: scratch per input byte) whatever the size of the buffer.
_SLAB = 1 << 18


def _build_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = (table >> np.uint32(1)) ^ (
            np.uint32(_POLY) * (table & np.uint32(1))
        )
    return table


_TABLE = _build_table()
#: Position of each slab byte mod 256, for the per-byte shift r.
_RAMP = np.tile(np.arange(256, dtype=np.uint8), _SLAB // 256)


# -- GF(2) zero-advance operators --------------------------------------------
#
# A linear operator on 32-bit registers is stored as a (4, 256) uint32
# table: op[j, v] is the image of v << 8j, so applying it costs four byte
# lookups. _POWERS[k] advances a register across 2^k zero bytes; all
# operators are powers of A, so they commute.

def _apply(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (
        op[0][x & np.uint32(0xFF)]
        ^ op[1][(x >> np.uint32(8)) & np.uint32(0xFF)]
        ^ op[2][(x >> np.uint32(16)) & np.uint32(0xFF)]
        ^ op[3][x >> np.uint32(24)]
    )


def _one_byte_operator() -> np.ndarray:
    # A(x) = T[x & 0xFF] ^ (x >> 8)
    v = np.arange(256, dtype=np.uint32)
    return np.stack([_TABLE, v, v << np.uint32(8), v << np.uint32(16)])


_POWERS: list[np.ndarray] = [_one_byte_operator()]
_SHIFT_TABLE: np.ndarray | None = None
# Shard-pool threads hash concurrently; the lazy tables only ever grow,
# under this lock, so a reader that saw a table long enough stays right.
_BUILD_LOCK = threading.Lock()


def _powers(count: int) -> list[np.ndarray]:
    """``A^(2^k)`` operators for at least ``k < count``, squared lazily."""
    if len(_POWERS) < count:
        with _BUILD_LOCK:
            while len(_POWERS) < count:
                _POWERS.append(_apply(_POWERS[-1], _POWERS[-1]))
    return _POWERS


def _shift_table() -> np.ndarray:
    """Flat ``S[r, b] = A^r(T[b])``: 256 x 256 uint32, built by doubling."""
    global _SHIFT_TABLE
    if _SHIFT_TABLE is None:
        powers = _powers(8)
        with _BUILD_LOCK:
            if _SHIFT_TABLE is None:
                table = np.empty((256, 256), dtype=np.uint32)
                table[0] = _TABLE
                for k in range(8):
                    half = 1 << k
                    table[half : 2 * half] = _apply(powers[k], table[:half])
                _SHIFT_TABLE = table.reshape(-1)
    return _SHIFT_TABLE


def _advance(x: np.ndarray, nbytes: np.ndarray, skip: int = 0) -> np.ndarray:
    """Advance each register ``x[i]`` across ``nbytes[i] << skip`` zeros."""
    x = np.array(x, dtype=np.uint32)
    top = int(nbytes.max(initial=0)).bit_length()
    powers = _powers(top + skip)
    for k in range(top):
        sel = ((nbytes >> k) & 1).astype(bool)
        if sel.any():
            x[sel] = _apply(powers[k + skip], x[sel])
    return x


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC of ``A ++ B`` given ``crc32c(A)``, ``crc32c(B)``, and ``len(B)``."""
    if len2 <= 0:
        return crc1 & 0xFFFFFFFF
    moved = _advance(np.array([crc1 & 0xFFFFFFFF]), np.array([len2]))
    return (int(moved[0]) ^ crc2) & 0xFFFFFFFF


# -- the kernel ---------------------------------------------------------------

def _byte_view(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    view = memoryview(data)
    return np.frombuffer(view if view.c_contiguous else view.tobytes(),
                         dtype=np.uint8)


def _region_terms(data, starts, lengths) -> np.ndarray:
    """``XOR_i A^{d_i}(T[b_i])`` of each nonempty region (zero init)."""
    m = lengths.size
    ends = np.cumsum(lengths)  # region ends in the concatenated bytes
    total = int(ends[-1])
    # Runs: the bytes of one region sharing q = d >> 8. The first run of
    # a region holds its ((n - 1) % 256) + 1 leading bytes, then 256 each.
    nruns = (lengths + 255) >> 8
    first_run = np.zeros(m, dtype=np.int64)
    np.cumsum(nruns[:-1], out=first_run[1:])
    run_region = np.repeat(np.arange(m), nruns)
    j = np.arange(run_region.size) - first_run[run_region]
    head = ((lengths - 1) & 255) + 1
    run_start = (ends - lengths)[run_region] + np.where(
        j == 0, 0, head[run_region] + ((j - 1) << 8)
    )
    run_q = ((lengths - 1) >> 8)[run_region] - j
    # r = d & 255 = (end - 1 - p) & 255: the same for every run of a
    # region, so one uint8 value per run and a byte ramp give it.
    run_key = ((ends - 1)[run_region] & 255).astype(np.uint8)
    tiled = bool((starts[1:] == starts[:-1] + lengths[:-1]).all())
    shift = (starts - (ends - lengths))[run_region]
    table = _shift_table()
    acc = np.zeros(run_region.size, dtype=np.uint32)
    pair = np.empty((min(_SLAB, total), 2), dtype=np.uint8)
    for lo in range(0, total, _SLAB):
        hi = min(lo + _SLAB, total)
        a = int(np.searchsorted(run_start, lo, side="right")) - 1
        b = int(np.searchsorted(run_start, hi, side="left"))
        local = run_start[a:b] - lo
        local[0] = 0
        counts = np.diff(local, append=hi - lo)
        if tiled:
            first = int(starts[0]) + lo
            pair[: hi - lo, 0] = data[first : first + hi - lo]
        else:
            pos = np.arange(lo, hi) + np.repeat(shift[a:b], counts)
            pair[: hi - lo, 0] = data[pos]
        # r into the high byte (uint8 wraparound; lo is a multiple of 256)
        np.subtract(
            np.repeat(run_key[a:b], counts), _RAMP[: hi - lo],
            out=pair[: hi - lo, 1],
        )
        index = pair[: hi - lo].view("<u2").reshape(-1)
        acc[a:b] ^= np.bitwise_xor.reduceat(np.take(table, index), local)
    acc = _advance(acc, run_q, skip=8)
    return np.bitwise_xor.reduceat(acc, first_run)


def crc32c_many(buf, starts, lengths, init=None) -> np.ndarray:
    """CRC32C of many ``(start, length)`` regions of one buffer at once.

    Regions may overlap, come in any order, or be empty. ``init``
    optionally seeds each region with a running CRC (for split coverage
    like "fl slice ++ record slice").
    """
    data = _byte_view(buf)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    m = starts.size
    if init is None:
        regs = np.full(m, 0xFFFFFFFF, dtype=np.uint32)
    else:
        regs = np.asarray(init, dtype=np.uint32) ^ _MASK
    if m == 0:
        return regs
    if (lengths < 0).any() or (starts < 0).any():
        raise ValueError("negative region start or length")
    max_len = int(lengths.max(initial=0))
    if max_len:
        end = int((starts + lengths).max())
        if end > data.size:
            raise ValueError(
                f"region extends to byte {end} but buffer has {data.size}"
            )
    out = _advance(regs, lengths)
    live = lengths > 0
    if live.any():
        out[live] ^= _region_terms(data, starts[live], lengths[live])
    return out ^ _MASK


def crc32c(data, crc: int = 0) -> int:
    """CRC32C of ``data``, optionally continuing from a previous value."""
    buf = _byte_view(data)
    return int(crc32c_many(buf, [0], [buf.size], init=[crc & 0xFFFFFFFF])[0])
