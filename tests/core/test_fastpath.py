"""Property suite for the fused host kernels (core.fastpath).

The fused single-pass compress/decompress kernels must be *bit-identical*
to the reference multi-stage pipeline — the reference stays in the tree
as the independent oracle, and this suite is the enforcement: every
container flavor (v1 sequential, v2 indexed, v3 checksummed, CSZX
sharded), both float dtypes, ragged tails, all-zero blocks, and the
error-path parity (NaN/Inf, quantizer overflow) are held byte- or
bit-equal across the two paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError, ErrorBoundError, NonFiniteInputError
from repro.core.compressor import CereSZ
from repro.core.parallel import compress_sharded

REF = CereSZ(fast=False)
FUS = CereSZ(fast=True)


def _field(n, dtype, seed, kind="smooth"):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        t = np.linspace(0.0, 6.0, n)
        vals = np.sin(t) * 100.0 + rng.normal(0.0, 1e-3, n)
    else:
        vals = rng.normal(0.0, 50.0, n)
    return vals.astype(dtype)


def _assert_pair(data, **kw):
    """Compress both paths, assert byte-identity, return the stream.

    When the bound is infeasible for the dtype (e.g. below the float32
    resolution at the field's magnitude) the reference raises — then the
    fused path must raise the same error type, and ``None`` is returned.
    """
    try:
        a = REF.compress(data, **kw)
    except (ErrorBoundError, CompressionError) as exc:
        with pytest.raises(type(exc)):
            FUS.compress(data, **kw)
        return None
    b = FUS.compress(data, **kw)
    assert a.stream == b.stream
    return a.stream


def _assert_decode_pair(stream, reference_field, eps):
    out_ref = REF.decompress(stream)
    out_fus = FUS.decompress(stream)
    assert out_ref.dtype == out_fus.dtype
    assert out_ref.tobytes() == out_fus.tobytes()
    ref64 = np.asarray(reference_field, dtype=np.float64)
    assert np.max(np.abs(out_fus.astype(np.float64) - ref64)) <= eps
    return out_fus


class TestFusedCompressBitExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("kind", ["smooth", "noisy"])
    def test_stream_identity_plain(self, dtype, eps, kind):
        data = _field(4096, dtype, seed=1, kind=kind)
        stream = _assert_pair(data, eps=eps, index=False)
        if stream is not None:
            _assert_decode_pair(stream, data, eps)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_stream_identity_indexed(self, eps):
        data = _field(4096, np.float32, seed=2)
        stream = _assert_pair(data, eps=eps, index=True)
        _assert_decode_pair(stream, data, eps)

    def test_stream_identity_checksummed(self):
        data = _field(4096, np.float32, seed=3)
        stream = _assert_pair(data, eps=1e-3, checksum=True)
        _assert_decode_pair(stream, data, 1e-3)

    def test_rel_mode_identity(self):
        data = _field(4096, np.float32, seed=4)
        a = REF.compress(data, rel=1e-3)
        b = FUS.compress(data, rel=1e-3)
        assert a.stream == b.stream

    @pytest.mark.parametrize("n", [1, 7, 31, 33, 4095, 4097])
    def test_ragged_tails(self, n):
        """Sizes straddling block boundaries: the tail block is padded."""
        data = _field(n, np.float32, seed=5)
        stream = _assert_pair(data, eps=1e-3, index=True)
        out = _assert_decode_pair(stream, data, 1e-3)
        assert out.size == n

    def test_all_zero_blocks(self):
        """A constant-offset field quantizes to all-zero codes (fl=0)."""
        data = np.full(2048, 0.25, dtype=np.float32)
        data[0] += 1e-9  # not constant -> not the exact-constant container
        stream = _assert_pair(data, eps=1.0, index=True)
        _assert_decode_pair(stream, data, 1.0)

    def test_single_partial_block(self):
        data = np.array([1.0, -2.0, 3.5], dtype=np.float32)
        stream = _assert_pair(data, eps=1e-2, index=False)
        _assert_decode_pair(stream, data, 1e-2)

    @given(
        n=st.integers(1, 600),
        eps_exp=st.integers(-6, 1),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.float32, np.float64]),
        index=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_fused_equals_reference(self, n, eps_exp, seed, dtype, index):
        data = _field(n, dtype, seed=seed, kind="noisy")
        eps = 10.0 ** eps_exp
        stream = _assert_pair(data, eps=eps, index=index)
        if stream is not None:
            _assert_decode_pair(stream, data, eps)


class TestFusedSharded:
    def test_sharded_byte_identity(self):
        """CSZX shards byte-identical, fused vs reference, incl. v3 CRC."""
        data = _field(1 << 14, np.float32, seed=6)
        for checksum in (False, True):
            a = compress_sharded(
                data, eps=1e-3, codec=REF, jobs=2,
                shard_elements=2048, checksum=checksum,
            )
            b = compress_sharded(
                data, eps=1e-3, codec=FUS, jobs=2,
                shard_elements=2048, checksum=checksum,
            )
            assert a.stream == b.stream
            _assert_decode_pair(a.stream, data, 1e-3)

    def test_jobs_invariance(self):
        """jobs=1 and jobs=4 produce identical bytes (fused path)."""
        data = _field(1 << 14, np.float32, seed=7)
        one = compress_sharded(
            data, eps=1e-3, codec=FUS, jobs=1, shard_elements=2048,
        )
        four = compress_sharded(
            data, eps=1e-3, codec=FUS, jobs=4, shard_elements=2048,
        )
        assert one.stream == four.stream


class TestFusedErrorParity:
    """Both paths must fail the same way on the same bad input."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_both_paths(self, bad):
        data = _field(256, np.float32, seed=8)
        data[100] = bad
        for codec in (REF, FUS):
            with pytest.raises(ErrorBoundError):
                codec.compress(data, eps=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "bound", [{"eps": 1e-12}, {"eps": 1e-3}, {"rel": 1e-3}]
    )
    def test_nonfinite_error_names_the_input(self, bad, bound):
        """The error blames the data, not the bound: it counts the
        non-finite values and gives the first flat index, on both paths,
        even when the bound is also too tight for the data."""
        data = _field(1 << 12, np.float32, seed=8).reshape(64, 64)
        data[40, 7] = bad
        data[50, 0] = bad
        for codec in (REF, FUS):
            with pytest.raises(NonFiniteInputError) as err:
                codec.compress(data, **bound)
            assert "2 non-finite" in str(err.value)
            assert "flat index 2567" in str(err.value)

    def test_nonfinite_error_indexes_the_field_when_sharded(self):
        data = _field(1 << 12, np.float32, seed=8)
        data[2567] = np.nan
        with pytest.raises(NonFiniteInputError, match="flat index 2567"):
            compress_sharded(
                data, eps=1e-3, codec=FUS, jobs=2, shard_elements=1024
            )

    def test_quantizer_overflow_both_paths(self):
        # M/(2*eps) just over 2**50: overflow guard, not the bound check.
        data = np.full(64, 1e6, dtype=np.float64)
        data[0] = 0.0
        eps = 1e6 / 2.0**52
        for codec in (REF, FUS):
            with pytest.raises(CompressionError):
                codec.compress(data, eps=eps)

    def test_empty_rejected_both_paths(self):
        for codec in (REF, FUS):
            with pytest.raises(CompressionError):
                codec.compress(np.array([], dtype=np.float32), eps=1e-3)


class TestFusedDecodeDispatch:
    def test_reference_stream_fused_decode(self):
        """A stream written by the reference path decodes through the
        fused decoder to the same bits (and vice versa)."""
        data = _field(4096, np.float32, seed=9)
        stream = REF.compress(data, eps=1e-3, index=True).stream
        a = REF.decompress(stream, fast=False)
        b = REF.decompress(stream, fast=True)
        assert a.tobytes() == b.tobytes()

    def test_constant_field_both_paths(self):
        data = np.full(500, 3.25, dtype=np.float32)
        stream = _assert_pair(data, rel=1e-3)
        out = FUS.decompress(stream)
        assert np.array_equal(out, data)

    def test_shape_restored(self):
        data = _field(1024, np.float32, seed=10).reshape(32, 32)
        stream = _assert_pair(data, eps=1e-3)
        out = FUS.decompress(stream)
        assert out.shape == (32, 32)
        assert out.tobytes() == REF.decompress(stream).tobytes()


class TestFusedDecodeChunks:
    """The fused decoder calls ``decode_blocks`` once per chunk on the
    chunk's nonzero records; tiny chunks put chunk edges everywhere."""

    @pytest.mark.parametrize("chunk_elems", [32, 96, 160, 1000])
    @pytest.mark.parametrize("index", [False, True])
    def test_tiny_chunks_match_reference(self, chunk_elems, index):
        from repro.core.compressor import stream_block_layout
        from repro.core.fastpath import fused_decompress_blocks
        from repro.core.format import StreamHeader

        rng = np.random.default_rng(chunk_elems)
        data = _field(5000, np.float32, seed=21)
        data[rng.integers(0, 5000, size=40)] += 1e4  # wide blocks: fl up to ~24
        data[1000:2500] = 0.0  # a run of zero blocks across chunk edges
        stream = _assert_pair(data, eps=1e-2, index=index)
        header, offset = StreamHeader.unpack(stream)
        offsets, fls = stream_block_layout(stream, header, offset)
        assert 0 < np.count_nonzero(fls) < fls.size
        values = fused_decompress_blocks(
            stream, header, offsets, fls, chunk_elems=chunk_elems
        )
        ref = REF.decompress(stream, fast=False)
        assert values.tobytes() == ref.reshape(-1).tobytes()
