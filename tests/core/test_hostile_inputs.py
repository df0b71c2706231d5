"""Differential property over hostile inputs.

Subnormals, signed zeros, values at the edge of the float range, REL
bounds on constant fields and float64 fields spanning hundreds of decades
go through every codec path: the reference, the fused default, the shard
engine (``jobs=2``), salvage of a clean stream and, for float32 input, the
simulated wafer (``mode="hybrid"`` on a 2x2 mesh). All paths must write
the same bytes, decode to the same bits, and keep every value within the
bound — or all reject the input with the same error type. The wafer
rejects float64 input outright, naming its float32 datapath.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CereSZ, WSECereSZ
from repro.core.decompressor import salvage_decompress
from repro.errors import CompressionError, ReproError

REF = CereSZ(fast=False)
FUS = CereSZ()

FAMILIES = ("subnormal", "signed_zero", "near_max", "constant_rel", "huge_range")


def _hostile(family, dtype, n, seed):
    """``(field, bound kwargs)`` of one hostile family."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    fmax = float(np.finfo(dtype).max)
    tiny = float(np.finfo(dtype).smallest_subnormal)
    if family == "subnormal":
        x = rng.integers(-(2**12), 2**12, size=n) * tiny
        kw = {"rel": 1e-3} if seed % 2 else {"eps": tiny * 2 ** (seed % 8)}
    elif family == "signed_zero":
        x = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        if seed % 2:
            x[rng.random(n) < 0.2] = 1.5
        kw = {"eps": 1e-3} if seed % 3 else {"rel": 1e-3}
    elif family == "near_max":
        x = fmax * rng.uniform(-1.0, 1.0, size=n)
        x[rng.random(n) < 0.1] = fmax
        x[rng.random(n) < 0.1] = -fmax
        kw = {"rel": 10.0 ** -(1 + seed % 5)}
    elif family == "constant_rel":
        c = (0.0, -0.0, 1.5, fmax, -fmax, tiny)[seed % 6]
        x = np.full(n, c)
        kw = {"rel": 1e-3}
    else:  # huge_range: float64 magnitudes over hundreds of decades
        exps = rng.uniform(-300.0, 300.0, size=n)
        x = np.sign(rng.standard_normal(n)) * 10.0**exps
        kw = {"rel": 1e-3} if seed % 2 else {"eps": 1e-3}
        dtype = np.dtype(np.float64)
    return x.astype(dtype), kw


def _attempt(fn):
    try:
        return fn(), None
    except ReproError as exc:
        return None, exc


def _check_decode(stream, x, eps, reference):
    values = FUS.decompress(stream)
    assert values.tobytes() == reference.tobytes()
    assert np.all(np.isfinite(values))
    err = np.abs(values.astype(np.float64) - x.astype(np.float64))
    assert float(err.max(initial=0.0)) <= eps


@given(
    family=st.sampled_from(FAMILIES),
    dtype=st.sampled_from(["f4", "f8"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_paths_agree_on_hostile_inputs(family, dtype, n, seed):
    x, kw = _hostile(family, dtype, n, seed)
    ref, error = _attempt(lambda: REF.compress(x, **kw))
    wafer = x.dtype == np.float32
    if not wafer:
        with pytest.raises(CompressionError, match="datapath is float32"):
            WSECereSZ(rows=2, cols=2, mode="hybrid").compress(x, **kw)

    if error is not None:
        # A rejection must be unanimous and name its cause.
        assert str(error)
        for call in (
            lambda: FUS.compress(x, **kw),
            lambda: FUS.compress(x, jobs=2, **kw),
        ):
            with pytest.raises(type(error)):
                call()
        if wafer:
            with pytest.raises(ReproError):
                WSECereSZ(rows=2, cols=2, mode="hybrid").compress(x, **kw)
        return

    assert FUS.compress(x, **kw).stream == ref.stream
    decoded = REF.decompress(ref.stream, fast=False)
    assert decoded.dtype == x.dtype
    _check_decode(ref.stream, x, ref.eps, decoded)

    sharded = FUS.compress(x, jobs=2, **kw).stream
    assert sharded == REF.compress(x, jobs=2, **kw).stream
    _check_decode(sharded, x, ref.eps, decoded)

    salvaged, report = salvage_decompress(ref.stream)
    assert report.blocks_lost == 0
    assert salvaged.tobytes() == decoded.tobytes()

    if wafer:
        sim = WSECereSZ(rows=2, cols=2, mode="hybrid")
        if x.max() == x.min() and "rel" in kw:
            with pytest.raises(CompressionError, match="constant"):
                sim.compress(x, **kw)
        else:
            assert sim.compress(x, **kw).stream == ref.stream


@pytest.mark.parametrize("dtype", ["f8", "f2", "i4"])
def test_wafer_rejects_non_float32_input(dtype):
    """The wafer writes an f4 container from its float32 datapath, so any
    other dtype is refused up front rather than silently cast."""
    x = np.linspace(-1.0, 1.0, 4 * 32).astype(dtype)
    sim = WSECereSZ(rows=2, cols=2, mode="hybrid")
    for call in (
        lambda: sim.compress(x, rel=1e-3),
        lambda: sim.compress(x, rel=1e-3, tile_rows=True),
        lambda: sim.plan_for(x, rel=1e-3),
    ):
        with pytest.raises(CompressionError, match=f"float32, got {x.dtype}"):
            call()
    assert sim.compress(x.astype(np.float32), rel=1e-3).stream == (
        REF.compress(x.astype(np.float32), rel=1e-3).stream
    )


@pytest.mark.parametrize("dtype", ["f4", "f8"])
def test_largest_finite_values_round_trip(dtype):
    """A field holding +-max: the ulp margin must come from the top binade,
    not from the infinite spacing past the largest finite value."""
    fmax = np.finfo(dtype).max
    x = np.array([fmax, -fmax, 0.0, fmax / 3] * 16, dtype=dtype)
    result = FUS.compress(x, rel=1e-3)
    assert result.stream == REF.compress(x, rel=1e-3).stream
    _check_decode(result.stream, x, result.eps, REF.decompress(result.stream))


def test_decode_overflow_is_named():
    """A bound so wide that the top code dequantizes past the largest
    float32 is rejected before any stream is written, saying so."""
    x = np.array([3.0e38, -1.0, 2.0], dtype=np.float32)
    for codec in (REF, FUS):
        with pytest.raises(ReproError, match="past the largest float32"):
            codec.compress(x, eps=2.0e38)
