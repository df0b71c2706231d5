"""Pre-quantization (compression step 1) and its inverse.

Given an error bound ``eps``, each value is mapped to the integer

.. math:: p_i = \\mathrm{round}(e_i / (2 \\epsilon)) = \\lfloor e_i/(2\\epsilon) + 0.5 \\rfloor

and reconstructed as ``p_i * 2 * eps``. Because ``|p_i - e_i/(2 eps)| <= 0.5``
the reconstruction error is at most ``eps`` — this is the *only* lossy step
in the whole pipeline (paper Section 3, step 1).

The paper's PE kernel implements the division as a multiplication with the
reciprocal of ``2 eps`` followed by an add-0.5 and a floor (that split is
exactly the Multiplication/Addition sub-stage boundary of Table 2). The host
reference here computes in float64 with a true division so the error-bound
guarantee holds for the full float32 input domain; the cycle model still
charges the two sub-stages separately.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError, ErrorBoundError, NonFiniteInputError

#: Quantized magnitudes at or above 2**MAX_QUANT_BITS are rejected: they
#: cannot arise from a sane (eps, data) pairing and would lose exactness in
#: the float64 bit-length computation downstream.
MAX_QUANT_BITS = 50


def validate_error_bound(eps: float) -> float:
    """Check that ``eps`` is a usable absolute error bound and return it."""
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ErrorBoundError(f"error bound must be finite and > 0, got {eps}")
    return eps


def nonfinite_input_error(data: np.ndarray) -> NonFiniteInputError:
    """The error for input holding NaN or +-Inf, naming count and position.

    Callers build it only after a reduction they already run (a peak,
    min or max) came out non-finite, so finite input never pays for the
    extra scan.
    """
    bad = ~np.isfinite(np.asarray(data).reshape(-1))
    return NonFiniteInputError(
        f"input holds {int(np.count_nonzero(bad))} non-finite value(s) "
        f"(NaN or Inf), the first at flat index {int(np.argmax(bad))}; "
        "no error bound can hold for them"
    )


def prequantize(data: np.ndarray, eps: float) -> np.ndarray:
    """Quantize ``data`` to int64 codes with absolute error bound ``eps``.

    Parameters
    ----------
    data:
        Any real-valued array; it is flattened-agnostic (shape preserved).
        Non-finite values are rejected — an error-bounded compressor cannot
        bound the error of an infinity.
    eps:
        Absolute error bound (> 0).

    Returns
    -------
    Integer codes ``p`` with ``|p * 2*eps - data| <= eps`` elementwise.
    """
    eps = validate_error_bound(eps)
    arr = np.asarray(data, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise CompressionError("input contains non-finite values")
    scaled = arr / (2.0 * eps)
    codes = np.floor(scaled + 0.5)
    limit = float(2**MAX_QUANT_BITS)
    if codes.size and float(np.max(np.abs(codes))) >= limit:
        raise CompressionError(
            f"quantization overflow: |code| >= 2**{MAX_QUANT_BITS}; "
            f"the error bound {eps:g} is too small for data of this magnitude"
        )
    return codes.astype(np.int64)


def effective_error_bound(
    data: np.ndarray, eps: float, dtype=np.float32
) -> float:
    """The internal bound that makes the *float32* round trip honor ``eps``.

    :func:`prequantize` bounds the exact reconstruction ``p * 2 eps`` within
    ``eps``, but the decompressor emits ``dtype`` (float32) values: the final
    cast adds up to half a ulp of rounding, which can push a value sitting
    exactly between two quantization bins just past the bound. Quantizing
    against ``eps_eff = eps - 0.5 * ulp(max |value|)`` absorbs the cast:
    quantization error (<= eps_eff) plus cast error (<= margin) never
    exceeds the requested ``eps``. ``eps_eff`` is what gets stored in the
    stream header and used for reconstruction.

    Raises :class:`ErrorBoundError` when ``eps`` is at or below the float32
    resolution at the data's magnitude — no compressor emitting float32 can
    honor such a bound — and its :class:`NonFiniteInputError` subclass when
    the data holds NaN or +-Inf.
    """
    eps = validate_error_bound(eps)
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        return eps
    peak = float(np.max(np.abs(arr)))
    if not np.isfinite(peak):
        raise nonfinite_input_error(arr)
    return effective_bound_from_peak(peak, eps, dtype)


def effective_bound_from_peak(
    peak_abs: float, eps: float, dtype=np.float32
) -> float:
    """:func:`effective_error_bound` given a precomputed ``max |value|``.

    The fused fast path computes the peak magnitude with min/max reductions
    (no ``|data|`` temporary) and must land on the *same* ``eps_eff`` the
    reference stores in its headers, so both derive it here.
    """
    eps = validate_error_bound(eps)
    # The 1e-6 headroom keeps the ulp estimate valid even when the cast of
    # ``peak`` itself rounds down across a binade boundary.
    peak = (float(peak_abs) + eps) * (1.0 + 1e-6)
    with np.errstate(over="ignore"):
        top = np.asarray(peak, dtype=dtype)
    if np.isinf(top):
        # Past the largest finite value: its ulp is the widest there is.
        top = np.nextafter(np.finfo(dtype).max, 0, dtype=dtype)
    margin = 0.5 * float(np.spacing(top))
    eps_eff = eps - margin
    if eps_eff <= 0:
        raise ErrorBoundError(
            f"error bound {eps:g} is below the {np.dtype(dtype).name} "
            f"resolution ({2 * margin:g}) at magnitude {peak:g}"
        )
    # The extreme codes dequantize to the extreme decoded values; if one
    # does not fit the output dtype it would decode to inf.
    two_eps = 2.0 * eps_eff
    extreme = two_eps * max(
        float(np.floor(float(peak_abs) / two_eps + 0.5)),
        -float(np.floor(-float(peak_abs) / two_eps + 0.5)),
    )
    if extreme > float(np.finfo(dtype).max):
        raise ErrorBoundError(
            f"values up to {float(peak_abs):g} with error bound {eps:g} "
            f"can decode to {extreme:g}, past the largest "
            f"{np.dtype(dtype).name} ({float(np.finfo(dtype).max):g})"
        )
    return eps_eff


def prequantize_verified(
    data: np.ndarray, eps: float, dtype=np.float32
) -> tuple[np.ndarray, float]:
    """Quantize with a verified bound on the round-tripped ``dtype`` values.

    Returns ``(codes, eps_eff)``: the codes quantized against the effective
    bound of :func:`effective_error_bound`, post-verified against the
    requested ``eps``. The verification is a single vectorized dequantize +
    compare; by construction it cannot fail, so a failure indicates a model
    error and raises :class:`CompressionError` rather than shipping a
    stream that silently violates its contract.
    """
    eps = validate_error_bound(eps)
    arr = np.asarray(data, dtype=np.float64)
    eps_eff = effective_error_bound(arr, eps, dtype)
    codes = prequantize(arr, eps_eff)
    recon = dequantize(codes, eps_eff, dtype=dtype).astype(np.float64)
    if codes.size and float(np.max(np.abs(recon - arr))) > eps:
        raise CompressionError(
            "internal error: verified quantization exceeded the requested "
            "bound; please report this as a bug"
        )
    return codes, eps_eff


def dequantize(codes: np.ndarray, eps: float, dtype=np.float32) -> np.ndarray:
    """Reconstruct values from quantization codes: ``p * 2 * eps``."""
    eps = validate_error_bound(eps)
    # Single fused pass: the ufunc widens the integer codes to float64 on
    # the fly, so no intermediate float64 copy of the whole field exists.
    out = np.multiply(np.asarray(codes), 2.0 * eps, dtype=np.float64)
    return out.astype(dtype)


def psnr_to_relative(target_psnr_db: float) -> float:
    r"""REL bound that yields (approximately) a target PSNR.

    Uniform quantization noise on bins of width ``2 eps`` has mean squared
    error ``eps^2 / 3``; with the range-based PSNR definition this gives

    .. math:: \mathrm{PSNR} = 20 \log_{10}(1/\mathrm{REL}) + 10 \log_{10} 3

    (the identity behind the paper's Fig 15: REL 1e-4 -> 84.77 dB). The
    inverse lets callers ask for quality instead of a bound. The model is
    exact in the high-resolution limit; sparse data whose codes are mostly
    zero lands slightly above the target (the error there is smaller than
    the uniform-noise assumption).
    """
    target = float(target_psnr_db)
    if not np.isfinite(target) or target <= 0:
        raise ErrorBoundError(
            f"target PSNR must be finite and positive, got {target}"
        )
    return float(np.sqrt(3.0) * 10.0 ** (-target / 20.0))


def relative_to_absolute(data: np.ndarray, rel: float) -> float:
    """Convert a value-range-based relative bound to an absolute one.

    The paper evaluates all compressors with REL bounds: for a dataset with
    value range ``r``, ``REL lambda`` means every pointwise error stays
    within ``lambda * r`` (Section 5.1.3). A constant field has zero range;
    callers must special-case it (see :class:`repro.core.compressor.CereSZ`),
    so this helper refuses to fabricate a bound for it.
    """
    rel = float(rel)
    if not np.isfinite(rel) or rel <= 0:
        raise ErrorBoundError(f"relative bound must be finite and > 0: {rel}")
    arr = np.asarray(data)
    if arr.size == 0:
        raise ErrorBoundError("cannot derive a REL bound from empty data")
    # max/min commute with the (monotonic) cast to float64, so reducing on
    # the native dtype gives the same vrange bit-for-bit without copying
    # the whole array to float64 first.
    vmax = np.float64(np.max(arr))
    vmin = np.float64(np.min(arr))
    if not (np.isfinite(vmax) and np.isfinite(vmin)):
        raise nonfinite_input_error(arr)
    with np.errstate(over="ignore"):
        vrange = float(vmax - vmin)
    if vrange == 0.0:
        raise ErrorBoundError(
            "data has zero value range; REL bound undefined (constant field)"
        )
    if np.isinf(vrange):
        # The range itself overflows float64; the bound it implies may not.
        eps = rel * float(vmax) - rel * float(vmin)
        if not np.isfinite(eps):
            raise ErrorBoundError(
                f"REL {rel:g} of the value range [{float(vmin):g}, "
                f"{float(vmax):g}] exceeds the float64 range"
            )
        return eps
    return rel * vrange
