"""The benchmark's workloads: seeded inputs, closed-loop calls and oracles.

Each workload is a closed loop with one caller in one process: the next
public-API call is made only after the previous one returns. Every input
is built from ``repro.datasets.generate_field(..., seed=<seed>)``; the
bound is REL 1e-3 throughout.

* ``smooth``    RTM field, default ``CereSZ()`` (container v1). 97 % of
  blocks are zero, so decode is dominated by the v1 record-offset walk and
  the bit-shuffle is nearly idle.
* ``turbulent`` HACC field on the same default calls. No block is zero;
  the bit-shuffle dominates compress, and decode splits between the
  offset walk and the payload decode.
* ``archive``   ``compress(checksum=True, jobs=2)``, ``verify_stream``,
  ``decompress(jobs=2)`` on alternating 1 Mi-element RTM / HACC stretches,
  so the four shards alternate cheap and expensive: the v3 index, CRC32C
  and the thread shard pool carry the work.
* ``wafer``     ``WSECereSZ(16, 256, strategy="multi", mode="hybrid")``
  compressing one row of 256 HACC blocks tiled over 16 rows (one block per
  PE, the Fig 14 regime); the host codec is idle and the time is plan,
  lowering, event engine and composition.

The oracles run outside the timed region: the default stream must be
byte-equal to the reference codec (``CereSZ(fast=False)``; the wafer
stream to host ``CereSZ()`` on the tiled field), every decode must keep
max|x - x_hat| <= eps, and every ``verify_stream`` report must be ok.
"""

from __future__ import annotations

import time

import numpy as np

from repro import CereSZ, WSECereSZ
from repro.config import BLOCK_SIZE, CERESZ_HEADER_BYTES
from repro.core import (
    compressor,
    decompressor,
    fastpath,
    integrity,
    parallel,
    quantize,
    simulate,
    wse_compressor,
)
from repro.core.encoding import record_sizes
from repro.core.predictors import LORENZO_1D
from repro.core.quantize import relative_to_absolute
from repro.datasets import generate_field
from repro.metrics.errorbound import check_error_bound
from repro.perf.model import eq4_total_cycles, hybrid_model_gap
from repro.perf.wafer import measure_workload
from repro.wse.engine import Engine

REL = 1e-3
#: 16.8 MB of float32 per host field (the last-level cache size is
#: recorded next to every result, since the field may fit in it).
FIELD_ELEMS = 4_194_304
WAFER_ROWS, WAFER_COLS = 16, 256
#: A host decode or verify of the 0.5 MB wafer stream takes milliseconds,
#: so each wafer iteration repeats them to get enough samples.
WAFER_DECODES = 20
#: Serial repeats per shard when measuring the shard pool's imbalance.
SHARD_REPEATS = 3


def layer_targets():
    """``(owner, attribute, span name)`` for every interposed layer call.

    The owner is the namespace the default path looks the function up in,
    so each span sits where the call happens: the offset scans are caught
    in the decoder (``compressor``), not in ``verify_stream``, whose walk
    stays in its own self time. ``encoding.block_fixed_lengths`` is the
    width scan: ``block_fixed_lengths`` on the reference path, its
    ``exact_bit_lengths`` core on the fused path.
    """
    return [
        (fastpath, "fused_compress_blocks", "fastpath.compress"),
        (fastpath, "fused_decompress_blocks", "fastpath.decompress"),
        (fastpath, "pack_records", "encoding.pack_records"),
        (fastpath, "decode_blocks", "encoding.decode_blocks"),
        (fastpath, "exact_bit_lengths", "encoding.block_fixed_lengths"),
        (compressor, "block_fixed_lengths", "encoding.block_fixed_lengths"),
        (compressor, "scan_record_offsets", "encoding.scan_record_offsets"),
        (compressor, "index_record_offsets", "encoding.index_record_offsets"),
        (quantize, "prequantize", "quantize.prequantize"),
        (LORENZO_1D, "predict_blocks", "predictors.predict_blocks"),
        (LORENZO_1D, "reconstruct_blocks", "predictors.reconstruct_blocks"),
        (compressor, "assemble_stream", "compressor.assemble_stream"),
        (compressor, "stream_block_layout", "compressor.stream_block_layout"),
        (integrity, "compute_group_crcs", "integrity.compute_group_crcs"),
        (decompressor, "verify_stream", "decompressor.verify_stream"),
        (parallel, "compress_sharded", "parallel.compress_sharded"),
        (parallel, "decompress_sharded", "parallel.decompress_sharded"),
        (wse_compressor, "plan_multi_pipeline", "plan.build"),
        (simulate, "lower_plan", "lower.lower_plan"),
        (Engine, "run", "engine.run"),
        (wse_compressor, "simulate_replicated", "simulate.replicated"),
    ]


def _field(dataset: str, seed: int, n: int = FIELD_ELEMS) -> np.ndarray:
    return np.resize(generate_field(dataset, 0, seed=seed).reshape(-1), n)


def _codec_facts(fl: np.ndarray, raw_bytes: int, stream: bytes) -> dict:
    fl = np.asarray(fl)
    return {
        "ratio": raw_bytes / len(stream),
        "codec.blocks": int(fl.size),
        "codec.zero_block_frac": float(np.mean(fl == 0)),
        "codec.mean_fl": float(np.mean(fl)),
        "codec.payload_bytes": int(
            record_sizes(fl, BLOCK_SIZE, CERESZ_HEADER_BYTES).sum()
        ),
    }


class HostWorkload:
    """Compress, verify and decompress one 16.8 MB field per iteration."""

    decodes = 1
    oracle = "CereSZ(fast=False)"

    def __init__(
        self, name, make_field, compress_kw=None, decompress_kw=None,
        compresses=1,
    ):
        self.name = name
        self.make_input = make_field
        #: Compress calls per iteration of the untraced run (the traced run
        #: makes one, so per-layer figures stay those of one round trip).
        self.compresses = compresses
        self.compress_kw = dict(compress_kw or {})
        self.decompress_kw = dict(decompress_kw or {})

    def raw_bytes(self, x: np.ndarray) -> int:
        return int(x.nbytes)

    def build(self, traced: bool = False):
        return CereSZ()

    def compress(self, codec, x):
        return codec.compress(x, rel=REL, **self.compress_kw)

    def decompress(self, codec, stream):
        return codec.decompress(stream, **self.decompress_kw)

    def expected(self):
        """The field a decode must reproduce within eps."""
        return self.x

    def bound(self, res) -> float:
        return res.eps

    def prepare(self, x, tally) -> bool:
        """Run the oracles needed once per run; False if they failed."""
        self.x = x
        self.reference = tally.call(
            "oracle",
            lambda: CereSZ(fast=False).compress(
                x, rel=REL, **self.compress_kw
            ),
        )
        return self.reference is not None

    def facts(self, res) -> dict:
        """Deterministic figures of one compress result."""
        out = _codec_facts(
            res.fixed_lengths, self.raw_bytes(self.x), res.stream
        )
        if parallel.is_sharded(res.stream):
            out["parallel.shards"] = len(
                parallel.read_shard_container(res.stream).spans
            )
        return out

    def iteration(self, codec, tally, compresses=1):
        """One closed-loop round trip; returns the compress result."""
        x = self.expected()
        for _ in range(compresses):
            res = tally.call("compress", self.compress, codec, self.x)
            if res is None:
                return None
            if res.stream != self.reference.stream:
                tally.fail(f"compress: stream differs from {self.oracle}")
        for _ in range(self.decodes):
            rep = tally.call("verify", decompressor.verify_stream, res.stream)
            if rep is not None and not rep.ok:
                tally.fail(f"verify: report not ok ({rep.note})")
            y = tally.call("decompress", self.decompress, codec, res.stream)
            if y is not None and not (
                y.shape == x.shape and check_error_bound(x, y, self.bound(res))
            ):
                tally.fail("decompress: wrong shape or max|x - x_hat| > eps")
        return res

    def traced_extras(self, tally) -> dict:
        return {}


def _archive_field(seed: int) -> np.ndarray:
    """Alternating RTM / HACC stretches, one shard each, scaled to range 1.

    Dividing by the stretch's own value range (not shifting) keeps RTM's
    zeros at zero, and gives both kinds of stretch the same range, so one
    REL bound means the same thing on both.
    """
    rtm = _field("RTM", seed)
    hacc = _field("HACC", seed)
    shard = parallel.DEFAULT_SHARD_ELEMENTS
    out = np.empty(FIELD_ELEMS, dtype=np.float32)
    for k, lo in enumerate(range(0, FIELD_ELEMS, shard)):
        part = (rtm if k % 2 == 0 else hacc)[lo : lo + shard]
        span = float(part.max()) - float(part.min())
        out[lo : lo + shard] = part / np.float32(span)
    return out


class ArchiveWorkload(HostWorkload):
    def traced_extras(self, tally) -> dict:
        """Slowest shard's serial compress time over the mean."""
        shard = parallel.DEFAULT_SHARD_ELEMENTS
        bound = relative_to_absolute(self.x, REL)
        codec = CereSZ()
        times = []
        for lo in range(0, self.x.size, shard):
            part = self.x[lo : lo + shard]
            samples = []
            for _ in range(SHARD_REPEATS):
                t0 = time.perf_counter()
                res = tally.call(
                    "shard_probe",
                    lambda: codec.compress(
                        part, eps=bound, index=True, checksum=True
                    ),
                )
                samples.append(time.perf_counter() - t0)
                if res is None:
                    return {}
            times.append(float(np.median(samples)))
        return {"parallel.imbalance": max(times) / float(np.mean(times))}


class WaferWorkload(HostWorkload):
    """Simulated wafer compress, then host verify and decode of the stream."""

    decodes = WAFER_DECODES
    oracle = "host CereSZ() on the tiled field"

    def __init__(self):
        super().__init__(
            "wafer",
            lambda seed: _field("HACC", seed, WAFER_COLS * BLOCK_SIZE),
        )

    def raw_bytes(self, x: np.ndarray) -> int:
        return int(x.nbytes) * WAFER_ROWS

    def build(self, traced: bool = False):
        return WSECereSZ(
            WAFER_ROWS, WAFER_COLS, strategy="multi", mode="hybrid",
            collect_metrics=traced,
        )

    def compress(self, codec, x):
        return codec.compress(x, rel=REL, tile_rows=True)

    def decompress(self, codec, stream):
        return codec.decompress(stream)

    def expected(self):
        return self.tiled

    def bound(self, res) -> float:
        return res.result.eps

    def prepare(self, x, tally) -> bool:
        self.x = x
        self.tiled = np.tile(x, WAFER_ROWS)
        self.reference = tally.call(
            "oracle", lambda: CereSZ().compress(self.tiled, rel=REL)
        )
        block_cycles = tally.call(
            "model",
            lambda: measure_workload(
                x, relative_to_absolute(x, REL)
            ).mean_cycles("compress"),
        )
        self.model = dict(
            num_blocks=WAFER_ROWS * WAFER_COLS,
            rows=WAFER_ROWS,
            total_cols=WAFER_COLS,
            block_cycles=block_cycles,
        )
        return self.reference is not None and block_cycles is not None

    def facts(self, res) -> dict:
        ref = self.reference
        out = _codec_facts(ref.fixed_lengths, self.raw_bytes(self.x), res.stream)
        makespan = float(res.makespan_cycles)
        trace = res.report.trace
        out.update(
            {
                "wse.makespan_cycles": makespan,
                "engine.events": int(res.report.events_processed),
                "sim_gbps": trace.throughput_bytes_per_s(
                    res.result.original_bytes
                )
                / 1e9,
                "eq4_gap_abs": abs(hybrid_model_gap(makespan, **self.model)),
                "model.eq4_cycles": eq4_total_cycles(
                    pipeline_length=1, **self.model
                ),
            }
        )
        if res.metrics is not None:
            out.update(_registry_facts(res.metrics.snapshot(), makespan))
        return out


def _registry_facts(snap: dict, makespan: float) -> dict:
    """Engine, fabric and PE figures from the ``collect_metrics`` registry."""

    def value(name, key=""):
        return snap.get(name, {}).get("values", {}).get(key, 0)

    hits = value("sim.route_cache", "outcome=hit")
    misses = value("sim.route_cache", "outcome=miss")
    busy = value("sim.pe.busy_cycles") or {"sum": 0.0, "count": 0}
    return {
        "engine.events": int(value("sim.engine.events")),
        "engine.queue_depth_max": float(value("sim.engine.queue_depth.max")),
        "fabric.route_cache_hit_ratio": hits / (hits + misses)
        if hits + misses
        else 0.0,
        "wse.compute_cycles": float(value("sim.pe.compute_cycles")),
        "wse.relay_cycles": float(value("sim.pe.relay_cycles")),
        "wse.pe_busy_frac": busy["sum"] / busy["count"] / makespan
        if busy["count"]
        else 0.0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # A smooth compress takes a quarter of its decode; four per
        # iteration sample it about as often, in time, as the decode.
        HostWorkload("smooth", lambda seed: _field("RTM", seed), compresses=4),
        HostWorkload("turbulent", lambda seed: _field("HACC", seed)),
        ArchiveWorkload(
            "archive",
            _archive_field,
            compress_kw={"checksum": True, "jobs": 2},
            decompress_kw={"jobs": 2},
        ),
        WaferWorkload(),
    )
}
