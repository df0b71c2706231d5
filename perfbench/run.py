"""Benchmark of the CereSZ host codec and the simulated wafer.

One run measures one workload (see ``workloads.py``) for ``--seconds`` as
a closed loop with one caller, checks every output against the oracles,
and prints human-readable lines followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
On a small shared host, co-tenant load slows whole stretches of a run (a
run's fastest call swung by up to 70 % between runs of the same code), so
the timed calls are interleaved with a fixed reference kernel
(``reference.py``): each call's time is divided by the mean of the
kernel's times just before and after it and scaled by the kernel's
nominal time. Each throughput is raw input bytes over the median
normalized call of that kind, and ``setup_s`` is normalized the same way.
The raw fastest and median calls, every sample and every kernel time are
printed or kept in the result file.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: spans recorded around the calls into each layer's
public functions (``spans.py``), summed per iteration and reported as
the median over traced iterations, plus the engine, fabric and PE figures
of the wafer's ``collect_metrics`` registry. Its spans, self times and the
tracing overhead (traced minus untraced figures) are written to
``.perfbench_out/`` in the checkout.

Usage::

    python3 perfbench/run.py --workload smooth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one table

Figures that must repeat exactly at one seed (ratio, codec and wafer
counts, simulated throughput, model gap) are compared across the
iterations of a run and against every earlier run of the same code at
that seed in the same checkout; any drift fails the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("smooth", "turbulent", "archive", "wafer")
#: Fresh-process set-up probes per run; set-up and peak RSS are medians.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
MIN_ITERATIONS = 3
#: Timed calls that are normalized by the reference kernel.
TIMED_OPS = ("compress", "verify", "decompress")
#: Run the reference kernel once at least this much timed call time has
#: passed since its last run: after nearly every host call, and after
#: every dozen or so of the wafer's decodes of its 0.5 MB stream.
REF_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "compress_mbps": "MB/s",
    "decompress_mbps": "MB/s",
    "verify_mbps": "MB/s",
    "ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> span whose per-iteration total (or self time) it is.
SPAN_METRICS = {
    "fastpath.compress_s": "fastpath.compress",
    "fastpath.decompress_s": "fastpath.decompress",
    "encoding.pack_records_s": "encoding.pack_records",
    "encoding.decode_blocks_s": "encoding.decode_blocks",
    "encoding.scan_record_offsets_s": "encoding.scan_record_offsets",
    "encoding.index_record_offsets_s": "encoding.index_record_offsets",
    "encoding.block_fixed_lengths_s": "encoding.block_fixed_lengths",
    "quantize.prequantize_s": "quantize.prequantize",
    "predictors.predict_blocks_s": "predictors.predict_blocks",
    "predictors.reconstruct_blocks_s": "predictors.reconstruct_blocks",
    "compressor.assemble_stream_s": "compressor.assemble_stream",
    "compressor.stream_block_layout_s": "compressor.stream_block_layout",
    "integrity.compute_group_crcs_s": "integrity.compute_group_crcs",
    "decompressor.verify_stream_s": "decompressor.verify_stream",
    "parallel.compress_sharded_s": "parallel.compress_sharded",
    "parallel.decompress_sharded_s": "parallel.decompress_sharded",
    "plan.build_s": "plan.build",
    "lower.lower_plan_s": "lower.lower_plan",
    "engine.run_s": "engine.run",
    "simulate.replicated_s": "simulate.replicated",
}
SELF_METRICS = {
    "fastpath.compress_self_s": "fastpath.compress",
    "fastpath.decompress_self_s": "fastpath.decompress",
}
#: Per-layer figures read from compress results or measured once per run.
FACT_METRICS = {
    "parallel.shards": "count",
    "parallel.imbalance": "ratio",
    "codec.blocks": "count",
    "codec.zero_block_frac": "ratio",
    "codec.mean_fl": "bits",
    "codec.payload_bytes": "bytes",
    "engine.events": "count",
    "engine.queue_depth_max": "count",
    "fabric.route_cache_hit_ratio": "ratio",
    "wse.makespan_cycles": "cycles",
    "wse.compute_cycles": "cycles",
    "wse.relay_cycles": "cycles",
    "wse.pe_busy_frac": "ratio",
    "model.eq4_cycles": "cycles",
    "sim_gbps": "GB/s",
    "eq4_gap_abs": "ratio",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "s" for name in SELF_METRICS},
    "simulate.compose_s": "s",
    "engine.events_per_s": "1/s",
    "sim_wall_s": "s",
    "trace.overhead_frac": "ratio",
    **FACT_METRICS,
}
#: Figures that must repeat exactly across runs at one seed.
DETERMINISTIC = ("ratio", "sim_gbps", "eq4_gap_abs", "engine.events")
DETERMINISTIC_PREFIXES = ("codec.", "wse.")


class Tally:
    """Counts operations, failures and per-op timings of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.iteration_time: dict[tuple[str, int], float] = {}
        self.bucket = "untraced"
        self.iteration: int | None = None
        self.recorder = None
        #: Set in untraced runs: times the reference kernel between calls.
        self.reference: Reference | None = None
        self.ref_times: list[float] = []
        #: op -> (call time, index of the kernel run just before the call)
        self.timed: dict[str, list[tuple[float, int]]] = {}
        self.pending: list[tuple[str, float]] = []

    def call(self, op: str, fn, *args, **kwargs):
        """Time one call; an exception counts as a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.recorder is not None:
                with self.recorder.span(f"op.{op}"):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted
            self.fail(f"{op}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.samples.setdefault((self.bucket, op), []).append(dt)
        if self.iteration is not None:
            key = (self.bucket, self.iteration)
            self.iteration_time[key] = self.iteration_time.get(key, 0.0) + dt
        if self.reference is not None and op in TIMED_OPS:
            self.pending.append((op, dt))
            if sum(t for _, t in self.pending) >= REF_EVERY_S:
                self.calibrate()
        return out

    def calibrate(self) -> None:
        """Time the reference kernel; the calls made since its last run
        lie between that run and this one."""
        now = self.reference.run()
        before = len(self.ref_times) - 1
        for op, dt in self.pending:
            self.timed.setdefault(op, []).append((dt, before))
        self.pending = []
        self.ref_times.append(now)

    def normalized(self, op: str) -> list[float]:
        """Each call's time over the mean kernel time around it, scaled to
        the kernel's nominal time."""
        ref = self.ref_times
        return [
            dt * REFERENCE_S * 2 / (ref[k] + ref[k + 1])
            for dt, k in self.timed.get(op, [])
        ]

    def fail(self, message: str) -> None:
        """Count a failed operation: an exception or a failed oracle check."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def median(self, op: str, bucket: str = "untraced") -> float | None:
        values = self.samples.get((bucket, op))
        return statistics.median(values) if values else None

    def best(self, op: str) -> float | None:
        values = self.samples.get(("untraced", op))
        return min(values) if values else None


def environment(field_bytes: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "field_bytes": field_bytes,
        "llc_bytes": last_level_cache_bytes(),
    }


def last_level_cache_bytes() -> int | None:
    """Size of CPU 0's highest cache level as the kernel reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    try:
        for index in base.glob("index*"):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            value = int(size.rstrip("KMG")) * scale
            if level >= best[0]:
                best = (level, value)
    except (OSError, ValueError):
        return None
    return best[1]


def setup_probes(name: str, x, tally: Tally) -> tuple[list[float], list[float]]:
    """Cold set-up time and peak RSS from fresh interpreters; each set-up
    time is normalized by the reference kernel timed around its probe."""
    setups, rss = [], []
    payload = x.tobytes()
    before = tally.reference.run()
    for _ in range(SETUP_REPEATS):
        tally.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_child.py"), name],
                input=payload,
                capture_output=True,
                timeout=SETUP_TIMEOUT_S,
                cwd=ROOT,
                check=True,
            )
            probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            tally.fail(f"setup probe: {type(exc).__name__}: {exc}")
            continue
        after = tally.reference.run()
        setups.append(float(probe["setup_s"]) * REFERENCE_S * 2 / (before + after))
        rss.append(float(probe["peak_rss_mb"]))
        before = after
    return setups, rss


def is_deterministic(key: str) -> bool:
    return key in DETERMINISTIC or key.startswith(DETERMINISTIC_PREFIXES)


def merge_facts(facts: dict, new: dict, tally: Tally, where: str) -> None:
    """Fold one iteration's facts in; a deterministic figure may not drift."""
    for key, value in new.items():
        if key in facts and is_deterministic(key) and facts[key] != value:
            tally.fail(f"determinism: {key} {facts[key]!r} -> {value!r} {where}")
        facts.setdefault(key, value)


def code_fingerprint() -> str:
    """Digest of the package and benchmark sources: what "same code" means."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def guard_across_runs(workload: str, seed: int, facts: dict, tally: Tally):
    """Compare deterministic facts with earlier runs of this code and seed."""
    path = OUT_DIR / "determinism.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}/seed{seed}/{code_fingerprint()}"
    earlier = seen.get(key, {})
    mine = {k: v for k, v in facts.items() if is_deterministic(k)}
    merge_facts(earlier, mine, tally, "across runs at this seed")
    seen[key] = earlier
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)


def measure(workload, x, seconds: float, trace: bool, tally: Tally):
    """The closed loop; returns (facts, recorder, iterations by bucket)."""
    from spans import SpanRecorder, interposed
    from workloads import layer_targets

    facts: dict = {}
    done: dict[str, list[int]] = {"untraced": [], "traced": []}
    codec = workload.build()
    tally.call("warmup", workload.compress, codec, x)
    if not workload.prepare(x, tally):
        return facts, None, done
    traced_codec = workload.build(traced=True) if trace else None
    if trace:
        tally.call("warmup", workload.compress, traced_codec, x)
    recorder = SpanRecorder() if trace else None
    targets = layer_targets()
    if tally.reference is not None:
        tally.calibrate()
    deadline = time.perf_counter() + seconds
    it = 0
    while it < MIN_ITERATIONS * (2 if trace else 1) or (
        time.perf_counter() < deadline
    ):
        traced = trace and it % 2 == 1
        gc.collect()
        tally.iteration = it
        tally.bucket = "traced" if traced else "untraced"
        if traced:
            recorder.iteration = it
            tally.recorder = recorder
            try:
                with interposed(recorder, targets):
                    res = workload.iteration(traced_codec, tally)
            finally:
                tally.recorder = None
                recorder.iteration = None
        else:
            res = workload.iteration(
                codec, tally, 1 if trace else workload.compresses
            )
        if res is not None:
            merge_facts(facts, workload.facts(res), tally, f"at iteration {it}")
            done[tally.bucket].append(it)
        it += 1
    tally.iteration = None
    tally.bucket = "untraced"
    if tally.pending:
        tally.calibrate()
    if trace:
        facts.update(workload.traced_extras(tally))
    return facts, recorder, done


def end_to_end_metrics(raw_bytes, tally, setups, rss, facts) -> dict:
    def rate(op):
        values = tally.normalized(op)
        return raw_bytes / statistics.median(values) / 1e6 if values else 0.0

    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "compress_mbps": rate("compress"),
        "decompress_mbps": rate("decompress"),
        "verify_mbps": rate("verify"),
        "ratio": facts.get("ratio", 0.0),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }


def per_layer_metrics(recorder, done, tally, facts) -> tuple[dict, dict]:
    """Per-layer figures, plus the self time of every span name."""
    from spans import per_iteration_totals

    iters = done.get("traced", [])
    totals = per_iteration_totals(recorder.spans) if recorder else {}
    selfs = per_iteration_totals(recorder.spans, self_time=True) if recorder else {}

    def med(table, span):
        cell = table.get(span, {})
        return statistics.median(cell.get(i, 0.0) for i in iters) if iters else 0.0

    out = {m: med(totals, s) for m, s in SPAN_METRICS.items()}
    out.update({m: med(selfs, s) for m, s in SELF_METRICS.items()})
    compose = [
        totals.get("simulate.replicated", {}).get(i, 0.0)
        - totals.get("lower.lower_plan", {}).get(i, 0.0)
        - totals.get("engine.run", {}).get(i, 0.0)
        for i in iters
    ]
    out["simulate.compose_s"] = (
        statistics.median(compose) if compose and out["simulate.replicated_s"] else 0.0
    )
    out["engine.events_per_s"] = (
        facts.get("engine.events", 0) / out["engine.run_s"]
        if out["engine.run_s"]
        else 0.0
    )
    out["sim_wall_s"] = (
        tally.median("compress") if "wse.makespan_cycles" in facts else 0.0
    )
    untraced = [tally.iteration_time[("untraced", i)] for i in done["untraced"]]
    traced = [tally.iteration_time[("traced", i)] for i in iters]
    base = statistics.median(untraced) if untraced else 0.0
    out["trace.overhead_frac"] = (
        (statistics.median(traced) - base) / base if traced and base else 0.0
    )
    for name in FACT_METRICS:
        out[name] = facts.get(name, 0)
    self_table = {
        span: statistics.median(cell.get(i, 0.0) for i in iters)
        for span, cell in sorted(selfs.items())
        if iters
    }
    return out, self_table


def write_json(path: Path, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    x = workload.make_input(args.seed)
    raw_bytes = workload.raw_bytes(x)
    env = environment(raw_bytes)
    tally = Tally()
    setups, rss = [], []
    if not args.trace:
        tally.reference = Reference()
        setups, rss = setup_probes(args.workload, x, tally)
    facts, recorder, done = measure(
        workload, x, args.seconds, bool(args.trace), tally
    )
    guard_across_runs(args.workload, args.seed, facts, tally)

    if args.trace:
        metrics, self_table = per_layer_metrics(recorder, done, tally, facts)
        units = PER_LAYER
        figures = {
            bucket: {
                op: tally.median(op, bucket)
                for op in ("compress", "verify", "decompress")
            }
            for bucket in ("untraced", "traced")
        }
        write_json(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {
                "workload": args.workload,
                "seed": args.seed,
                "env": env,
                "per_layer": metrics,
                "self_time_s": self_table,
                "op_median_s": figures,
                "spans": [vars(s) for s in recorder.spans] if recorder else [],
            },
        )
    else:
        metrics = end_to_end_metrics(raw_bytes, tally, setups, rss, facts)
        units = END_TO_END
    correct = tally.failed == 0 and bool(done.get("untraced"))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    n_iter = len(done.get("untraced", [])) + len(done.get("traced", []))
    print(f"iterations {n_iter}, operations {tally.attempted}, failed {tally.failed}")
    for message in tally.errors:
        print(f"FAILED {message}")
    calls = {
        op: {
            "calls": len(tally.samples.get(("untraced", op), [])),
            "best_s": tally.best(op),
            "median_s": tally.median(op),
            "samples_s": tally.samples.get(("untraced", op), []),
            "normalized_s": tally.normalized(op),
            "ref_index": [k for _, k in tally.timed.get(op, [])],
        }
        for op in TIMED_OPS
    }
    for op, c in calls.items():
        print(
            f"{op}: {c['calls']} untraced calls, best {c['best_s']} s, "
            f"median {c['median_s']} s"
        )
    if tally.ref_times:
        print(
            f"reference kernel: {len(tally.ref_times)} runs, median "
            f"{statistics.median(tally.ref_times):.4f} s "
            f"(nominal {REFERENCE_S} s)"
        )
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    if not args.trace and "wse.makespan_cycles" in facts:
        print(f"  {'sim_wall_s':34s} {tally.median('compress'):>16.6g} s")
        print(f"  {'sim_gbps':34s} {facts['sim_gbps']:>16.6g} GB/s")
        print(f"  {'eq4_gap_abs':34s} {facts['eq4_gap_abs']:>16.6g} ratio")
    if args.trace:
        print("self time per layer (s, median per iteration):")
        for span, value in self_table.items():
            print(f"  {span:34s} {value:>16.6g}")
        print("tracing overhead (traced minus untraced median call, s):")
        for op, untraced in figures["untraced"].items():
            traced = figures["traced"][op]
            if traced is not None and untraced is not None:
                print(f"  {op:34s} {traced - untraced:>+16.6g}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    write_json(
        OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "env": env,
            "calls": calls,
            "reference_s": tally.ref_times,
            "result": result,
        },
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table at the end."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':34s} {'unit':>6s} " + " ".join(f"{n:>12s}" for n in rows))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = " ".join(
            f"{r['metrics'][metric]['value']:>12.5g}" for r in rows.values()
        )
        print(f"{metric:34s} {unit:>6s} {cells}")
    for name, r in rows.items():
        print(f"{name}: correct {r['correct']}, {r['attempted']} operations, {r['failed']} failed")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
