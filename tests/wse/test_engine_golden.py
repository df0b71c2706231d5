"""Golden engine fingerprints: the simulator's observable results, pinned.

``golden/engine_fingerprints.json`` was written by running this module as a
script against a known-good tree (``python tests/wse/test_engine_golden.py
--write tests/wse/golden/engine_fingerprints.json``). For every lowered
plan below it holds the compressed records, the makespan, each PE's
``(compute_cycles, relay_cycles, tasks_run, finished_at)`` and inbox
high-water mark, the per-node :class:`~repro.wse.trace.NodeCounters` and
the sorted per-PE timeline. A ``PEHalt`` sweep on a 1x8 multi-pipeline
row pins the same fields (bar the records) plus the
:class:`~repro.errors.DeadlockError` message and
:class:`~repro.faults.report.FaultReport`; its halt cycles include cycles
at which a relay task re-armed in the clean run, so the tie between a halt
and a re-arm due at the same cycle is pinned too.

Engine changes may only move ``events_processed``, and only down: every
other recorded field must match the fixture exactly, and no run may process
more events than the fixture pins (the event-queue slimming and counted
relays described in :mod:`repro.wse.engine` keep every run under it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.lower import lower_plan
from repro.core.plan import (
    plan_multi_pipeline,
    plan_pipeline,
    plan_row_parallel,
    plan_staged_multi_pipeline,
)
from repro.core.schedule import distribute_substages
from repro.core.stages import compression_substages
from repro.errors import DeadlockError
from repro.faults import FaultPlan, PEHalt
from repro.obs.tracing import Tracer
from repro.wse.cost import PAPER_CYCLE_MODEL
from repro.wse.engine import Engine
from repro.wse.fabric import Fabric

GOLDEN = Path(__file__).parent / "golden" / "engine_fingerprints.json"

EPS = 0.05
BLOCK = 32
#: Staged plans size their shuffle stages from the largest fixed length.
STAGED_FL = 12


def _blocks(num_blocks: int, seed: int) -> np.ndarray:
    """A random walk with a flat stretch, so some blocks have ``fl == 0``."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=num_blocks * BLOCK))
    data[BLOCK : 3 * BLOCK] = 0.0
    return data.reshape(num_blocks, BLOCK)


def _dist(length: int):
    stages = compression_substages(STAGED_FL, BLOCK, PAPER_CYCLE_MODEL)
    return distribute_substages(stages, length)


def _plans() -> dict:
    """Name -> plan builder for every clean run."""
    return {
        "rows_3x1": lambda: plan_row_parallel(
            _blocks(20, 1), EPS, rows=3, cols=1
        ),
        "pipeline_2stage_2x2": lambda: plan_pipeline(
            _blocks(12, 2), EPS, _dist(2), rows=2, cols=2
        ),
        "pipeline_3stage_1x3": lambda: plan_pipeline(
            _blocks(9, 3), EPS, _dist(3), rows=1, cols=3
        ),
        "staged_2x4": lambda: plan_staged_multi_pipeline(
            _blocks(19, 4), EPS, _dist(2), rows=2, cols=4
        ),
        "staged_2x9": lambda: plan_staged_multi_pipeline(
            _blocks(23, 5), EPS, _dist(3), rows=2, cols=9
        ),
        "multi_2x3": lambda: plan_multi_pipeline(
            _blocks(17, 6), EPS, rows=2, cols=3
        ),
        "multi_3x4": lambda: plan_multi_pipeline(
            _blocks(30, 7), EPS, rows=3, cols=4
        ),
        "multi_4x4": lambda: plan_multi_pipeline(
            _blocks(16, 8), EPS, rows=4, cols=4
        ),
        "multi_1x64": lambda: plan_multi_pipeline(
            _blocks(150, 9), EPS, rows=1, cols=64
        ),
        "multi_1x256": lambda: plan_multi_pipeline(
            _blocks(256, 10), EPS, rows=1, cols=256
        ),
    }


def _halt_plan():
    return plan_multi_pipeline(_blocks(21, 11), EPS, rows=1, cols=8)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _records_digest(records: dict) -> str:
    h = hashlib.sha256()
    for idx in sorted(records):
        h.update(f"{idx}:{len(records[idx])}:".encode())
        h.update(records[idx])
    return h.hexdigest()


def _pe_rows(fabric) -> list:
    return [
        [pe.row, pe.col, pe.compute_cycles, pe.relay_cycles, pe.tasks_run,
         pe.busy_until, pe.max_inbox_depth]
        for pe in fabric
    ]


def _counters(counters) -> list:
    return [
        [nc.label, nc.kind, nc.row, nc.col, nc.blocks_relayed,
         nc.wavelets_sent, nc.blocks_emitted,
         sorted(nc.stage_cycles.items())]
        for nc in counters
    ]


def _timeline(tracer) -> list:
    return sorted(
        [e.row, e.col, e.name, e.start_cycles, e.dur_cycles]
        for e in tracer.pe_events
    )


def _execute(plan, *, faults=None):
    fabric = Fabric(plan.rows, plan.cols)
    tracer = Tracer(level="timeline")
    engine = Engine(fabric, tracer=tracer, faults=faults)
    lowered = lower_plan(plan, fabric, engine)
    return fabric, tracer, engine, lowered


def fingerprint_clean(name: str) -> dict:
    fabric, tracer, engine, lowered = _execute(_plans()[name]())
    report = engine.run()
    timeline = _timeline(tracer)
    return {
        "makespan": report.makespan_cycles,
        "records_sha256": _records_digest(lowered.outputs.records),
        "num_records": len(lowered.outputs.records),
        "pes": _pe_rows(fabric),
        "counters_sha256": _digest(_counters(lowered.counters)),
        "timeline_sha256": _digest(timeline),
        "timeline_len": len(timeline),
        "events_processed": report.events_processed,
    }


def fingerprint_halt(row: int, col: int, cycle: int) -> dict:
    faults = FaultPlan(
        seed=0, faults=(PEHalt(row=row, col=col, at_cycle=cycle),)
    )
    fabric, tracer, engine, lowered = _execute(_halt_plan(), faults=faults)
    try:
        engine.run()
        message = report = None
    except DeadlockError as exc:
        message = str(exc)
        report = json.loads(exc.report.to_json())
    timeline = _timeline(tracer)
    return {
        "halt": [row, col, cycle],
        "message": message,
        "report": report,
        "makespan": max(pe.busy_until for pe in fabric),
        "pes": _pe_rows(fabric),
        "counters_sha256": _digest(_counters(lowered.counters)),
        "timeline_sha256": _digest(timeline),
        "timeline_len": len(timeline),
        "events_processed": engine.events_processed,
    }


def _rearm_halts() -> list[tuple[int, int, int]]:
    """Halt points for the sweep, read from the clean 1x8 timeline.

    Besides a few fixed cycles, halt PE(0,c) exactly at (and one cycle
    either side of) the start of its second and third relay task — the
    first and second re-arm of a counted relay round.
    """
    _, tracer, engine, _ = _execute(_halt_plan())
    engine.run()
    halts = [(0, 0, 0), (0, 3, 150), (0, 5, 400), (0, 1, 700)]
    for col in (0, 2, 5):
        starts = sorted(
            e.start_cycles for e in tracer.pe_events
            if e.col == col and e.name == "relay"
        )
        for t in (int(starts[1]), int(starts[2])):
            halts.extend([(0, col, t - 1), (0, col, t), (0, col, t + 1)])
    return halts


def write_fixture(path: Path) -> None:
    """One run per line, so a changed run shows as one changed line."""

    def line(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    clean = [
        f"{json.dumps(name)}:{line(fingerprint_clean(name))}"
        for name in sorted(_plans())
    ]
    halts = [line(fingerprint_halt(*h)) for h in _rearm_halts()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '{"clean":{\n' + ",\n".join(clean) + '\n},\n"halts":[\n'
        + ",\n".join(halts) + "\n]}\n"
    )


def _without_events(fp: dict) -> dict:
    return {k: v for k, v in fp.items() if k != "events_processed"}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_plans()))
def test_clean_run_matches_golden(golden, name):
    got = fingerprint_clean(name)
    want = golden["clean"][name]
    assert _without_events(got) == _without_events(want)
    assert got["events_processed"] <= want["events_processed"]


def test_counted_relay_cuts_events_on_long_rows(golden):
    """A 256-PE row replays its relay rounds in under a third of the
    events the per-block relay task loop needed."""
    got = fingerprint_clean("multi_1x256")["events_processed"]
    assert got * 3 <= golden["clean"]["multi_1x256"]["events_processed"]


def test_halt_sweep_matches_golden(golden):
    assert len(golden["halts"]) >= 10
    for want in golden["halts"]:
        got = fingerprint_halt(*want["halt"])
        assert _without_events(got) == _without_events(want), want["halt"]
        assert got["events_processed"] <= want["events_processed"], (
            want["halt"]
        )


if __name__ == "__main__":  # pragma: no cover - fixture writer
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: test_engine_golden.py --write PATH")
    write_fixture(Path(sys.argv[2]))
