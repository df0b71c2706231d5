"""Discrete-event execution engine for the WSE simulator.

The engine gives DSDs and tasks their dataflow semantics:

* a task bound to a color runs when the color is activated, one task at a
  time per PE (each PE is an independent sequential processor);
* ``mov32`` transfers are asynchronous: receives post a pending descriptor
  that is matched against arriving fabric data, sends resolve the color's
  static route and schedule an arrival at the destination PE, and either
  side may activate a completion color (the data-triggering mechanism of the
  paper's Figure 4);
* fabric timing charges one cycle per wavelet injected plus one cycle per
  hop traversed; compute timing is charged explicitly by tasks through
  :meth:`TaskContext.spend` using the calibrated cost model.

Time is measured in clock cycles as a float (stage costs are calibrated
means, not integers). The engine is deterministic: ties are broken by event
sequence number.

Payload ownership rule
----------------------
Arrays handed to the fabric belong to the fabric from the moment the
transfer is issued: senders must not mutate a sent array afterwards, and
receivers copy into their own buffers at delivery time (``_match`` writes
through the destination DSD). The engine therefore copies a payload **at
most once**, on the fabout side, and only when the source buffer stays
live after the send (a task could legally reuse it). Transmit scratch
buffers registered via :meth:`Engine.note_scratch` are freed the moment
the transfer captures them, so their payloads move with zero copies; pure
relays (fabout <- fabin) forward the in-flight array itself.

Event-queue invariants
----------------------
The heap holds at most one ``task`` event per PE (``pe.task_scheduled``
guards re-arming; the dispatcher re-pushes while pending activations
remain), and ``match`` probes are only queued when they can pair —
deliveries with no posted receive and receives with an empty inbox do not
enqueue anything. A delivery that finds a posted receive or relay is
matched while the ``deliver`` event is dispatched, instead of through a
second event at the same cycle; a freshly posted receive or relay that
finds data waiting still queues one ``match`` probe at its posting cycle.
These are pure event-count reductions: timing and matching order are
unchanged, only redundant no-op events disappear.

Counted relays
--------------
Fig 9's relay loop passes ``to_relay`` blocks east, re-arming its relay
task after each one. ``mov32(fabout <- fabin, count=n, rearm=r,
on_complete=c)`` posts the whole round as one descriptor; the posting task
is the round's first relay task, and the engine replays the ``n - 1``
re-arms exactly as the task loop would have run them. With ``A_j`` the
arrival of block ``j``, ``T_1`` the posting cycle and ``inject`` the
block's injection cycles:

* block ``j`` leaves at ``S_j = max(A_j, T_j)``;
* the next re-arm runs at ``T_{j+1} = max(S_j + inject, T_j + r)``;
* each re-arm adds ``r`` to the PE's ``relay_cycles`` and 1 to
  ``tasks_run``, sets ``busy_until = T_{j+1} + r``, records the same
  timeline event (named after the task bound to ``c``) the task would
  have, and calls the descriptor's ``on_rearm`` (the task's own per-block
  bookkeeping, such as plan-node counters);
* ``c`` is activated only after the last block, at ``S_n + inject``.

A timed halt at cycle ``h`` (``pe.halt_at``, known once the fault plan is
installed) cancels every re-arm due at or after ``h``: the round ends with
the last block already posted, as the task loop would stop there, so no
accounting is ever booked for a re-arm that never runs. A block that is
already waiting when its re-arm is booked gets one ``match`` probe at the
re-arm cycle; a block that arrives after it is matched on delivery.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import HOP_CYCLES
from repro.errors import DeadlockError, TaskError
from repro.faults.inject import FaultInjector, build_fault_report
from repro.faults.plan import FaultPlan
from repro.wse.color import Color
from repro.wse.dsd import Dsd, FabinDsd, FaboutDsd, Mem1dDsd
from repro.wse.fabric import Fabric
from repro.wse.pe import ProcessingElement, TaskContext
from repro.wse.trace import TraceRecorder
from repro.wse.wavelet import Direction, wavelet_count


@dataclass(frozen=True)
class SimulationReport:
    """Result of :meth:`Engine.run`.

    ``fault`` is ``None`` for a clean run. Under
    ``run(on_stall="report")`` a detected stall hands back the structured
    :class:`~repro.faults.report.FaultReport` here instead of raising —
    the handoff the self-healing retry loop consumes.
    """

    makespan_cycles: float
    events_processed: int
    tasks_run: int
    trace: TraceRecorder
    fault: "object | None" = None

    @property
    def stalled(self) -> bool:
        return self.fault is not None


@dataclass(slots=True)
class _PendingRecv:
    dst: Mem1dDsd
    extent: int
    on_complete: Color | None
    posted_at: float


@dataclass(slots=True)
class _PendingRelay:
    """A counted relay round: ``remaining`` blocks of ``extent`` each.

    ``posted_at`` is the cycle the head block was (re-)armed; ``rearm``
    the cycles each replayed re-arm spends; ``task`` the timeline name of
    the re-arming task and ``on_rearm`` its per-block bookkeeping;
    ``waking`` is set while a ``match`` probe for a waiting block is
    queued at ``posted_at``.
    """

    out_color: Color
    extent: int
    on_complete: Color | None
    posted_at: float
    charge_relay: bool
    remaining: int = 1
    rearm: int = 0
    task: str = ""
    on_rearm: Callable[[], None] | None = None
    waking: bool = False


@dataclass(slots=True)
class _Event:
    kind: str
    pe: ProcessingElement | None = None
    color_id: int = -1
    data: np.ndarray | None = None
    #: The fault a ``fault`` event fires; unused by every other kind.
    payload: object = None


class Engine:
    """Runs a configured :class:`Fabric` until quiescence."""

    def __init__(
        self,
        fabric: Fabric,
        *,
        max_events: int = 50_000_000,
        tracer=None,
        faults: FaultInjector | FaultPlan | None = None,
    ):
        self.fabric = fabric
        self.max_events = max_events
        #: Optional :class:`repro.obs.tracing.Tracer`. Per-PE timeline
        #: events are recorded only at ``trace_level="timeline"``; the
        #: level is cached as one bool so the off path costs a single
        #: attribute test per task execution.
        self.tracer = tracer
        self._timeline = tracer is not None and tracer.records_timeline
        #: High-water mark of the event heap (published to the metrics
        #: registry as ``sim.engine.queue_depth.max``).
        self.max_queue_depth = 0
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._ids = itertools.count()
        self._recv: dict[tuple[int, int, int], deque[_PendingRecv]] = {}
        self._relay: dict[tuple[int, int, int], deque[_PendingRelay]] = {}
        self._scratch: dict[tuple[int, int], list[str]] = {}
        self._events_processed = 0
        self._now = 0.0
        #: Optional fault injector (see :mod:`repro.faults`). ``_faulted``
        #: caches presence so clean runs pay one attribute test per deliver.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults = faults
        self._faulted = faults is not None
        if faults is not None:
            faults.install(self)

    # -- public API -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def fresh_id(self) -> int:
        return next(self._ids)

    def inject(
        self,
        row: int,
        col: int,
        color: Color,
        data: np.ndarray,
        at: float = 0.0,
        *,
        from_direction: Direction = Direction.WEST,
    ) -> None:
        """Feed data onto the mesh as if arriving from off-wafer.

        The wafer edge PEs route data on and off the WSE (paper 5.1.1);
        ``inject`` models the on-wafer side of that boundary: the array
        appears at PE (row, col) on ``color`` at cycle ``at`` plus the
        injection time of ``len(data)`` wavelets.
        """
        arr = np.asarray(data)
        arrive = at + wavelet_count(arr) * HOP_CYCLES
        self._push(arrive, _Event("deliver", self.fabric.pe(row, col), color.id, arr))

    def send_from(
        self,
        row: int,
        col: int,
        color: Color,
        data: np.ndarray,
        at: float = 0.0,
    ) -> None:
        """Send ``data`` along ``color``'s route starting at PE (row, col).

        Unlike :meth:`inject` (which drops data straight into a PE's inbox,
        modeling the off-wafer edge), this resolves the static route from
        the source PE's RAMP — the data traverses the fabric and arrives at
        whichever PE the route terminates on, after injection and hop
        latency. It models a producer PE whose send is driven by the host
        (e.g. a generator kernel outside the simulated program).
        """
        pe = self.fabric.pe(row, col)
        arr = np.asarray(data)
        self._send(
            pe, color, arr, at, None, False, wavelet_count(arr) * HOP_CYCLES
        )

    def schedule_activation(
        self, pe: ProcessingElement, color_id: int, at: float
    ) -> None:
        self._push(at, _Event("activate", pe, color_id))

    def schedule_fault(self, fault, at: float) -> None:
        """Arm a timed fault (PE halt, SRAM bit flip) at cycle ``at``."""
        self._push(at, _Event("fault", payload=fault))

    def note_scratch(self, pe: ProcessingElement, name: str) -> None:
        """Mark ``name`` as a transmit scratch buffer to free on send."""
        self._scratch.setdefault(pe.coord, []).append(name)

    def submit_transfer(
        self,
        pe: ProcessingElement,
        dst: Dsd,
        src: Dsd,
        now: float,
        on_complete: Color | None,
        *,
        relay: bool = False,
        count: int = 1,
        rearm: float = 0.0,
        on_rearm: Callable[[], None] | None = None,
    ) -> None:
        """Interpret a ``mov32`` issued by a task on ``pe`` at cycle ``now``.

        ``count``/``rearm`` make a ``fabout <- fabin`` relay a counted
        round (see "Counted relays" in the module docstring); every other
        combination moves exactly one transfer.
        """
        is_relay = isinstance(dst, FaboutDsd) and isinstance(src, FabinDsd)
        if count != 1 and (count < 1 or not is_relay or on_complete is None):
            raise TaskError(
                f"PE{pe.coord}: count={count} needs a fabout <- fabin relay "
                f"with an on_complete color to re-arm"
            )
        if isinstance(dst, Mem1dDsd) and isinstance(src, FabinDsd):
            key = (pe.row, pe.col, src.color.id)
            self._recv.setdefault(key, deque()).append(
                _PendingRecv(dst, src.extent, on_complete, now)
            )
            # A freshly posted receive can only pair if data already sits in
            # the inbox; otherwise the next deliver event probes for us.
            if pe.inbox.get(src.color.id):
                self._push(now, _Event("match", pe, src.color.id))
        elif isinstance(dst, FaboutDsd) and isinstance(src, Mem1dDsd):
            view = src.resolve(pe.buffers)
            names = self._scratch.get(pe.coord)
            if names and src.buffer in names:
                # Transmit scratch: the buffer is freed right after the send
                # captures it, so ownership transfers to the fabric and no
                # defensive copy is needed (see the ownership rule above).
                data = view
            else:
                data = np.array(view, copy=True)
            if data.size != dst.extent:
                raise TaskError(
                    f"PE{pe.coord}: fabout extent {dst.extent} != source "
                    f"window size {data.size}"
                )
            self._send(
                pe, dst.color, data, now, on_complete, relay,
                wavelet_count(data) * HOP_CYCLES,
            )
            self._free_scratch(pe, src.buffer)
        elif is_relay:
            key = (pe.row, pe.col, src.color.id)
            self._relay.setdefault(key, deque()).append(
                _PendingRelay(
                    dst.color, src.extent, on_complete, now, relay,
                    count, int(round(rearm)),
                    pe.tasks[on_complete.id].name if count > 1 else "",
                    on_rearm,
                )
            )
            if pe.inbox.get(src.color.id):
                self._push(now, _Event("match", pe, src.color.id))
        elif isinstance(dst, Mem1dDsd) and isinstance(src, Mem1dDsd):
            target = dst.resolve(pe.buffers)
            source = src.resolve(pe.buffers)
            if target.size != source.size:
                raise TaskError(
                    f"PE{pe.coord}: local copy size mismatch "
                    f"{source.size} -> {target.size}"
                )
            target[:] = source
            if on_complete is not None:
                self._push(now, _Event("activate", pe, on_complete.id))
        else:
            raise TaskError(
                f"unsupported mov32 combination: {type(src).__name__} -> "
                f"{type(dst).__name__}"
            )

    def run(
        self,
        *,
        allow_pending: bool = False,
        stop_when: Callable[[], bool] | None = None,
        on_stall: str = "raise",
    ) -> SimulationReport:
        """Process events until quiescence (or ``stop_when`` returns True).

        With ``allow_pending=False`` (the default), finishing with unmatched
        pending receives is a detected stall — on the device that state is
        a silent hang. ``on_stall`` selects the handoff: ``"raise"`` (the
        default) raises :class:`DeadlockError` carrying the structured
        FaultReport; ``"report"`` returns normally with the same
        FaultReport attached as :attr:`SimulationReport.fault`, so repair
        orchestration can consume stalls as data instead of control flow.
        """
        if on_stall not in ("raise", "report"):
            raise ValueError(
                f"on_stall must be 'raise' or 'report', got {on_stall!r}"
            )

        def _stall(message: str, reason: str) -> SimulationReport:
            report = self._diagnose(reason)
            if on_stall == "raise":
                raise DeadlockError(message, report=report)
            return self._finish(fault=report)

        while self._queue:
            if self._events_processed >= self.max_events:
                message = (
                    f"event budget exhausted after {self.max_events} events "
                    f"(livelock?)"
                )
                pending = self._pending_summary()
                if pending:
                    message += f"; pending: {pending}"
                return _stall(message, "livelock")
            time, _, event = heapq.heappop(self._queue)
            self._now = max(self._now, time)
            self._events_processed += 1
            self._dispatch(time, event)
            if stop_when is not None and stop_when():
                break
        if not allow_pending:
            desc = self._pending_summary()
            if desc:
                return _stall(
                    f"simulation quiesced with unmatched pending receives: "
                    f"{desc}",
                    "deadlock",
                )
            if self.faults is not None:
                leftovers = self.faults.quiesce_stuck(self)
                if leftovers:
                    locs = "; ".join(
                        f"PE({s.row},{s.col}) color {s.color_id}: "
                        f"{s.extent} undelivered"
                        for s in leftovers
                    )
                    return _stall(
                        f"simulation quiesced with undelivered data at "
                        f"injection-halted PEs: {locs}",
                        "deadlock",
                    )
        return self._finish()

    def _finish(self, fault=None) -> SimulationReport:
        """Fold per-PE state into the report (clean or stalled-with-report)."""
        trace = TraceRecorder()
        tasks_run = 0
        for pe in self.fabric:
            trace.record(pe)
            tasks_run += pe.tasks_run
        trace.events_processed = self._events_processed
        makespan = max((pe.busy_until for pe in self.fabric), default=0.0)
        return SimulationReport(
            makespan_cycles=makespan,
            events_processed=self._events_processed,
            tasks_run=tasks_run,
            trace=trace,
            fault=fault,
        )

    # -- internals --------------------------------------------------------------------

    def _diagnose(self, reason: str):
        """Build the structured :class:`FaultReport` for a detected stall."""
        if self.faults is not None:
            return self.faults.build_report(self, reason)
        return build_fault_report(self, reason)

    def _pending_summary(self) -> str:
        """Describe every stuck pending receive/relay for deadlock reports.

        One clause per posted descriptor: the PE's coordinates, the color it
        is blocked on, what it was waiting for, and the cycle the descriptor
        was posted — enough to see which producer never delivered.
        """
        lines: list[str] = []
        for (r, c, cid), queue in sorted(self._recv.items()):
            for p in queue:
                lines.append(
                    f"PE({r},{c}) color {cid}: recv of {p.extent} wavelets "
                    f"into {p.dst.buffer!r} posted at cycle {p.posted_at:.0f}"
                )
        for (r, c, cid), queue in sorted(self._relay.items()):
            for p in queue:
                lines.append(
                    f"PE({r},{c}) color {cid}: relay of {p.extent} wavelets "
                    f"to color {p.out_color.id} posted at cycle "
                    f"{p.posted_at:.0f}"
                )
        return "; ".join(lines)

    def _push(self, time: float, event: _Event) -> None:
        queue = self._queue
        heapq.heappush(queue, (time, next(self._seq), event))
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def _dispatch(self, time: float, event: _Event) -> None:
        if event.kind == "deliver":
            copies = 1
            if self._faulted:
                copies = self.faults.on_deliver(event.pe, event.color_id)
                if copies == 0:
                    return  # injected wavelet drop: the data never arrives
            for _ in range(copies):
                event.pe.deliver(event.color_id, event.data)
            # Data that can pair is matched now rather than by a same-cycle
            # probe; data with no posted receive/relay waits in the inbox
            # until the matching submit_transfer probes.
            self._match(event.pe, event.color_id, time)
        elif event.kind == "match":
            self._match(event.pe, event.color_id, time)
        elif event.kind == "activate":
            event.pe.activate(event.color_id)
            self._schedule_task(event.pe, max(time, event.pe.busy_until))
        elif event.kind == "task":
            self._run_task(event.pe, time)
        elif event.kind == "fault":
            self.faults.apply_timed(self, event.payload, time)
        else:  # pragma: no cover - defensive
            raise TaskError(f"unknown event kind {event.kind!r}")

    def _match(self, pe: ProcessingElement, color_id: int, time: float) -> None:
        """Pair arrived data with pending receives/relays, FIFO.

        Relays posted before receives are matched first in posting order;
        on a tie the receive goes first. A relay whose next re-arm is still
        ahead of ``time`` is not posted yet: the waiting block gets one
        probe at the re-arm cycle instead.
        """
        inbox = pe.inbox.get(color_id)
        if not inbox:
            return
        key = (pe.row, pe.col, color_id)
        relays = self._relay.get(key)
        recvs = self._recv.get(key)
        while inbox:
            relay = relays[0] if relays else None
            recv = recvs[0] if recvs else None
            if relay is not None and (
                recv is None or relay.posted_at < recv.posted_at
            ):
                if relay.posted_at > time:
                    if not relay.waking:
                        relay.waking = True
                        self._push(
                            relay.posted_at, _Event("match", pe, color_id)
                        )
                    return
                data = inbox.popleft()
                if data.size != relay.extent:
                    raise TaskError(
                        f"PE{pe.coord}: relay on color {color_id} expected "
                        f"{relay.extent} wavelets, got {data.size}"
                    )
                self._relay_block(pe, relays, data, time)
            elif recv is not None:
                data = inbox.popleft()
                recvs.popleft()
                if data.size != recv.extent:
                    raise TaskError(
                        f"PE{pe.coord}: receive on color {color_id} expected "
                        f"{recv.extent} wavelets, got {data.size}"
                    )
                target = recv.dst.resolve(pe.buffers)
                if target.size != data.size:
                    raise TaskError(
                        f"PE{pe.coord}: receive buffer window holds "
                        f"{target.size} elements, data has {data.size}"
                    )
                target[:] = data.astype(target.dtype, copy=False)
                if recv.on_complete is not None:
                    done = max(time, recv.posted_at)
                    self._push(
                        done, _Event("activate", pe, recv.on_complete.id)
                    )
            else:
                return

    def _relay_block(
        self,
        pe: ProcessingElement,
        relays: deque[_PendingRelay],
        data: np.ndarray,
        time: float,
    ) -> None:
        """Forward one block of the head relay round, then re-arm it.

        ``_match`` calls this once the block has arrived and its re-arm is
        due, so the block leaves at ``time`` (``S_j = max(A_j, T_j)``).
        """
        relay = relays[0]
        inject = wavelet_count(data) * HOP_CYCLES
        relay.remaining -= 1
        if relay.remaining:
            rearm_at = max(time + inject, relay.posted_at + relay.rearm)
            if rearm_at < pe.halt_at:
                self._send(
                    pe, relay.out_color, data, time, None,
                    relay.charge_relay, inject,
                )
                # Replay the re-arm task's run at rearm_at (module
                # docstring).
                rearm = relay.rearm
                pe.relay_cycles += rearm
                pe.tasks_run += 1
                pe.busy_until = rearm_at + rearm
                if self._timeline:
                    self.tracer.pe_event(
                        pe.row, pe.col, relay.task, rearm_at, rearm
                    )
                if relay.on_rearm is not None:
                    relay.on_rearm()
                relay.posted_at = rearm_at
                relay.waking = False
                return
            # A halt at or before the next re-arm ends the round here.
        relays.popleft()
        self._send(
            pe, relay.out_color, data, time, relay.on_complete,
            relay.charge_relay, inject,
        )

    def _send(
        self,
        pe: ProcessingElement,
        color: Color,
        data: np.ndarray,
        now: float,
        on_complete: Color | None,
        charge_relay: bool,
        inject_cycles: int,
    ) -> None:
        route = self.fabric.resolve(pe.row, pe.col, color)
        if charge_relay:
            pe.relay_cycles += inject_cycles
        if route.dropped:
            # Dead link (injected fault): the wavelets are injected and then
            # vanish mid-route. The sender can't tell — its completion color
            # still fires — which is exactly the silent-loss failure mode.
            if self.faults is not None:
                self.faults.on_link_drop(*route.destination, color.id)
            if on_complete is not None:
                self._push(
                    now + inject_cycles,
                    _Event("activate", pe, on_complete.id),
                )
            return
        arrive = now + inject_cycles + route.hops * HOP_CYCLES
        dest = self.fabric.pe(*route.destination)
        self._push(arrive, _Event("deliver", dest, color.id, data))
        if on_complete is not None:
            self._push(now + inject_cycles, _Event("activate", pe, on_complete.id))

    def _schedule_task(self, pe: ProcessingElement, at: float) -> None:
        """Push a ``task`` event for ``pe``, at most one in flight.

        Any event scheduled while ``task_scheduled`` is set would fire at or
        after the one already in the heap (activation times are monotone and
        ``busy_until`` only moves when the armed event runs), and the
        dispatcher re-arms while pending activations remain — so dropping
        the duplicate never delays a task.
        """
        if pe.task_scheduled:
            return
        pe.task_scheduled = True
        self._push(at, _Event("task", pe))

    def _run_task(self, pe: ProcessingElement, time: float) -> None:
        pe.task_scheduled = False
        if pe.halted or not pe.pending:
            return
        if time < pe.busy_until:
            self._schedule_task(pe, pe.busy_until)
            return
        color_id = pe.pending.popleft()
        task = pe.tasks.get(color_id)
        if task is None:  # pragma: no cover - activate() already guards
            raise TaskError(f"PE{pe.coord}: no task bound to color {color_id}")
        ctx = TaskContext(self, pe, time)
        task.fn(ctx)
        pe.busy_until = time + ctx.cycles_spent
        pe.tasks_run += 1
        if self._timeline:
            self.tracer.pe_event(
                pe.row, pe.col, task.name, time, ctx.cycles_spent
            )
        if pe.pending and not pe.halted:
            self._schedule_task(pe, pe.busy_until)

    def _free_scratch(self, pe: ProcessingElement, name: str) -> None:
        names = self._scratch.get(pe.coord)
        if names and name in names:
            names.remove(name)
            pe.free_buffer(name)
