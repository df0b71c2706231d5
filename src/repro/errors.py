"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch a single base class. The WSE simulator raises its own branch of the
hierarchy (:class:`FabricError` and subclasses) because fabric-configuration
mistakes (bad routing, SRAM overflow, color exhaustion) are programming errors
of the *simulated program*, not of the host library, and tests assert on them
specifically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CompressionError(ReproError):
    """A compressor could not encode or decode the given payload."""


class FormatError(CompressionError):
    """A compressed byte stream is malformed or truncated."""


class ContainerError(FormatError):
    """A container (CSZX shard table, checksummed CSZ1 stream) failed a
    structural or integrity check.

    Structured: carries *where* the damage is so callers (and the salvage
    decoder) can act on it instead of re-parsing the message. All fields
    are optional — a truncated header has no shard to point at.
    """

    def __init__(
        self,
        message: str,
        *,
        offset: int | None = None,
        shard: int | None = None,
        groups: tuple[int, ...] = (),
        blocks: tuple[int, ...] = (),
    ):
        super().__init__(message)
        #: Byte offset of the first inconsistency, when known.
        self.offset = offset
        #: Shard index inside a CSZX container, when the damage is local.
        self.shard = shard
        #: CRC-group indices that failed verification.
        self.groups = tuple(groups)
        #: Block indices covered by the failing CRC groups.
        self.blocks = tuple(blocks)

    def __reduce__(self):
        # BaseException's default reduce replays *all* positional args into
        # __init__; ours takes one. Rebuild from message + state instead so
        # the exception survives the multiprocessing pickle boundary.
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {
                "offset": self.offset,
                "shard": self.shard,
                "groups": self.groups,
                "blocks": self.blocks,
            },
        )


class WorkerError(CompressionError):
    """A shard-engine or simulator worker failed permanently.

    Raised after the retry budget is exhausted (or when a worker dies with
    an unpicklable exception); carries which shards failed and why, so a
    caller can tell a poisoned input from a crashed pool.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        rows: tuple[int, ...] = (),
        attempts: int = 0,
        failures: tuple = (),
    ):
        super().__init__(message)
        #: Index of the failing shard / partition (first one, when several).
        self.shard = shard
        #: Mesh rows owned by the failing simulator partition, if any.
        self.rows = tuple(rows)
        #: Attempts consumed before giving up.
        self.attempts = attempts
        #: Per-shard failure descriptions (``ShardFailure`` records).
        self.failures = tuple(failures)

    def __reduce__(self):
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {
                "shard": self.shard,
                "rows": self.rows,
                "attempts": self.attempts,
                "failures": self.failures,
            },
        )


class ErrorBoundError(ReproError):
    """An invalid error bound was supplied (non-positive or non-finite)."""


class NonFiniteInputError(ErrorBoundError):
    """The input holds NaN or +-Inf, for which no error bound can hold."""


class LedgerError(ReproError):
    """A run-ledger file is malformed or from an incompatible schema."""


class DatasetError(ReproError):
    """A dataset name or field is unknown, or generation parameters are bad."""


class FabricError(ReproError):
    """Base class for WSE simulator errors."""


class RoutingError(FabricError):
    """A color route is missing, conflicting, or leaves the mesh."""


class MemoryError_(FabricError):
    """A PE exceeded its 48 KB SRAM budget.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ColorExhaustedError(FabricError):
    """More than the 24 available colors were requested on one PE."""


class DeadlockError(FabricError):
    """The discrete-event engine ran out of events with tasks still pending.

    Carries an optional structured :class:`repro.faults.FaultReport` so
    callers can inspect *which* PEs/colors wedged (and whether an injected
    fault caused it) without parsing the message.
    """

    def __init__(self, message: str = "", *, report=None):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        # Keep the report across the multiprocessing pickle boundary; the
        # default BaseException reduce drops keyword-only state.
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {"report": self.report},
        )


class RepairError(FabricError):
    """The fault-repair loop could not bring a stalled run to completion.

    Raised when ``on_fault="repair"`` exhausts its ``max_repairs`` budget,
    finds no spare rows and no way to shrink, or keeps failing on rows it
    already evacuated. Carries the last stall's
    :class:`repro.faults.FaultReport` and the
    :class:`repro.faults.RepairReport` of everything that was attempted,
    so post-mortems need no message parsing.
    """

    def __init__(self, message: str = "", *, fault_report=None,
                 repair_report=None):
        super().__init__(message)
        self.fault_report = fault_report
        self.repair_report = repair_report

    def __reduce__(self):
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {
                "fault_report": self.fault_report,
                "repair_report": self.repair_report,
            },
        )


class TaskError(FabricError):
    """A simulated task misbehaved (double-bind, unknown activation, ...)."""


class ScheduleError(ReproError):
    """Sub-stage distribution over PEs is infeasible (Algorithm 1)."""


class ModelError(ReproError):
    """A performance-model query was outside the calibrated domain."""
