"""A fixed reference kernel that gauges how fast the host runs right now.

On a small shared host, other tenants slow whole stretches of a run, by
up to 70 % for minutes at a time. The benchmark times this kernel between
the program's calls and divides each call's time by the kernel's time
around it, so a figure tracks the program's cost rather than the host's
load. The kernel is the benchmark's own code and never touches the
program, so a change to the program moves a normalized figure exactly as
it moves the raw one.

Load does not slow every kind of work alike, so the kernel has two
parts, in about the shares of the codec's own work: interpreted code (a
walk over a byte array with NumPy scalar reads and writes, and a plain
arithmetic loop: about four fifths of its time), like the record-offset
walk of decode and verify, the bit-shuffle's column loop and the wafer's
event engine; and float-to-integer passes over a cache-resident 1 MB
array, like the codec's vectorized passes. Over ten runs each of the
smooth and archive workloads, the spread of every call kind's median was
at most 0.083 of the median with this kernel, against 0.104 with the
interpreted part alone, 0.415 with the array part alone and 0.328 raw.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal kernel time, near its fastest on a 2-vCPU x86-64 VM with
#: Python 3.11 and NumPy 2.4; it only sets the scale of normalized figures.
REFERENCE_S = 0.031

_WALK = 1 << 15
_LOOP = 300_000
_ARRAY = 1 << 18
_ARRAY_PASSES = 16


class Reference:
    """Owns the kernel's buffers, so timing it allocates no large arrays."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.bytes = rng.integers(0, 256, _WALK + 1, dtype=np.uint8)
        self.offsets = np.empty(_WALK, dtype=np.int64)
        self.floats = rng.standard_normal(_ARRAY).astype(np.float32)
        self.scaled = np.empty_like(self.floats)
        self.codes = np.empty(_ARRAY, dtype=np.int32)
        self.run()

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        buf, out, pos = self.bytes, self.offsets, 0
        for i in range(_WALK):
            word = int(buf[i]) | (int(buf[i + 1]) << 8)
            out[i] = pos
            pos += word & 15
        acc = 0
        for i in range(_LOOP):
            acc += i & 7
        for _ in range(_ARRAY_PASSES):
            np.multiply(self.floats, 3.0, out=self.scaled)
            np.rint(self.scaled, out=self.scaled)
            self.codes[:] = self.scaled
            acc += int(np.diff(self.codes)[-1])
        self.check = pos + acc
        return time.perf_counter() - t0
