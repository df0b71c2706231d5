"""Cold set-up probe for one workload, run in a fresh interpreter.

Usage: ``python3 perfbench/setup_child.py <workload>`` with the workload's
input as raw float32 bytes on stdin (so input generation stays out of the
figure). Prints one JSON line:

* ``setup_s``: importing NumPy and the package, constructing the codec and
  its first (cold) compress call; reading stdin is excluded.
* ``peak_rss_mb``: the process's peak resident set after one whole round
  trip (compress, verify, decompress). It is read from ``VmHWM`` in
  ``/proc/self/status``, which covers this interpreter only:
  ``ru_maxrss`` also keeps the parent's resident set from before ``exec``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

T1 = time.perf_counter()
x = np.frombuffer(sys.stdin.buffer.read(), dtype=np.float32)
T2 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
codec = workload.build()
res = workload.compress(codec, x)
T3 = time.perf_counter()

from repro.core.decompressor import verify_stream  # noqa: E402

verify_stream(res.stream)
workload.decompress(codec, res.stream)


def peak_rss_kib() -> float:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


print(
    json.dumps(
        {
            "setup_s": (T1 - T0) + (T3 - T2),
            "peak_rss_mb": peak_rss_kib() / 1024.0,
        }
    )
)
