"""One cold set-up of a batch workload in a fresh process.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD``.  Imports the program,
loads the native kernel, runs the workload's warm-up (for exact_certify:
boots the two-worker pool and runs one pooled batch), then prints one JSON
line with the time of each step.  The parent times the whole thing from
process launch to that line; the process then stops its pool workers and
resource tracker, waits for them, and exits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main(workload: str) -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.core import _native

    import batch

    t1 = time.perf_counter()
    _native.load()
    t2 = time.perf_counter()
    batch.BATCH[workload][1]()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "native_load_s": t2 - t1, "warmup_s": t3 - t2}), flush=True)
    # Stop the pool workers and wait for the resource tracker, so the probe
    # leaves no process behind when it exits.
    from repro.engine import pool

    pool.shutdown_pool()
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
