"""One set-up sample in a fresh interpreter.

``python3 perfbench/probe.py WORKLOAD`` prints the seconds taken by
``import xctangle``, ``builtin_uqsl2()``, ``builtin_patterns()`` and the
workload's warm-up, at the nominal pace of ``pace.py`` (the reference
chunk is timed just before and after), as one JSON number.  ``run.py``
calls it several times per run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from pace import NOMINAL_S, chunk_seconds

SRC = Path(__file__).resolve().parent.parent / "src"
PACE_CHUNKS = 5  # reference chunks timed before and after the set-up


def timed_setup(workload: str):
    """Return (algebra, seconds at the nominal pace).  Only the library
    calls are timed."""
    chunks = [chunk_seconds() for _ in range(PACE_CHUNKS)]
    t0 = perf_counter()
    import xctangle

    algebra = xctangle.builtin_uqsl2()
    xctangle.builtin_patterns()
    t1 = perf_counter()
    if Path(xctangle.__file__).resolve().parent != SRC / "xctangle":
        raise RuntimeError(f"xctangle imported from {xctangle.__file__}, "
                           f"not from {SRC}")
    import workloads

    t2 = perf_counter()
    workloads.warm_up(workload, algebra)
    raw = (t1 - t0) + (perf_counter() - t2)
    chunks += [chunk_seconds() for _ in range(PACE_CHUNKS)]
    return algebra, raw * NOMINAL_S / statistics.median(chunks)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(timed_setup(sys.argv[1])[1]))
