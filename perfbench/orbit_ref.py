"""Reference orbit search, independent of ``xctangle.canonical_key``.

It repeats the bounded breadth-first closure that ``xctangle.orbit``
promises (depth budget, size cap, truncation flag) over ``find_sites`` and
``apply``, but identifies diagrams by this module's own key: the event
tuple with chords renumbered by first occurrence.

Run ``python3 perfbench/orbit_ref.py`` from the repository root to derive
``perfbench/data/orbit_pool.json`` again; the derivation is seeded and
prints nothing but a summary.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from xctangle import apply, find_sites, orbit, print_diagram  # noqa: E402
from xctangle.gauss import DIAMOND  # noqa: E402
from xctangle.moves import KINDS  # noqa: E402
from xctangle.randomgen import random_diagram  # noqa: E402

POOL_SEED = "orbit-pool-v1"
POOL_SIZE = 36
# Orbits with fewer apply calls take well under half a second; leaving them
# out keeps the orbit items the slowest items of a calculus pass, so its
# median item is an orbit for every seed.
MIN_WORK = 5000


def diagram_key(d) -> tuple:
    ids: dict[int, int] = {}
    events = []
    for ev in d.events:
        row = []
        for kind, val in ev:
            if kind != DIAMOND:
                val = ids.setdefault(val, len(ids) + 1)
            row.append((kind, val))
        events.append(tuple(row))
    sign = d.chord_sign
    signs = tuple(sign[c] for c in sorted(ids, key=ids.get))
    return d.n, d.top, signs, tuple(events)


def reference_orbit(d, max_depth: int, max_size: int) -> tuple[int, bool, int]:
    """(members, truncated, apply calls) of the bounded closure of ``d``."""
    seen = {diagram_key(d)}
    frontier = [d]
    truncated = False
    work = 0
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            for kind in KINDS:
                for site in find_sites(cur, kind):
                    h = apply(cur, site)
                    work += 1
                    if h.decoration_count() > max_size:
                        truncated = True
                        continue
                    key = diagram_key(h)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(h)
        frontier = nxt
        if not frontier:
            break
    else:
        truncated = truncated or bool(frontier)
    return len(seen), truncated, work


def orbit_seconds(d, max_depth: int, max_size: int) -> float:
    """Median of three timings of the library's ``orbit`` of ``d``, at the
    nominal pace.  It only ranks the pool into cost strata: the member
    count and the apply count do not (an orbit whose moves mostly exceed
    the size cap has many applies but few members and is cheap)."""
    from pace import Pace

    runs = []
    with Pace() as pace:
        for _ in range(3):
            t0 = perf_counter()
            orbit(d, max_depth, max_size)
            runs.append(pace.nominal(t0, perf_counter()))
    return statistics.median(runs)


def derive_pool() -> dict:
    from corpus import ORBIT_DEPTH, ORBIT_SIZE

    rng = random.Random(POOL_SEED)
    pool, keys = [], set()
    while len(pool) < POOL_SIZE:
        d = random_diagram(rng, n=rng.choice((1, 2)), max_chords=2,
                           max_diamonds=3)
        key = diagram_key(d)
        if not 1 <= d.decoration_count() <= 3 or key in keys:
            continue
        keys.add(key)
        members, truncated, work = reference_orbit(d, ORBIT_DEPTH, ORBIT_SIZE)
        if work < MIN_WORK:
            continue
        pool.append({"id": len(pool), "diagram": print_diagram(d),
                     "members": members, "truncated": truncated,
                     "work": work,
                     "seconds": orbit_seconds(d, ORBIT_DEPTH, ORBIT_SIZE)})
    return {"seed": POOL_SEED, "max_depth": ORBIT_DEPTH,
            "max_size": ORBIT_SIZE, "min_work": MIN_WORK, "pool": pool}


if __name__ == "__main__":
    from corpus import ORBIT_POOL

    data = derive_pool()
    ORBIT_POOL.parent.mkdir(exist_ok=True)
    ORBIT_POOL.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{len(data['pool'])} orbits written to {ORBIT_POOL.name}")
