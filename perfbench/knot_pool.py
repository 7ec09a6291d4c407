"""Derive ``perfbench/data/knot_pool.json``, the braid words of ``knots``.

The pool holds ``corpus.KNOT_POOL_SIZES`` seeded braid words per crossing
count, each with the verdict the library gives on its closure:
``scalar`` when ``long_knot_scalar(zeval(lift(g)))`` returns a value and
``nonscalar`` when it raises ``NonScalarError``.  The verdicts only steer
which words a seed picks (see ``corpus.pick_knots``); every run still
checks each knot against ``bracket_oracle``.

Run ``python3 perfbench/knot_pool.py`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from xctangle import builtin_uqsl2, lift, long_knot_scalar, zeval  # noqa: E402
from xctangle.errors import NonScalarError  # noqa: E402

import corpus  # noqa: E402


def verdict(g, algebra) -> str:
    try:
        long_knot_scalar(zeval(lift(g), algebra))
    except NonScalarError:
        return "nonscalar"
    return "scalar"


def derive_pool() -> dict:
    algebra = builtin_uqsl2()
    pool = corpus.braid_pool(corpus.KNOT_POOL_SEED)
    for e in pool:
        e["verdict"] = verdict(corpus.braid_closure(e["word"]), algebra)
    return {"seed": corpus.KNOT_POOL_SEED, "pool": pool}


if __name__ == "__main__":
    data = derive_pool()
    corpus.KNOT_POOL.write_text(
        "{\"seed\": %s, \"pool\": [\n%s\n]}\n" % (
            json.dumps(data["seed"]),
            ",\n".join(json.dumps(e) for e in data["pool"])))
    bad = sum(e["verdict"] == "nonscalar" for e in data["pool"])
    print(f"{len(data['pool'])} braid words written to "
          f"{corpus.KNOT_POOL.name}, {bad} non-scalar")
